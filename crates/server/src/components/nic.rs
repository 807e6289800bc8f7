//! NIC / arrival component: client request generation and interrupt
//! coalescing.

use apc_core::apmu::WakeCause;
use apc_sim::component::{EventHandler, SimulationContext};
use apc_soc::io::IoId;
use apc_trace::TraceCtx;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::request::Request;

use super::state::{HasNode, ServerState};
use super::ServerEvent;

/// Buffers `request` in `node`'s NIC and, if no interrupt is armed yet,
/// schedules the coalesced `NicDeliver` at the end of the coalescing window.
///
/// This is the single entry point for requests reaching a server, shared by
/// the two arrival paths: the standalone NIC's own arrival handler and the
/// cluster balancer depositing a routed request. Keeping the emission order
/// identical on both paths (buffer push, then `NicDeliver` arming) is what
/// makes a 1-node cluster bit-identical to a standalone server.
pub(crate) fn buffer_request(
    node: &mut ServerState,
    ctx: &mut SimulationContext<'_, ServerEvent>,
    mut request: Request,
) {
    if let Some(trace) = request.trace.as_mut() {
        trace.deposited = Some(ctx.now());
    }
    node.nic.buffer.push_back(request);
    node.outstanding += 1;
    if !node.nic.deliver_pending {
        node.nic.deliver_pending = true;
        // Record the delivery instant so the idle governor's predicted-idle
        // bound (see `ServerState::predicted_idle_bound`) knows work is
        // imminent: a core going idle inside the coalescing window must not
        // pick a C-state it cannot amortise before the interrupt fires.
        node.nic.next_deliver_at = ctx.now() + node.config.nic_coalescing;
        ctx.emit(
            node.addrs.nic,
            node.config.nic_coalescing,
            ServerEvent::NicDeliver,
        );
    }
}

/// Models the NIC's interrupt coalescing window: requests arriving within
/// the window of the first buffered request are delivered together by one
/// interrupt, which both batches work and lengthens package idle periods.
///
/// In a standalone server the NIC also *generates* the client arrival
/// process from its own [`LoadGenerator`]. In a cluster the arrival process
/// lives in the balancer (one stream for the whole cluster) and the NIC only
/// drains the buffer the balancer deposits into — build it with
/// [`NicArrival::cluster_fed`] and no generator.
pub struct NicArrival {
    node: usize,
    loadgen: Option<LoadGenerator>,
}

impl NicArrival {
    /// Creates the NIC component for node `node`, driving its own `loadgen`
    /// (the standalone single-server arrival path).
    #[must_use]
    pub fn new(node: usize, loadgen: LoadGenerator) -> Self {
        NicArrival {
            node,
            loadgen: Some(loadgen),
        }
    }

    /// Creates the NIC component for node `node` of a cluster: requests are
    /// deposited by the load balancer, the NIC only handles delivery.
    #[must_use]
    pub fn cluster_fed(node: usize) -> Self {
        NicArrival {
            node,
            loadgen: None,
        }
    }

    fn on_client_arrival(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let loadgen = self
            .loadgen
            .as_mut()
            .expect("a cluster-fed NIC never receives ClientArrival");
        let mut request = loadgen.next_request();
        let next_arrival = loadgen.peek_next_arrival();
        // Standalone head-sampling site: the cluster paths sample at the
        // balancer / chain coordinator instead (a cluster-fed NIC never
        // receives `ClientArrival`, so node-local trace state is in scope).
        if let Some(trace) = shared.telemetry.trace.as_mut() {
            if trace.sampler.sample() {
                let root = TraceCtx::root(request.id.0, request.arrival);
                request = request.with_trace(root);
            }
        }
        buffer_request(shared, ctx, request);
        ctx.emit_self_at(next_arrival, ServerEvent::ClientArrival);
    }

    fn on_nic_deliver(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        shared.nic.deliver_pending = false;
        shared.nic.next_deliver_at = apc_sim::SimTime::MAX;
        if shared.nic.buffer.is_empty() {
            return;
        }
        // The NIC's PCIe link sees traffic: it leaves L0s and the package, if
        // resident in PC1A or PC6, starts its exit flow before the batch can
        // be dispatched.
        let nic = IoId(0);
        let now = ctx.now();
        shared.soc.ios_mut().controller_mut(nic).begin_traffic(now);
        shared.soc.ios_mut().controller_mut(nic).end_traffic(now);
        // Wake the package only when there is something to wake: unless the
        // package is in (or entering) a package C-state the controller would
        // treat the event as a no-op — see `PackageMirror::wakeable`.
        if shared.pkg.wakeable {
            ctx.emit_now(
                shared.addrs.package,
                ServerEvent::PackageWake {
                    cause: WakeCause::IoTraffic,
                },
            );
        }
        while let Some(mut r) = shared.nic.buffer.pop_front() {
            if let Some(trace) = r.trace.as_mut() {
                trace.delivered = Some(now);
            }
            shared.sched.client_queue.push_back(r);
        }
        ctx.emit_now(shared.addrs.scheduler, ServerEvent::Dispatch);
    }
}

impl<S: HasNode> EventHandler<ServerEvent, S> for NicArrival {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut S,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let node = shared.node_mut(self.node);
        match event {
            ServerEvent::ClientArrival => self.on_client_arrival(node, ctx),
            ServerEvent::NicDeliver => self.on_nic_deliver(node, ctx),
            other => unreachable!("NIC received unexpected event {other:?}"),
        }
    }
}
