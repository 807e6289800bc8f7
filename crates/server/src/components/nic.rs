//! NIC component: interrupt coalescing of the requests deposited into a
//! node's buffer.

use apc_core::apmu::WakeCause;
use apc_sim::component::{EventHandler, SimulationContext};
use apc_soc::io::IoId;
use apc_workloads::request::Request;

use super::state::{ClusterState, ServerState};
use super::ServerEvent;

/// Buffers `request` in `node`'s NIC and, if no interrupt is armed yet,
/// schedules the coalesced `NicDeliver` at the end of the coalescing window.
///
/// This is the single entry point for requests reaching a server: the
/// balancer, the chain coordinator and the fabric all deposit through it,
/// in the same emission order (buffer push, then `NicDeliver` arming). It
/// counts the request into the node's load in [`ClusterState::routing`].
pub(crate) fn buffer_request(
    shared: &mut ClusterState,
    node: usize,
    ctx: &mut SimulationContext<'_, ServerEvent>,
    mut request: Request,
) {
    if let Some(trace) = request.trace.as_mut() {
        trace.deposited = Some(ctx.now());
    }
    shared.routing.add_request(node);
    let node = &mut shared.nodes[node];
    node.nic.buffer.push_back(request);
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
/// The arrival process lives in the cluster's front (the balancer or the
/// chain coordinator); the NIC only drains the buffer the front, or the
/// fabric, deposits into.
pub struct NicArrival {
    node: usize,
}

impl NicArrival {
    /// Creates the NIC component for node `node`.
    #[must_use]
    pub fn new(node: usize) -> Self {
        NicArrival { node }
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

impl EventHandler<ServerEvent, ClusterState> for NicArrival {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        match event {
            ServerEvent::NicDeliver => self.on_nic_deliver(&mut shared.nodes[self.node], ctx),
            other => unreachable!("NIC received unexpected event {other:?}"),
        }
    }
}
