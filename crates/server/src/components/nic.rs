//! NIC: interrupt coalescing of the requests deposited into a node's
//! buffer.
//!
//! Requests arriving within the window of the first buffered request are
//! delivered together by one interrupt, which both batches work and
//! lengthens package idle periods. The arrival process lives in the
//! cluster's front (the balancer or the chain coordinator); the NIC only
//! drains the buffer the front, or the fabric, deposits into.

use apc_core::apmu::WakeCause;
use apc_sim::component::SimulationContext;
use apc_sim::SimDuration;
use apc_soc::io::IoId;
use apc_workloads::request::Request;

use super::state::{ClusterState, ServerState};
use super::ServerEvent;

/// The NIC's interrupt-coalescing window: requests arriving within this
/// window of the first buffered request are delivered together by one
/// interrupt.
pub const NIC_COALESCING: SimDuration = SimDuration::from_micros(30);

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
    let state = &mut shared.nodes[node];
    state.nic.buffer.push_back(request);
    if !state.nic.deliver_pending {
        state.nic.deliver_pending = true;
        // Record the delivery instant so the idle governor's predicted-idle
        // bound (see `ServerState::predicted_idle_bound`) knows work is
        // imminent: a core going idle inside the coalescing window must not
        // pick a C-state it cannot amortise before the interrupt fires.
        state.nic.next_deliver_at = ctx.now() + NIC_COALESCING;
        ctx.emit(
            crate::node::component_id(node),
            NIC_COALESCING,
            ServerEvent::NicDeliver,
        );
    }
}

/// The `NicDeliver` interrupt: moves the buffered batch to the client queue,
/// waking the package first if it sits in (or is entering) a package
/// C-state, then asks the scheduler to dispatch.
pub(crate) fn on_nic_deliver(node: &mut ServerState, ctx: &mut SimulationContext<'_, ServerEvent>) {
    node.nic.deliver_pending = false;
    node.nic.next_deliver_at = apc_sim::SimTime::MAX;
    if node.nic.buffer.is_empty() {
        return;
    }
    // The NIC's PCIe link sees traffic: it leaves L0s and the package, if
    // resident in PC1A or PC6, starts its exit flow before the batch can
    // be dispatched.
    let nic = IoId(0);
    let now = ctx.now();
    node.soc.ios_mut().controller_mut(nic).begin_traffic();
    node.soc.ios_mut().controller_mut(nic).end_traffic(now);
    // Wake the package only when there is something to wake: unless the
    // package is in (or entering) a package C-state the controller would
    // treat the event as a no-op — see `PackageController::wakeable`.
    if node.package.wakeable() {
        ctx.emit_now(
            ctx.id(),
            ServerEvent::PackageWake {
                cause: WakeCause::IoTraffic,
            },
        );
    }
    while let Some(mut r) = node.nic.buffer.pop_front() {
        if let Some(trace) = r.trace.as_mut() {
            trace.delivered = Some(now);
        }
        node.sched.client_queue.push_back(r);
    }
    ctx.emit_now(ctx.id(), ServerEvent::Dispatch);
}
