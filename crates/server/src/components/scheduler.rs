//! Dispatch scheduler: places queued work onto free cores.

use apc_sim::component::SimulationContext;

use super::state::ServerState;
use super::{ServerEvent, WorkItem};

/// Places queued work onto free cores when a `Dispatch` event fires.
///
/// Dispatch is gated on uncore availability: while a package C-state exit
/// flow is in flight, work stays queued and the package controller emits a
/// fresh `Dispatch` the moment the uncore is back. Background work is pinned
/// to its core; client requests go to any free core.
///
/// Free cores are found through [`super::state::FreeCoreSet`], so each
/// assignment costs O(1) instead of an O(cores) scan per queued request;
/// assignment order (lowest free core index first) is identical to the scan
/// it replaced, keeping results bit-identical.
pub(crate) fn on_dispatch(node: &mut ServerState, ctx: &mut SimulationContext<'_, ServerEvent>) {
    if !node.package.uncore_available() {
        // Every path that makes the uncore available again (ApmuExitDone,
        // GpmuExitDone) emits a Dispatch, so there is nothing to re-arm.
        return;
    }
    // Background work is pinned to its core: walk the cores that are
    // free AND have pinned work queued (one bitset intersection per 64
    // cores), in index order — the same cores, in the same order, the
    // old walk over all free cores found by probing each queue.
    let mut from = 0;
    while let Some(core) = node
        .sched
        .free_cores
        .lowest_common_at_or_after(&node.sched.background_pending, from)
    {
        let work = node.sched.background[core].pop_front().expect("checked");
        if node.sched.background[core].is_empty() {
            node.sched.background_pending.remove(core);
        }
        assign(node, ctx, core, WorkItem::Background { work });
        from = core + 1;
    }
    // Client requests go to any free core (lowest index first).
    while !node.sched.client_queue.is_empty() {
        let Some(core) = node.sched.free_cores.lowest() else {
            break;
        };
        let request = node.sched.client_queue.pop_front().expect("checked");
        assign(node, ctx, core, WorkItem::Client(request));
    }
}

/// Reserves `core` for `item` and tells the core to begin its wake
/// transition. The reservation (`pending_start`) makes the core non-free
/// immediately, so one dispatch round never double-assigns.
fn assign(
    node: &mut ServerState,
    ctx: &mut SimulationContext<'_, ServerEvent>,
    core: usize,
    mut item: WorkItem,
) {
    debug_assert!(
        node.sched.core_is_free(&node.soc, core),
        "free-core set out of sync: core {core} is not free"
    );
    if let WorkItem::Client(request) = &mut item {
        if let Some(trace) = request.trace.as_mut() {
            trace.assigned = Some(ctx.now());
        }
    }
    node.sched.pending_start[core] = Some(item);
    node.sched.mark_occupied(core);
    ctx.emit_now(ctx.id(), ServerEvent::BeginWake { core });
}
