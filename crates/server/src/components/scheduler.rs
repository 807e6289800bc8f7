//! Dispatch scheduler: places queued work onto free cores.

use apc_sim::component::{EventHandler, SimulationContext};

use super::state::{ClusterState, ServerState};
use super::{ServerEvent, WorkItem};

/// Places queued work onto free cores whenever a `Dispatch` event fires.
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
pub struct Scheduler {
    node: usize,
}

impl Scheduler {
    /// Creates the dispatch scheduler for node `node`.
    #[must_use]
    pub fn new(node: usize) -> Self {
        Scheduler { node }
    }
}

impl EventHandler<ServerEvent, ClusterState> for Scheduler {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        debug_assert!(matches!(event, ServerEvent::Dispatch));
        let _ = event;
        let shared = &mut shared.nodes[self.node];
        if !shared.uncore.available {
            // Every path that makes the uncore available again (ApmuExitDone,
            // GpmuExitDone) emits a Dispatch, so there is nothing to re-arm.
            return;
        }
        // Background work is pinned to its core: walk the cores that are
        // free AND have pinned work queued (one bitset intersection per 64
        // cores), in index order — the same cores, in the same order, the
        // old walk over all free cores found by probing each queue.
        let mut from = 0;
        while let Some(core) = shared
            .sched
            .free_cores
            .lowest_common_at_or_after(&shared.sched.background_pending, from)
        {
            let work = shared.sched.background[core].pop_front().expect("checked");
            if shared.sched.background[core].is_empty() {
                shared.sched.background_pending.remove(core);
            }
            self.assign(shared, ctx, core, WorkItem::Background { work });
            from = core + 1;
        }
        // Client requests go to any free core (lowest index first).
        while !shared.sched.client_queue.is_empty() {
            let Some(core) = shared.sched.free_cores.lowest() else {
                break;
            };
            let request = shared.sched.client_queue.pop_front().expect("checked");
            self.assign(shared, ctx, core, WorkItem::Client(request));
        }
    }
}

impl Scheduler {
    /// Reserves `core` for `item` and tells the core to begin its wake
    /// transition. The reservation (`pending_start`) makes the core non-free
    /// immediately, so one dispatch round never double-assigns.
    fn assign(
        &self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
        core: usize,
        item: WorkItem,
    ) {
        debug_assert!(
            shared.sched.core_is_free(&shared.soc, core),
            "free-core set out of sync: core {core} is not free"
        );
        let dst = shared.addrs.cores[core];
        let mut item = item;
        if let WorkItem::Client(request) = &mut item {
            if let Some(trace) = request.trace.as_mut() {
                trace.assigned = Some(ctx.now());
            }
        }
        shared.sched.pending_start[core] = Some(item);
        shared.sched.mark_occupied(core);
        ctx.emit_now(dst, ServerEvent::BeginWake);
    }
}
