//! Per-core execution: wake transitions, request service, idle entry and
//! OS background noise.

use apc_core::apmu::WakeCause;
use apc_pmu::governor::IdleGovernor;
use apc_sim::component::SimulationContext;
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_soc::core::CoreId;
use apc_soc::cstate::CoreCState;
use apc_trace::{Span, SpanKind, TraceCtx, TraceState};
use apc_workloads::spec::BackgroundNoise;

use super::fabric;
use super::state::{ClusterState, ServerState};
use super::{ServerEvent, WorkItem};

/// Per-interrupt kernel processing overhead charged to the receiving core
/// before a client request's service starts.
pub const SOFTIRQ_OVERHEAD: SimDuration = SimDuration::from_micros(3);

/// Static name of a core C-state, for [`Span`] labels (spans hold
/// `&'static str`, so the `Display` impl cannot be used).
fn cstate_name(state: CoreCState) -> &'static str {
    match state {
        CoreCState::CC0 => "CC0",
        CoreCState::CC1 => "CC1",
        CoreCState::CC1E => "CC1E",
        CoreCState::CC6 => "CC6",
    }
}

/// One simulated core: executes assigned work, runs the OS idle governor
/// when the run queue drains, and fires the periodic background (OS) timer.
///
/// The node owns one executor per core and hands it the events that carry
/// its index. Each executor has a private RNG stream for noise sampling
/// and a private transition epoch: the epoch is bumped whenever a new
/// C-state transition starts, so completion events from superseded
/// transitions are recognised as stale and dropped.
pub(crate) struct CoreExec {
    node: usize,
    index: usize,
    governor: IdleGovernor,
    noise: Option<BackgroundNoise>,
    rng: SimRng,
    epoch: u64,
}

impl CoreExec {
    /// Creates the executor of core `index` of node `node`, drawing its
    /// noise from `rng`.
    #[must_use]
    pub(crate) fn new(
        node: usize,
        index: usize,
        governor: IdleGovernor,
        noise: Option<BackgroundNoise>,
        rng: SimRng,
    ) -> Self {
        CoreExec {
            node,
            index,
            governor,
            noise,
            rng,
            epoch: 0,
        }
    }

    fn core_id(&self) -> CoreId {
        CoreId(self.index)
    }

    pub(crate) fn on_background_tick(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let Some(noise) = &self.noise else {
            return;
        };
        let work = noise.sample_work(&mut self.rng);
        shared.sched.background[self.index].push_back(work);
        shared.sched.background_pending.insert(self.index);
        // Background work is initiated by a timer interrupt: it wakes the
        // package if necessary, then the scheduler places it. Unless the
        // package is in (or entering) a package C-state the wake would be a
        // no-op — skip the event (see `PackageController::wakeable`).
        if shared.package.wakeable() {
            ctx.emit_now(
                ctx.id(),
                ServerEvent::PackageWake {
                    cause: WakeCause::CoreInterrupt,
                },
            );
        }
        ctx.emit_now(ctx.id(), ServerEvent::Dispatch);
        // Arm the next tick.
        let next = ctx.now() + noise.sample_interval(&mut self.rng);
        shared.sched.next_background_at[self.index] = next;
        ctx.emit_self_at(next, ServerEvent::BackgroundTick { core: self.index });
    }

    pub(crate) fn on_begin_wake(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        // Read the C-state being exited before `begin_wakeup` replaces it, so
        // a traced request's wake span names the state whose exit latency it
        // actually paid.
        let leaving = shared.soc.cores().core(self.core_id()).cstate();
        let exit = shared.soc.cores_mut().begin_wakeup(self.core_id());
        if let Some(WorkItem::Client(request)) = shared.sched.pending_start[self.index].as_mut() {
            if let Some(trace) = request.trace.as_mut() {
                trace.wake_start = Some(now);
                trace.wake_cstate = Some(cstate_name(leaving));
            }
        }
        shared.telemetry.idle_tracker.core_active(now);
        self.epoch += 1;
        let done = ServerEvent::WakeDone {
            core: self.index,
            epoch: self.epoch,
        };
        ctx.emit_self(exit, done);
    }

    pub(crate) fn on_wake_done(
        &mut self,
        epoch: u64,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if self.epoch != epoch {
            return;
        }
        let now = ctx.now();
        shared.soc.cores_mut().complete_transition(self.core_id());
        shared
            .telemetry
            .core_residency
            .transition(self.core_id(), now, CoreCState::CC0);
        // Leaving ACC1: the first core to run again clears AllowL0s (the
        // package controller owns that edge; the edge only exists under the
        // PC1A policy, and only while the APMU actually sits in ACC1 — any
        // other state handles `CoreActive` as a no-op, so skip the event).
        if shared.package.acc1_armed() {
            ctx.emit_now(ctx.id(), ServerEvent::CoreActive);
        }
        let item = shared.sched.pending_start[self.index]
            .take()
            .expect("a waking core must have pending work");
        self.start_service(item, shared, ctx);
    }

    fn start_service(
        &mut self,
        mut item: WorkItem,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if let WorkItem::Client(request) = &mut item {
            if let Some(trace) = request.trace.as_mut() {
                trace.service_start = Some(ctx.now());
            }
        }
        let service = match &item {
            WorkItem::Client(r) => r.service + SOFTIRQ_OVERHEAD,
            WorkItem::Background { work } => *work,
        };
        shared.sched.start_running(self.index, item);
        ctx.emit_self(service, ServerEvent::ServiceDone { core: self.index });
    }

    /// Takes the whole shared state: a finished chain RPC's completion
    /// report crosses the cluster's network fabric, which lives outside any
    /// single node.
    pub(crate) fn on_service_done(
        &mut self,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        let node = &mut shared.nodes[self.node];
        let item = node
            .sched
            .take_running(self.index)
            .expect("core had no running work");
        let mut leaf_report = None;
        let mut finished_trace = None;
        match item {
            WorkItem::Client(request) => {
                shared.routing.finish_request(self.node);
                let server_side = now.saturating_since(request.arrival);
                let total = server_side + node.network_rtt;
                if request.class.is_client_visible() {
                    node.telemetry.latency.record(total.as_nanos());
                }
                node.telemetry.busy_core_time += request.service + SOFTIRQ_OVERHEAD;
                // A chain-tagged RPC reports its completion to the chain
                // coordinator, which joins it into the fan-out and issues
                // the next tier (or records the chain's end-to-end latency).
                leaf_report = request.chain;
                finished_trace = request.trace;
            }
            WorkItem::Background { work } => {
                node.telemetry.busy_core_time += work;
            }
        }
        // A chain RPC's report crosses the network fabric back to the
        // coordinator endpoint; without a fabric (or with an instantaneous
        // one) the zero delay makes this the exact pre-fabric `emit_now`.
        let wire_back = leaf_report.map(|tag| {
            let delay = fabric::report_delay(shared, self.node, now);
            ctx.emit(
                tag.coordinator,
                delay,
                ServerEvent::ChainLeafDone { chain: tag.chain },
            );
            delay
        });
        if let Some(trace_ctx) = finished_trace {
            if let Some(trace) = shared.trace.as_mut() {
                self.push_request_spans(trace, &trace_ctx, now, wire_back);
            }
        }
        let shared = &mut shared.nodes[self.node];
        // Pick up more work without sleeping if any is available.
        if let Some(mut next) = shared.sched.client_queue.pop_front() {
            // Queue exit without a scheduler round: the already-awake core
            // pops the next request directly, so stamp its queue exit here.
            if let Some(trace) = next.trace.as_mut() {
                trace.assigned = Some(now);
            }
            self.start_service(WorkItem::Client(next), shared, ctx);
            return;
        }
        if let Some(work) = shared.sched.background[self.index].pop_front() {
            if shared.sched.background[self.index].is_empty() {
                shared.sched.background_pending.remove(self.index);
            }
            self.start_service(WorkItem::Background { work }, shared, ctx);
            return;
        }
        self.begin_idle(now, shared, ctx);
    }

    /// Turns a completed request's stamps into the causal span chain
    /// {wire-out, coalesce, queue, wake, service} on this node, plus the
    /// root span (plain requests) or the wire-back span (chain RPCs, whose
    /// report takes `wire_back` to reach the coordinator, which owns their
    /// root/tier/join spans).
    ///
    /// Missing stamps inherit the previous boundary, degrading skipped
    /// stages to zero-length spans, so the chain is always contiguous:
    /// the five pipeline spans sum exactly to `now - arrival`.
    fn push_request_spans(
        &self,
        trace: &mut TraceState,
        trace_ctx: &TraceCtx,
        now: SimTime,
        wire_back: Option<apc_sim::SimDuration>,
    ) {
        let node = self.node as u32;
        let lane = 1 + self.index as u32;
        let arrival = trace_ctx.arrival;
        let deposited = trace_ctx.deposited.unwrap_or(arrival);
        let delivered = trace_ctx.delivered.unwrap_or(deposited);
        let assigned = trace_ctx.assigned.unwrap_or(delivered);
        let wake_start = trace_ctx.wake_start.unwrap_or(assigned);
        let service_start = trace_ctx.service_start.unwrap_or(wake_start);
        let span = |kind, label, lane, start, end| Span {
            trace: trace_ctx.trace,
            kind,
            label,
            node,
            lane,
            start,
            end,
        };
        trace
            .log
            .push(span(SpanKind::WireOut, "", 0, arrival, deposited));
        trace
            .log
            .push(span(SpanKind::Coalesce, "", 0, deposited, delivered));
        trace
            .log
            .push(span(SpanKind::Queue, "", 0, delivered, assigned));
        let cstate = trace_ctx.wake_cstate.unwrap_or("CC0");
        trace.log.push(span(
            SpanKind::Wake,
            cstate,
            lane,
            wake_start,
            service_start,
        ));
        trace
            .log
            .push(span(SpanKind::Service, "", lane, service_start, now));
        trace.log.push(match wire_back {
            Some(delay) => span(SpanKind::WireBack, "", 0, now, now + delay),
            None => span(SpanKind::Root, "", 0, arrival, now),
        });
    }

    /// Starts the idle entry; `InitIdle` puts a freshly booted core to
    /// sleep this way.
    pub(crate) fn begin_idle(
        &mut self,
        now: SimTime,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        // Predicted idle: the time until the next event the OS knows about —
        // this core's background timer or the NIC's armed coalesced
        // delivery (open-loop client arrivals stay unpredictable). The bound
        // is shared by every arrival path, so a core idling while a fan-out
        // sibling's request sits in the coalescing buffer will not pick CC6
        // against a known-imminent interrupt.
        let predicted = shared.predicted_idle_bound(self.index, now);
        let target = self.governor.select(predicted);
        let entry = shared.soc.cores_mut().begin_idle(self.core_id(), target);
        shared.telemetry.idle_tracker.core_idle(now);
        // The core can accept new work from this point on (an assignment
        // would abort the idle entry): tell the scheduler's free-core index.
        shared.sched.mark_free(self.index);
        self.epoch += 1;
        let entered = ServerEvent::IdleEntered {
            core: self.index,
            epoch: self.epoch,
        };
        ctx.emit_self(entry, entered);
    }

    pub(crate) fn on_idle_entered(
        &mut self,
        epoch: u64,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if self.epoch != epoch {
            return;
        }
        let now = ctx.now();
        shared.soc.cores_mut().complete_transition(self.core_id());
        let state = shared.soc.cores().core(self.core_id()).cstate();
        shared
            .telemetry
            .core_residency
            .transition(self.core_id(), now, state);
        // Package-level opportunity check (PC1A / PC6) is the package
        // controller's call to make; skip the event when it cannot matter.
        if shared.package.wants_all_idle_check(&shared.soc) {
            ctx.emit_now(ctx.id(), ServerEvent::AllIdleCheck);
        }
    }
}
