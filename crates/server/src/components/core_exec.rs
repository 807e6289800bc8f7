//! Per-core execution component: wake transitions, request service, idle
//! entry and OS background noise.

use apc_core::apmu::WakeCause;
use apc_pmu::config::PackagePolicy;
use apc_pmu::governor::IdleGovernor;
use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::SimTime;
use apc_soc::core::CoreId;
use apc_soc::cstate::CoreCState;
use apc_trace::{Span, SpanKind, TraceCtx, TraceState};
use apc_workloads::spec::BackgroundNoise;

use super::fabric;
use super::state::{ClusterState, ServerState};
use super::{ServerEvent, WorkItem};

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
/// Each instance is registered as its own component (`core 0` … `core N-1`,
/// name-prefixed per node in a cluster) with a private RNG stream for noise
/// sampling and a private transition epoch: the epoch is bumped whenever a
/// new C-state transition starts, so completion events from superseded
/// transitions are recognised as stale and dropped.
pub struct CoreExec {
    node: usize,
    index: usize,
    governor: IdleGovernor,
    noise: Option<BackgroundNoise>,
    epoch: u64,
}

impl CoreExec {
    /// Creates the execution component for core `index` of node `node`.
    #[must_use]
    pub fn new(
        node: usize,
        index: usize,
        governor: IdleGovernor,
        noise: Option<BackgroundNoise>,
    ) -> Self {
        CoreExec {
            node,
            index,
            governor,
            noise,
            epoch: 0,
        }
    }

    fn core_id(&self) -> CoreId {
        CoreId(self.index)
    }

    fn on_background_tick(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let Some(noise) = self.noise.clone() else {
            return;
        };
        let work = noise.sample_work(ctx.rng());
        shared.sched.background[self.index].push_back(work);
        shared.sched.background_pending.insert(self.index);
        // Background work is initiated by a timer interrupt: it wakes the
        // package if necessary, then the scheduler places it. Unless the
        // package is in (or entering) a package C-state the wake would be a
        // no-op — skip the event (see `PackageMirror::wakeable`).
        if shared.pkg.wakeable {
            ctx.emit_now(
                shared.addrs.package,
                ServerEvent::PackageWake {
                    cause: WakeCause::CoreInterrupt,
                },
            );
        }
        ctx.emit_now(shared.addrs.scheduler, ServerEvent::Dispatch);
        // Arm the next tick.
        let next = ctx.now() + noise.sample_interval(ctx.rng());
        shared.sched.next_background_at[self.index] = next;
        ctx.emit_self_at(next, ServerEvent::BackgroundTick);
    }

    fn on_begin_wake(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        // Read the C-state being exited before `begin_wakeup` replaces it, so
        // a traced request's wake span names the state whose exit latency it
        // actually paid.
        let leaving = shared.soc.cores().core(self.core_id()).cstate();
        let exit = shared.soc.cores_mut().begin_wakeup(self.core_id(), now);
        if let Some(WorkItem::Client(request)) = shared.sched.pending_start[self.index].as_mut() {
            if let Some(trace) = request.trace.as_mut() {
                trace.wake_start = Some(now);
                trace.wake_cstate = Some(cstate_name(leaving));
            }
        }
        shared.telemetry.idle_tracker.core_active(now);
        self.epoch += 1;
        ctx.emit_self(exit, ServerEvent::WakeDone { epoch: self.epoch });
    }

    fn on_wake_done(
        &mut self,
        epoch: u64,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if self.epoch != epoch {
            return;
        }
        let now = ctx.now();
        shared
            .soc
            .cores_mut()
            .complete_transition(self.core_id(), now);
        shared
            .telemetry
            .core_residency
            .transition(self.core_id(), now, CoreCState::CC0);
        // Leaving ACC1: the first core to run again clears AllowL0s (the
        // package controller owns that edge; the edge only exists under the
        // PC1A policy, and only while the APMU actually sits in ACC1 — any
        // other state handles `CoreActive` as a no-op, so skip the event).
        if shared.pkg.acc1_armed {
            ctx.emit_now(shared.addrs.package, ServerEvent::CoreActive);
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
            WorkItem::Client(r) => r.service + shared.config.softirq_overhead,
            WorkItem::Background { work } => *work,
        };
        shared.sched.start_running(self.index, item);
        ctx.emit_self(service, ServerEvent::ServiceDone);
    }

    fn on_service_done(
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
                    node.telemetry.latency.record(total);
                    node.telemetry.completed_requests += 1;
                }
                node.telemetry.busy_core_time += request.service + node.config.softirq_overhead;
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

    fn begin_idle(
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
        let entry = shared
            .soc
            .cores_mut()
            .begin_idle(self.core_id(), now, target);
        shared.telemetry.idle_tracker.core_idle(now);
        // The core can accept new work from this point on (an assignment
        // would abort the idle entry): tell the scheduler's free-core index.
        shared.sched.mark_free(self.index);
        self.epoch += 1;
        ctx.emit_self(entry, ServerEvent::IdleEntered { epoch: self.epoch });
    }

    fn on_idle_entered(
        &mut self,
        epoch: u64,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if self.epoch != epoch {
            return;
        }
        let now = ctx.now();
        shared
            .soc
            .cores_mut()
            .complete_transition(self.core_id(), now);
        let state = shared.soc.cores().core(self.core_id()).cstate();
        shared
            .telemetry
            .core_residency
            .transition(self.core_id(), now, state);
        // Package-level opportunity check (PC1A / PC6) is the package
        // controller's call to make. Skip the event when it cannot matter:
        // no package policy, or (PC1A) some core is still awake — the
        // controller would re-check and bail anyway.
        let emit_check = match shared.config.platform.package_policy {
            PackagePolicy::None => false,
            PackagePolicy::Pc1a => shared.soc.cores().all_in_cc1_or_deeper(),
            PackagePolicy::Pc6 => true,
        };
        if emit_check {
            ctx.emit_now(shared.addrs.package, ServerEvent::AllIdleCheck);
        }
    }
}

impl EventHandler<ServerEvent, ClusterState> for CoreExec {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        // ServiceDone keeps the whole shared state in reach: a finished
        // chain RPC's completion report crosses the cluster's network
        // fabric, which lives outside any single node.
        if matches!(event, ServerEvent::ServiceDone) {
            return self.on_service_done(shared, ctx);
        }
        let node = &mut shared.nodes[self.node];
        match event {
            ServerEvent::BackgroundTick => self.on_background_tick(node, ctx),
            ServerEvent::InitIdle => self.begin_idle(ctx.now(), node, ctx),
            ServerEvent::BeginWake => self.on_begin_wake(node, ctx),
            ServerEvent::WakeDone { epoch } => self.on_wake_done(epoch, node, ctx),
            ServerEvent::IdleEntered { epoch } => self.on_idle_entered(epoch, node, ctx),
            other => unreachable!("core {} received unexpected event {other:?}", self.index),
        }
    }
}
