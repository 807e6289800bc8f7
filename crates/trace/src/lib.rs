//! # `apc-trace` — zero-perturbation observability
//!
//! Request span tracing and engine self-profiling for the APC simulation
//! stack. The crate owns the *data model* only — the span/stamp types that
//! ride inside requests, the bounded log they are collected into, and the
//! profiler report surfaced by run results. The server crate does the
//! stamping; `apc-analysis` renders the Chrome trace-event JSON.
//!
//! ## Determinism contract
//!
//! Tracing and profiling are pure observers:
//!
//! * sampling decisions draw from a **dedicated forked RNG stream**
//!   (`"trace-sampler"`), so enabling tracing never advances any component
//!   or load-generator stream;
//! * span stamps live in an `Option<TraceCtx>` carried *by value* inside the
//!   request — no behavioural branch in the simulation inspects it;
//! * profiler counters are plain monotonic integers incremented alongside
//!   existing event-queue operations.
//!
//! Consequently a run with tracing/profiling enabled produces bit-identical
//! simulation results to the same run with them disabled.
//!
//! ```
//! use apc_sim::SimRng;
//! use apc_trace::{HeadSampler, TraceConfig, TraceState};
//!
//! let config = TraceConfig::new(4);
//! let mut trace = TraceState::new(config, SimRng::from_seed(7).fork("trace-sampler"));
//! let picks: Vec<bool> = (0..8).map(|_| trace.sampler.sample()).collect();
//! // Deterministic for a fixed seed, roughly 1-in-4.
//! assert_eq!(picks, {
//!     let mut again = HeadSampler::new(4, SimRng::from_seed(7).fork("trace-sampler"));
//!     (0..8).map(|_| again.sample()).collect::<Vec<bool>>()
//! });
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;

use apc_sim::engine::QueueCounters;
use apc_sim::rng::SimRng;
use apc_sim::time::{SimDuration, SimTime};

/// Configuration for request span tracing, normally parsed from a `[trace]`
/// spec table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Head-sampling rate: one in `sample_every` root requests is traced.
    /// A value of `1` (or `0`) traces every request.
    pub sample_every: u64,
    /// Upper bound on retained spans; further spans are counted as dropped.
    pub max_spans: usize,
}

/// Default bound on retained spans when a spec does not override it.
pub const DEFAULT_MAX_SPANS: usize = 65_536;

impl TraceConfig {
    /// Creates a config sampling one in `sample_every` requests with the
    /// [`DEFAULT_MAX_SPANS`] bound.
    pub fn new(sample_every: u64) -> Self {
        Self {
            sample_every,
            max_spans: DEFAULT_MAX_SPANS,
        }
    }

    /// Replaces the retained-span bound.
    pub fn with_max_spans(mut self, max_spans: usize) -> Self {
        self.max_spans = max_spans;
        self
    }
}

/// Per-request trace context, carried by value inside a sampled request.
///
/// Components stamp the context as the request moves through the pipeline;
/// the final service-completion handler turns the stamps into [`Span`]s.
/// Stamps are `Option`s so paths that skip a stage (e.g. a core that was
/// already awake) degrade to zero-length spans instead of lying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace identifier: the root request id, or the chain id for chain RPCs.
    pub trace: u64,
    /// When the root entered the system (balancer routing / chain tier issue).
    pub arrival: SimTime,
    /// When the request was deposited into the destination NIC buffer.
    pub deposited: Option<SimTime>,
    /// When NIC coalescing released it into the scheduler queue.
    pub delivered: Option<SimTime>,
    /// When the scheduler handed it to a core (queue exit).
    pub assigned: Option<SimTime>,
    /// When the core began its wakeup transition for this request.
    pub wake_start: Option<SimTime>,
    /// Name of the C-state the core left to serve this request.
    pub wake_cstate: Option<&'static str>,
    /// When service execution began on the core.
    pub service_start: Option<SimTime>,
}

impl TraceCtx {
    /// Starts a trace context for root `trace` arriving at `arrival`.
    pub fn root(trace: u64, arrival: SimTime) -> Self {
        Self {
            trace,
            arrival,
            deposited: None,
            delivered: None,
            assigned: None,
            wake_start: None,
            wake_cstate: None,
            service_start: None,
        }
    }
}

/// The pipeline stage a [`Span`] covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Wire transit from the routing point to the destination NIC.
    WireOut,
    /// Wait inside the NIC coalescing buffer.
    Coalesce,
    /// Wait in the scheduler run queue.
    Queue,
    /// Core wakeup (C-state exit) latency; labelled with the C-state name.
    Wake,
    /// Service execution on the core.
    Service,
    /// Wire transit of the completion report back to the chain coordinator.
    WireBack,
    /// Wait at the chain coordinator for sibling leaves of the same tier.
    Join,
    /// One chain tier: issue to last sibling joined.
    Tier,
    /// Whole root request / chain, end to end.
    Root,
}

impl SpanKind {
    /// Stable lowercase name used as the Chrome trace-event category.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::WireOut => "wire-out",
            SpanKind::Coalesce => "coalesce",
            SpanKind::Queue => "queue",
            SpanKind::Wake => "wake",
            SpanKind::Service => "service",
            SpanKind::WireBack => "wire-back",
            SpanKind::Join => "join",
            SpanKind::Tier => "tier",
            SpanKind::Root => "root",
        }
    }
}

/// One closed interval of a traced request's life, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to (root request id / chain id).
    pub trace: u64,
    /// Stage covered.
    pub kind: SpanKind,
    /// Extra attribution: the C-state name for [`SpanKind::Wake`] spans,
    /// `""` otherwise.
    pub label: &'static str,
    /// Node the span executed on (chain coordinators use the node count as a
    /// pseudo-node id).
    pub node: u32,
    /// Lane within the node: `0` for NIC/queue spans, `1 + core` for
    /// wake/service spans, the sibling index for join spans.
    pub lane: u32,
    /// Inclusive start of the interval.
    pub start: SimTime,
    /// Exclusive end of the interval; `end >= start` always holds.
    pub end: SimTime,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// Bounded, insertion-ordered collection of [`Span`]s.
///
/// Once `max_spans` spans are retained further pushes only increment
/// [`TraceLog::dropped`], keeping memory bounded on huge runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    spans: Vec<Span>,
    max_spans: usize,
    dropped: u64,
}

impl TraceLog {
    /// Creates an empty log retaining at most `max_spans` spans.
    pub fn new(max_spans: usize) -> Self {
        Self {
            spans: Vec::new(),
            max_spans,
            dropped: 0,
        }
    }

    /// Records `span`, or counts it as dropped when the log is full.
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < self.max_spans {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Retained spans, in emission order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// True when no span was retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends every span of `other` (respecting this log's bound).
    pub fn absorb(&mut self, other: &TraceLog) {
        for span in &other.spans {
            self.push(*span);
        }
        self.dropped += other.dropped;
    }
}

/// Deterministic 1-in-N head sampler drawing from a dedicated RNG fork.
///
/// The stream is forked once (label `"trace-sampler"`) from the experiment
/// seed, so draws never perturb component or load-generator streams.
#[derive(Debug, Clone)]
pub struct HeadSampler {
    every: u64,
    rng: SimRng,
}

impl HeadSampler {
    /// Creates a sampler keeping one in `every` roots (`every <= 1` keeps all).
    pub fn new(every: u64, rng: SimRng) -> Self {
        Self { every, rng }
    }

    /// Draws the head-sampling decision for the next root request.
    pub fn sample(&mut self) -> bool {
        if self.every <= 1 {
            return true;
        }
        self.rng.next_u64() % self.every == 0
    }
}

/// Live tracing state owned by the experiment driver while a run executes.
#[derive(Debug, Clone)]
pub struct TraceState {
    /// Head-sampling decision source.
    pub sampler: HeadSampler,
    /// Collected spans.
    pub log: TraceLog,
}

impl TraceState {
    /// Builds the state for `config`, drawing decisions from `rng`.
    pub fn new(config: TraceConfig, rng: SimRng) -> Self {
        Self {
            sampler: HeadSampler::new(config.sample_every, rng),
            log: TraceLog::new(config.max_spans),
        }
    }

    /// Consumes the state, returning the collected log.
    pub fn into_log(self) -> TraceLog {
        self.log
    }
}

/// Scheduled/dispatched counts for one event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKindCount {
    /// Stable event-kind name (e.g. `"ServiceDone"`).
    pub kind: &'static str,
    /// Events of this kind scheduled.
    pub scheduled: u64,
    /// Events of this kind dispatched.
    pub dispatched: u64,
}

/// Engine self-profile surfaced by `RunResult` / `ClusterResult` /
/// `ChainResult` when profiling is enabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Aggregate event-core counters.
    pub engine: QueueCounters,
    /// Per-event-kind counters (empty if the kind classifier was not enabled).
    pub events: Vec<EventKindCount>,
}

impl ProfileReport {
    /// Drops every event kind that never appeared, keeping reports short.
    pub fn retain_active_kinds(&mut self) {
        self.events
            .retain(|k| k.scheduled != 0 || k.dispatched != 0);
    }
}

/// The table keeps a `cancelled` column for its readers; events are never
/// cancelled, so it always reads 0.
impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "engine: scheduled {} dispatched {} cancelled 0 | level0 batches {} \
             (events {}, max {}) overflow hits {}",
            self.engine.scheduled,
            self.engine.dispatched,
            self.engine.level0_batches,
            self.engine.batched_events,
            self.engine.max_batch,
            self.engine.overflow_hits,
        )?;
        for kind in &self.events {
            writeln!(
                f,
                "  {:<18} scheduled {:>10} dispatched {:>10} cancelled {:>10}",
                kind.kind, kind.scheduled, kind.dispatched, 0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_respects_rate_one() {
        let mut always = HeadSampler::new(1, SimRng::from_seed(3).fork("trace-sampler"));
        assert!((0..32).all(|_| always.sample()));

        let draws = |seed: u64| {
            let mut s = HeadSampler::new(8, SimRng::from_seed(seed).fork("trace-sampler"));
            (0..256).map(|_| s.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let kept = draws(7).iter().filter(|&&b| b).count();
        assert!(kept > 0 && kept < 256, "1-in-8 sampling kept {kept} of 256");
    }

    #[test]
    fn trace_log_bounds_memory_and_counts_drops() {
        let span = Span {
            trace: 1,
            kind: SpanKind::Service,
            label: "",
            node: 0,
            lane: 1,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(10),
        };
        let mut log = TraceLog::new(2);
        for _ in 0..5 {
            log.push(span);
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.dropped(), 3);

        let mut merged = TraceLog::new(3);
        merged.absorb(&log);
        assert_eq!(merged.spans().len(), 2);
        assert_eq!(merged.dropped(), 3);
    }

    #[test]
    fn span_duration_and_kind_names() {
        let span = Span {
            trace: 9,
            kind: SpanKind::Wake,
            label: "CC6",
            node: 2,
            lane: 3,
            start: SimTime::from_nanos(100),
            end: SimTime::from_nanos(350),
        };
        assert_eq!(span.duration(), SimDuration::from_nanos(250));
        assert_eq!(SpanKind::Wake.name(), "wake");
        assert_eq!(SpanKind::WireBack.name(), "wire-back");
    }

    #[test]
    fn profile_report_display_and_retain() {
        let mut report = ProfileReport {
            engine: QueueCounters {
                scheduled: 3,
                dispatched: 3,
                ..Default::default()
            },
            events: vec![
                EventKindCount {
                    kind: "ServiceDone",
                    scheduled: 2,
                    dispatched: 2,
                },
                EventKindCount {
                    kind: "Unused",
                    scheduled: 0,
                    dispatched: 0,
                },
            ],
        };
        report.retain_active_kinds();
        assert_eq!(report.events.len(), 1);
        let text = report.to_string();
        assert!(text.contains("ServiceDone"));
    }
}
