//! Periodic time-series sampler.
//!
//! When [`crate::config::ServerConfig::timeseries_interval`] is set, each
//! node owns one `TimeSeriesSampler`. The sampler re-arms itself every
//! interval and appends one
//! [`apc_telemetry::timeseries::TimeSeriesSample`] to the node's
//! [`TelemetryState::timeseries`](super::state::TelemetryState::timeseries):
//! instantaneous SoC power, queue depth, busy cores, the current package
//! C-state and the per-state package residency *deltas* since the previous
//! sample. The power is the SoC part of the level the energy meter
//! integrates ([`ServerState::power_level`](super::state::ServerState::power_level)),
//! so one power level always prints the same digits.
//!
//! The sampler is read-only with respect to simulation behaviour: it draws
//! no randomness and emits only its own re-arm event, so enabling it never
//! changes request-level outcomes (completions, latencies, transitions) of
//! an otherwise identical run.

use apc_sim::component::SimulationContext;
use apc_sim::SimDuration;
use apc_soc::cstate::PackageCState;
use apc_telemetry::timeseries::TimeSeriesSample;

use super::state::ServerState;
use super::ServerEvent;

/// The four package states the time series tracks, in export order.
const TRACKED_STATES: [PackageCState; 4] = [
    PackageCState::PC0,
    PackageCState::PC0Idle,
    PackageCState::PC1A,
    PackageCState::PC6,
];

/// Samples one node's observable state at a fixed interval.
pub(crate) struct TimeSeriesSampler {
    every: SimDuration,
    /// Cumulative per-state residency at the previous sample, in
    /// [`TRACKED_STATES`] order (deltas are differences of cumulatives).
    prev_residency: [SimDuration; 4],
}

impl TimeSeriesSampler {
    /// Creates a sampler sampling every `every`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero — a zero-interval sampler would re-arm at
    /// the current instant forever (the config builder filters this out).
    #[must_use]
    pub(crate) fn new(every: SimDuration) -> Self {
        assert!(!every.is_zero(), "time-series interval must be positive");
        TimeSeriesSampler {
            every,
            prev_residency: [SimDuration::ZERO; 4],
        }
    }

    /// The `TimeSeriesSample` event: appends one sample of `node`, whose
    /// outstanding client requests are `queue_depth`, and re-arms.
    pub(crate) fn on_sample(
        &mut self,
        node: &mut ServerState,
        queue_depth: usize,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();

        let busy_cores = node.sched.busy_cores();
        let soc_nanowatts = node.power_level().soc_total();

        let residency = &node.telemetry.package_residency;
        let mut cumulative = [SimDuration::ZERO; 4];
        let mut deltas = [SimDuration::ZERO; 4];
        for (i, state) in TRACKED_STATES.into_iter().enumerate() {
            cumulative[i] = residency.time_in_at(state, now);
            deltas[i] = cumulative[i].saturating_sub(self.prev_residency[i]);
        }
        let sample = TimeSeriesSample {
            at: now,
            soc_power_w: soc_nanowatts as f64 / 1e9,
            queue_depth,
            busy_cores,
            package_state: residency.current(),
            pc0_delta: deltas[0],
            pc0_idle_delta: deltas[1],
            pc1a_delta: deltas[2],
            pc6_delta: deltas[3],
        };
        self.prev_residency = cumulative;
        node.telemetry
            .timeseries
            .as_mut()
            .expect("a node built with a sampler has a time series in telemetry")
            .push(sample);
        ctx.emit_self(self.every, ServerEvent::TimeSeriesSample);
    }
}
