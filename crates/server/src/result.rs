//! Results of one simulated server run.

use apc_power::units::Watts;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::{CoreCState, PackageCState};
use apc_telemetry::latency::LatencySummary;
use apc_telemetry::sketch::QuantileSketch;
use apc_telemetry::timeseries::TimeSeries;
use apc_trace::{ProfileReport, TraceLog};

/// Everything a run produces; the analysis crate and the benches reduce this
/// into the paper's tables and figures.
///
/// `PartialEq` compares every recorded metric exactly (no float tolerance):
/// two results compare equal only when the underlying simulations were
/// bit-identical, which is what the parallel-vs-sequential fleet tests
/// assert.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Platform configuration name (`Cshallow`, `Cdeep`, `CPC1A`).
    pub config_name: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Offered request rate (requests per second).
    pub offered_rate: f64,
    /// Measured duration.
    pub duration: SimDuration,
    /// Requests completed (client-visible only).
    pub completed_requests: u64,
    /// End-to-end latency summary (client-visible requests), derived from
    /// [`RunResult::latency_sketch`].
    pub latency: LatencySummary,
    /// The bounded-memory quantile sketch behind [`RunResult::latency`]:
    /// full latency distribution state, mergeable across runs (fleet /
    /// cluster / chain aggregation) and serializable (sweep-shard
    /// checkpoints). See [`apc_telemetry::sketch`] for the error contract.
    pub latency_sketch: QuantileSketch,
    /// Average SoC (package) power over the run.
    pub avg_soc_power: Watts,
    /// Average DRAM power over the run.
    pub avg_dram_power: Watts,
    /// Measured processor utilisation (busy core-time / total core-time).
    pub cpu_utilization: f64,
    /// Average per-core fraction of time in CC0.
    pub cc0_fraction: f64,
    /// Average per-core fraction of time in CC1 (or deeper shallow states).
    pub cc1_fraction: f64,
    /// Average per-core fraction of time in CC6.
    pub cc6_fraction: f64,
    /// Fraction of time every core was simultaneously idle (the PC1A
    /// opportunity under the baselines, the actual residency target under
    /// `CPC1A`).
    pub all_idle_fraction: f64,
    /// Fraction of time actually resident in PC1A.
    pub pc1a_residency: f64,
    /// Fraction of time actually resident in PC6.
    pub pc6_residency: f64,
    /// Number of completed PC1A entries.
    pub pc1a_transitions: u64,
    /// Number of PC1A entries aborted by racing wakeups.
    pub pc1a_aborted: u64,
    /// Number of PC6 entries.
    pub pc6_transitions: u64,
    /// Number of fully-idle periods observed (SoCWatch floor applied).
    pub idle_periods: u64,
    /// Fraction of fully-idle periods between 20 µs and 200 µs (Fig. 6(c)).
    pub idle_periods_20_200us: f64,
    /// Time-series telemetry (power, residency deltas, queue depth over
    /// simulated time), recorded when the configuration sets
    /// [`crate::config::ServerConfig::timeseries_interval`].
    pub timeseries: Option<TimeSeries>,
    /// Span log of head-sampled requests, recorded when the configuration
    /// sets [`crate::config::ServerConfig::trace`]. Purely observational:
    /// every other field is bit-identical with tracing on or off.
    pub trace: Option<TraceLog>,
    /// Engine self-profile (event-core counters), recorded when the
    /// configuration sets [`crate::config::ServerConfig::profile`]. Also
    /// zero-perturbation.
    pub profile: Option<ProfileReport>,
    /// Events the simulation dispatched to reach the horizon. Like
    /// [`RunResult::trace`] and [`RunResult::profile`], this belongs to the
    /// run's event loop: a single-server run reports it here, while the
    /// nodes of a multi-node cluster leave it 0 and the cluster-level result
    /// carries it.
    pub events_dispatched: u64,
    /// End of the simulated timeline.
    pub finished_at: SimTime,
}

impl RunResult {
    /// Average SoC + DRAM power.
    #[must_use]
    pub fn avg_total_power(&self) -> Watts {
        self.avg_soc_power + self.avg_dram_power
    }

    /// Achieved throughput in requests per second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed_requests as f64 / secs
        }
    }

    /// Power saving of this run relative to a baseline run (positive when
    /// this run uses less power).
    #[must_use]
    pub fn power_saving_vs(&self, baseline: &RunResult) -> f64 {
        let base = baseline.avg_total_power().as_f64();
        if base <= 0.0 {
            return 0.0;
        }
        1.0 - self.avg_total_power().as_f64() / base
    }

    /// Relative increase in mean latency vs. a baseline run.
    #[must_use]
    pub fn latency_overhead_vs(&self, baseline: &RunResult) -> f64 {
        let base = baseline.latency.mean.as_nanos();
        if base == 0 {
            return 0.0;
        }
        self.latency.mean.as_nanos() as f64 / base as f64 - 1.0
    }

    /// Residency fraction for a package C-state this run tracked.
    #[must_use]
    pub fn package_residency(&self, state: PackageCState) -> f64 {
        match state {
            PackageCState::PC1A => self.pc1a_residency,
            PackageCState::PC6 => self.pc6_residency,
            _ => 0.0,
        }
    }

    /// Average per-core residency fraction for a core C-state.
    #[must_use]
    pub fn core_residency(&self, state: CoreCState) -> f64 {
        match state {
            CoreCState::CC0 => self.cc0_fraction,
            CoreCState::CC1 | CoreCState::CC1E => self.cc1_fraction,
            CoreCState::CC6 => self.cc6_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(power: f64, mean_latency_us: u64) -> RunResult {
        RunResult {
            config_name: "Cshallow",
            workload: "memcached",
            offered_rate: 1000.0,
            duration: SimDuration::from_secs(1),
            completed_requests: 1000,
            latency: LatencySummary {
                count: 1000,
                mean: SimDuration::from_micros(mean_latency_us),
                p50: SimDuration::from_micros(mean_latency_us),
                p95: SimDuration::from_micros(mean_latency_us * 2),
                p99: SimDuration::from_micros(mean_latency_us * 3),
                p999: SimDuration::from_micros(mean_latency_us * 4),
                max: SimDuration::from_micros(mean_latency_us * 5),
            },
            latency_sketch: QuantileSketch::latency_default(),
            avg_soc_power: Watts(power),
            avg_dram_power: Watts(5.0),
            cpu_utilization: 0.1,
            cc0_fraction: 0.1,
            cc1_fraction: 0.9,
            cc6_fraction: 0.0,
            all_idle_fraction: 0.4,
            pc1a_residency: 0.0,
            pc6_residency: 0.0,
            pc1a_transitions: 0,
            pc1a_aborted: 0,
            pc6_transitions: 0,
            idle_periods: 100,
            idle_periods_20_200us: 0.6,
            timeseries: None,
            trace: None,
            profile: None,
            events_dispatched: 0,
            finished_at: SimTime::from_secs(1),
        }
    }

    #[test]
    fn derived_metrics() {
        let baseline = dummy(44.0, 120);
        let apc = dummy(30.0, 121);
        assert!((baseline.avg_total_power().as_f64() - 49.0).abs() < 1e-12);
        assert!((baseline.throughput() - 1000.0).abs() < 1e-9);
        let saving = apc.power_saving_vs(&baseline);
        assert!((saving - (1.0 - 35.0 / 49.0)).abs() < 1e-12);
        let overhead = apc.latency_overhead_vs(&baseline);
        assert!(overhead > 0.0 && overhead < 0.01);
        assert_eq!(baseline.package_residency(PackageCState::PC1A), 0.0);
        assert!((baseline.core_residency(CoreCState::CC1) - 0.9).abs() < 1e-12);
    }
}
