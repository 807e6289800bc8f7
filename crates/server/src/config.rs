//! Full-system experiment configuration.

use apc_pmu::config::PlatformConfig;
use apc_power::model::PowerModel;
use apc_sim::SimDuration;
use apc_soc::topology::SocConfig;
use apc_trace::TraceConfig;
use apc_workloads::spec::BackgroundNoise;

/// Configuration of one simulated server run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Socket topology (defaults to the Xeon Silver 4114 reference).
    pub soc: SocConfig,
    /// Platform power-management configuration (`Cshallow`, `Cdeep`, `CPC1A`).
    pub platform: PlatformConfig,
    /// Calibrated power model.
    pub power: PowerModel,
    /// OS background noise model (`None` disables background wakeups).
    pub noise: Option<BackgroundNoise>,
    /// NIC interrupt-coalescing window: requests arriving within this window
    /// of the first buffered request are delivered together by one interrupt.
    pub nic_coalescing: SimDuration,
    /// Per-interrupt kernel processing overhead charged to the receiving
    /// core before request service starts.
    pub softirq_overhead: SimDuration,
    /// Simulated measurement duration.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// When set, a time-series sampler component records power, package
    /// residency deltas and queue depth at this interval, delivered in the
    /// run result's `timeseries` field (off by default: series cost memory).
    pub timeseries_interval: Option<SimDuration>,
    /// When set, head-sampled requests carry a span-trace context through the
    /// pipeline and the run result's `trace` field delivers the span log.
    /// Zero-perturbation: results are bit-identical with tracing on or off.
    /// In a cluster, the *first* node's config decides for the whole cluster.
    pub trace: Option<TraceConfig>,
    /// When `true`, the run result's `profile` field delivers the engine
    /// self-profile (event-core counters, per-event-kind counts). Also
    /// zero-perturbation. In a cluster, the first node's config decides.
    pub profile: bool,
}

impl ServerConfig {
    /// The baseline the paper recommends against but datacenters use:
    /// CC1-only, no package C-states.
    #[must_use]
    pub fn c_shallow() -> Self {
        ServerConfig::with_platform(PlatformConfig::c_shallow())
    }

    /// All C-states enabled (CC6 + PC6).
    #[must_use]
    pub fn c_deep() -> Self {
        ServerConfig::with_platform(PlatformConfig::c_deep())
    }

    /// `Cshallow` plus the APC hardware (PC1A available).
    #[must_use]
    pub fn c_pc1a() -> Self {
        ServerConfig::with_platform(PlatformConfig::c_pc1a())
    }

    /// Builds a configuration around an arbitrary platform configuration.
    #[must_use]
    fn with_platform(platform: PlatformConfig) -> Self {
        ServerConfig {
            soc: SocConfig::xeon_silver_4114(),
            platform,
            power: PowerModel::skx_calibrated(),
            noise: Some(BackgroundNoise::default_server()),
            nic_coalescing: SimDuration::from_micros(30),
            softirq_overhead: SimDuration::from_micros(3),
            duration: SimDuration::from_millis(500),
            seed: 0x5eed,
            timeseries_interval: None,
            trace: None,
            profile: false,
        }
    }

    /// Shortens the measurement window (useful for unit tests).
    #[must_use]
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables time-series telemetry (power, residency deltas, queue depth)
    /// at the given sampling interval; the series is returned in
    /// [`RunResult::timeseries`](crate::result::RunResult::timeseries).
    /// A zero interval is treated as disabled.
    #[must_use]
    pub fn with_timeseries(mut self, every: SimDuration) -> Self {
        self.timeseries_interval = Some(every).filter(|d| !d.is_zero());
        self
    }

    /// Enables request span tracing; the log is returned in
    /// [`RunResult::trace`](crate::result::RunResult::trace) (and the
    /// cluster/chain equivalents).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Enables the engine self-profiler; the report is returned in
    /// [`RunResult::profile`](crate::result::RunResult::profile) (and the
    /// cluster/chain equivalents).
    #[must_use]
    pub fn with_profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_pmu::config::PackagePolicy;

    #[test]
    fn presets_carry_their_platform_policy() {
        assert_eq!(
            ServerConfig::c_shallow().platform.package_policy,
            PackagePolicy::None
        );
        assert_eq!(
            ServerConfig::c_deep().platform.package_policy,
            PackagePolicy::Pc6
        );
        assert_eq!(
            ServerConfig::c_pc1a().platform.package_policy,
            PackagePolicy::Pc1a
        );
    }

    #[test]
    fn builder_helpers_apply() {
        let cfg = ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(10))
            .with_seed(7);
        assert_eq!(cfg.duration, SimDuration::from_millis(10));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.soc.cores, 10);
    }
}
