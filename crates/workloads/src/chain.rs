//! Per-tier service-time specifications for multi-tier request chains.
//!
//! Microservice datacenters rarely serve a request on one machine: a
//! frontend parses it, fans out to N storage leaves (the memcached
//! scatter-gather pattern) and joins the responses, so end-to-end latency is
//! decided by the *slowest* leaf and wake latency compounds at every tier.
//! A [`TierService`] describes the CPU work of one such tier as a
//! declarative, `Send + Clone` value — the chain counterpart of
//! [`crate::spec::ClassMix`], which owns boxed distributions and therefore
//! cannot cross the thread boundary of the parallel experiment pools.
//!
//! The shape of the chain (how many tiers, the fan-out width per tier) lives
//! with the coordinator that executes it (`apc-server`'s request-chain
//! layer); this module only owns the per-tier *work* model.

use apc_sim::dist::{Distribution, LogNormal};
use apc_sim::rng::SimRng;
use apc_sim::SimDuration;

use crate::request::RequestClass;

/// The CPU service-time specification of one tier of a request chain.
///
/// Service times are log-normally distributed (the same family the
/// single-server workload mixes use), parameterised by mean and coefficient
/// of variation so the spec stays plain `Clone + PartialEq` data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierService {
    /// The tier's request class (what the per-node telemetry records).
    pub class: RequestClass,
    /// Mean CPU service time, in nanoseconds.
    pub mean_service_ns: f64,
    /// Coefficient of variation of the service time.
    pub cv: f64,
}

impl TierService {
    /// A tier serving `class` with the given mean service time and
    /// coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics when the mean is not positive or the CV is negative — a
    /// non-positive service time has no physical meaning and would silently
    /// produce empty tiers.
    #[must_use]
    pub fn new(class: RequestClass, mean_service: SimDuration, cv: f64) -> Self {
        assert!(
            !mean_service.is_zero(),
            "a chain tier needs a positive mean service time"
        );
        assert!(cv >= 0.0, "service-time CV must be non-negative");
        TierService {
            class,
            mean_service_ns: mean_service.as_nanos() as f64,
            cv,
        }
    }

    /// The frontend tier of a memcached-style scatter-gather service:
    /// request parsing, fan-out bookkeeping and response aggregation
    /// (~10 µs of CPU work, moderately variable).
    #[must_use]
    pub fn frontend() -> Self {
        TierService::new(RequestClass::Frontend, SimDuration::from_micros(10), 0.5)
    }

    /// A memcached leaf lookup, calibrated like the KV-GET class of
    /// [`crate::spec::WorkloadSpec::memcached_etc`] (~19 µs mean, CV 0.8).
    #[must_use]
    pub fn memcached_leaf() -> Self {
        TierService::new(RequestClass::KvGet, SimDuration::from_nanos(19_000), 0.8)
    }

    /// A kafka-broker leaf (per-message append/fetch work, ~100 µs mean).
    #[must_use]
    pub fn kafka_leaf() -> Self {
        TierService::new(RequestClass::Produce, SimDuration::from_nanos(100_000), 0.7)
    }

    /// A MySQL OLTP leaf, calibrated like
    /// [`crate::spec::WorkloadSpec::mysql_oltp`]'s transaction class
    /// (~1 ms mean, CV 0.6).
    #[must_use]
    pub fn mysql_leaf() -> Self {
        TierService::new(
            RequestClass::OltpTransaction,
            SimDuration::from_nanos(1_000_000),
            0.6,
        )
    }

    /// Overrides the mean service time, keeping class and CV.
    #[must_use]
    pub fn with_mean_service(mut self, mean: SimDuration) -> Self {
        assert!(
            !mean.is_zero(),
            "a chain tier needs a positive mean service time"
        );
        self.mean_service_ns = mean.as_nanos() as f64;
        self
    }

    /// Draws one RPC's CPU service time from the tier's distribution
    /// (floored at 100 ns like every workload service-time draw).
    pub fn sample_service(&self, rng: &mut SimRng) -> SimDuration {
        let d = LogNormal::from_mean_cv(self.mean_service_ns, self.cv);
        SimDuration::from_nanos(d.sample(rng).max(100.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_of_the_builtin_tiers() {
        assert_eq!(TierService::frontend().mean_service_ns, 10_000.0);
        assert_eq!(TierService::memcached_leaf().mean_service_ns, 19_000.0);
        assert_eq!(TierService::frontend().class, RequestClass::Frontend);
        assert!(
            TierService::kafka_leaf().mean_service_ns
                > TierService::memcached_leaf().mean_service_ns
        );
    }

    #[test]
    fn sampling_respects_the_mean_and_floor() {
        let tier = TierService::memcached_leaf();
        let mut rng = SimRng::from_seed(9);
        let n = 20_000;
        let total: SimDuration = (0..n).map(|_| tier.sample_service(&mut rng)).sum();
        let mean_us = total.as_micros_f64() / f64::from(n);
        assert!(mean_us > 17.0 && mean_us < 21.0, "mean {mean_us} us");
        let mut rng = SimRng::from_seed(10);
        assert!((0..1000).all(|_| tier.sample_service(&mut rng) >= SimDuration::from_nanos(100)));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let tier = TierService::frontend().with_mean_service(SimDuration::from_micros(5));
        let draw = |seed| {
            let mut rng = SimRng::from_seed(seed);
            (0..100)
                .map(|_| tier.sample_service(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    #[should_panic(expected = "positive mean service time")]
    fn zero_mean_service_is_rejected() {
        let _ = TierService::new(RequestClass::KvGet, SimDuration::ZERO, 0.5);
    }
}
