//! Open-loop load generator (the Mutilate / sysbench / Kafka-client stand-in).
//!
//! A [`LoadGenerator`] owns an arrival process and a workload specification
//! and produces the request stream the server simulation consumes. It is an
//! *open-loop* generator: requests arrive according to the configured rate
//! regardless of how the server is coping, which is the behaviour that makes
//! tail latency meaningful.

use apc_sim::rng::SimRng;
use apc_sim::SimTime;

use crate::arrival::ArrivalProcess;
use crate::request::{Request, RequestId};
use crate::spec::WorkloadSpec;

/// An open-loop request generator.
#[derive(Debug)]
pub struct LoadGenerator {
    spec: WorkloadSpec,
    arrivals: Box<dyn ArrivalProcess>,
    rng: SimRng,
    next_id: u64,
    next_arrival: SimTime,
    rate_per_sec: f64,
}

impl LoadGenerator {
    /// Creates a generator for `spec` at the given request rate, seeded
    /// deterministically, using the spec's default (stationary) arrival
    /// process.
    #[must_use]
    pub fn new(spec: WorkloadSpec, rate_per_sec: f64, seed: u64) -> Self {
        let arrivals = spec.arrival_process(rate_per_sec);
        LoadGenerator::with_arrival_process(spec, arrivals, rate_per_sec, seed)
    }

    /// Creates a generator driving `spec` with an explicit arrival process.
    ///
    /// This is the entry point for scenario-driven time-varying traffic
    /// ([`crate::arrival::PiecewiseRateArrivals`],
    /// [`crate::arrival::SinusoidArrivals`]). `rate_per_sec` is the nominal
    /// rate reported by [`LoadGenerator::rate_per_sec`] (and recorded in run
    /// results); pass the process's long-run average over the intended run —
    /// for repeating schedules that is simply
    /// [`ArrivalProcess::rate_per_sec`].
    ///
    /// Randomness is seeded exactly as in [`LoadGenerator::new`], but note
    /// that arrival gaps and service times interleave on one `"loadgen"`
    /// stream and different processes consume different numbers of draws
    /// per gap, so swapping the process shifts subsequent service-time
    /// draws as well.
    #[must_use]
    pub fn with_arrival_process(
        spec: WorkloadSpec,
        arrivals: Box<dyn ArrivalProcess>,
        rate_per_sec: f64,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::from_seed(seed).fork("loadgen");
        let mut gen = LoadGenerator {
            spec,
            arrivals,
            rng: rng.clone(),
            next_id: 0,
            next_arrival: SimTime::ZERO,
            rate_per_sec,
        };
        // Draw the first gap so arrivals do not all start at t = 0.
        let gap = gen.arrivals.next_gap(&mut rng);
        gen.rng = rng;
        gen.next_arrival = SimTime::ZERO + gap;
        gen
    }

    /// The workload specification.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The configured request rate.
    #[must_use]
    pub fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }

    /// The arrival time of the next request (without consuming it).
    #[must_use]
    pub fn peek_next_arrival(&self) -> SimTime {
        self.next_arrival
    }

    /// Produces the next request and advances the arrival clock.
    pub fn next_request(&mut self) -> Request {
        let arrival = self.next_arrival;
        let request = self
            .spec
            .sample_request(&mut self.rng, RequestId(self.next_id), arrival);
        self.next_id += 1;
        let gap = self.arrivals.next_gap(&mut self.rng);
        self.next_arrival = arrival + gap;
        request
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use apc_sim::SimDuration;

    #[test]
    fn generates_monotonic_arrivals_at_the_configured_rate() {
        let mut gen = LoadGenerator::new(WorkloadSpec::memcached_etc(), 50_000.0, 42);
        let horizon = SimTime::from_secs(1);
        let mut requests = Vec::new();
        while gen.peek_next_arrival() <= horizon {
            requests.push(gen.next_request());
        }
        let n = requests.len() as f64;
        assert!((n - 50_000.0).abs() / 50_000.0 < 0.05, "generated {n}");
        assert!(requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(requests.iter().enumerate().all(|(i, r)| r.id.0 == i as u64));
        assert_eq!(gen.rate_per_sec(), 50_000.0);
        assert_eq!(gen.spec().name, "memcached");
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let mut a = LoadGenerator::new(WorkloadSpec::kafka(), 8_000.0, 7);
        let mut b = LoadGenerator::new(WorkloadSpec::kafka(), 8_000.0, 7);
        for _ in 0..1000 {
            let ra = a.next_request();
            let rb = b.next_request();
            assert_eq!(ra.arrival, rb.arrival);
            assert_eq!(ra.service, rb.service);
            assert_eq!(ra.class, rb.class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = LoadGenerator::new(WorkloadSpec::mysql_oltp(), 800.0, 1);
        let mut b = LoadGenerator::new(WorkloadSpec::mysql_oltp(), 800.0, 2);
        let same = (0..100)
            .filter(|_| a.next_request().arrival == b.next_request().arrival)
            .count();
        assert!(same < 5);
    }

    #[test]
    fn service_times_have_the_expected_mean() {
        let mut gen = LoadGenerator::new(WorkloadSpec::memcached_etc(), 100_000.0, 3);
        let total: SimDuration = (0..50_000).map(|_| gen.next_request().service).sum();
        let mean_us = total.as_micros_f64() / 50_000.0;
        assert!(
            mean_us > 17.0 && mean_us < 24.0,
            "mean service {mean_us} us"
        );
    }
}
