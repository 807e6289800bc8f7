//! End-to-end request latency telemetry.
//!
//! The paper reports average and tail (99th percentile) end-to-end latency,
//! where end-to-end = client-observed latency = network round trip (≈ 117 µs
//! for their testbed) + server-side queueing + service + any C-state wakeup
//! penalties. This module accumulates those samples and produces the summary
//! statistics the figures plot.
//!
//! Samples are *not* retained: the recorder feeds a bounded-memory
//! [`QuantileSketch`] (see [`crate::sketch`] for the 1 % relative-error
//! contract), so a recorder costs O(buckets) regardless of run length.
//! `count`, `mean` and `max` stay exact; the reported percentiles are sketch
//! estimates within the contract of the lower nearest-rank exact quantile.

use apc_sim::SimDuration;

use crate::sketch::QuantileSketch;

/// Summary of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of requests.
    pub count: usize,
    /// Mean latency (exact).
    pub mean: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile (the paper's tail metric).
    pub p99: SimDuration,
    /// 99.9th percentile (the paper's tail-latency SLO metric).
    pub p999: SimDuration,
    /// Maximum observed latency (exact).
    pub max: SimDuration,
}

impl LatencySummary {
    /// An all-zero summary (no samples).
    #[must_use]
    fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean: SimDuration::ZERO,
            p50: SimDuration::ZERO,
            p95: SimDuration::ZERO,
            p99: SimDuration::ZERO,
            p999: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }
}

/// Records per-request latencies into a bounded-memory sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecorder {
    sketch: QuantileSketch,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder::new()
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder (1 % relative-error latency sketch).
    #[must_use]
    pub fn new() -> Self {
        LatencyRecorder {
            sketch: QuantileSketch::latency_default(),
        }
    }

    /// A recorder wrapping an existing sketch (e.g. one deserialized from a
    /// sweep-shard checkpoint), so its summary can be re-derived.
    #[must_use]
    pub fn from_sketch(sketch: QuantileSketch) -> Self {
        LatencyRecorder { sketch }
    }

    /// Records one request's end-to-end latency.
    pub fn record(&mut self, latency: SimDuration) {
        self.sketch.record(latency.as_nanos());
    }

    /// Number of recorded requests.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)]
    pub fn count(&self) -> usize {
        self.sketch.count() as usize
    }

    /// Merges another recorder's samples into this one (exact counts, sums
    /// and extremes; see [`QuantileSketch::merge`]).
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.sketch.merge(&other.sketch);
    }

    /// The underlying sketch (for aggregation and serialization).
    #[must_use]
    pub fn sketch(&self) -> &QuantileSketch {
        &self.sketch
    }

    /// Produces the summary statistics. Derivable from `&self`: the sketch
    /// needs no in-place sort, unlike the retained-samples recorder this
    /// replaced.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn summary(&self) -> LatencySummary {
        if self.sketch.is_empty() {
            return LatencySummary::empty();
        }
        let q = |q: f64| SimDuration::from_nanos(self.sketch.quantile(q).unwrap_or(0));
        LatencySummary {
            count: self.count(),
            mean: SimDuration::from_nanos(self.sketch.mean().unwrap_or(0.0).round() as u64),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            p999: q(0.999),
            max: SimDuration::from_nanos(self.sketch.max().unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_latencies() {
        let mut r = LatencyRecorder::new();
        for us in 1..=100u64 {
            r.record(SimDuration::from_micros(us));
        }
        assert_eq!(r.count(), 100);
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.mean, SimDuration::from_nanos(50_500));
        assert_eq!(s.max, SimDuration::from_micros(100));
        // Exact lower nearest-rank references are 50 / 95 / 99 µs; the
        // sketch reports within 1 % relative error of each.
        assert!(s.p50 >= SimDuration::from_micros(50).mul_f64(0.99));
        assert!(s.p50 <= SimDuration::from_micros(50).mul_f64(1.01));
        assert!(s.p95 >= SimDuration::from_micros(95).mul_f64(0.99));
        assert!(s.p99 >= SimDuration::from_micros(99).mul_f64(0.99));
        assert!(s.p999 >= s.p99 && s.p999 <= s.max);
    }

    #[test]
    fn empty_recorder_yields_empty_summary() {
        let r = LatencyRecorder::new();
        assert_eq!(r.summary(), LatencySummary::empty());
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn tail_reflects_outliers() {
        let mut r = LatencyRecorder::new();
        for _ in 0..990 {
            r.record(SimDuration::from_micros(100));
        }
        for _ in 0..10 {
            r.record(SimDuration::from_micros(1_000));
        }
        let s = r.summary();
        assert!(s.p99 >= SimDuration::from_micros(100));
        // The 1 % outliers dominate the 99.9th percentile: within the
        // sketch's 1 % relative-error contract of the exact 1 ms, and never
        // above the exact maximum.
        let exact_p999 = SimDuration::from_millis(1);
        assert!(s.p999 >= exact_p999.mul_f64(0.99));
        assert!(s.p999 <= s.max);
        assert_eq!(s.max, SimDuration::from_millis(1));
        assert!(s.mean > SimDuration::from_micros(100));
        assert!(s.mean < SimDuration::from_micros(120));
    }

    #[test]
    fn summary_needs_only_a_shared_reference() {
        let mut r = LatencyRecorder::new();
        r.record(SimDuration::from_micros(10));
        let shared: &LatencyRecorder = &r;
        let a = shared.summary();
        let b = shared.summary();
        assert_eq!(a, b);
    }

    #[test]
    fn merged_recorders_equal_one_combined_recorder() {
        let mut all = LatencyRecorder::new();
        let mut left = LatencyRecorder::new();
        let mut right = LatencyRecorder::new();
        for i in 0..1_000u64 {
            let d = SimDuration::from_nanos(50_000 + (i * 997) % 400_000);
            all.record(d);
            if i % 3 == 0 {
                left.record(d);
            } else {
                right.record(d);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, all);
        assert_eq!(merged.summary(), all.summary());
    }
}
