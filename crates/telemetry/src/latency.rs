//! End-to-end request latency telemetry.
//!
//! The paper reports average and tail (99th percentile) end-to-end latency,
//! where end-to-end = client-observed latency = network round trip (≈ 117 µs
//! for their testbed) + server-side queueing + service + any C-state wakeup
//! penalties. This module produces the summary statistics the figures plot.
//!
//! Samples are *not* retained: every latency, in nanoseconds, goes into a
//! bounded-memory [`QuantileSketch`] (see [`crate::sketch`] for the 1 %
//! relative-error contract), which costs O(buckets) regardless of run
//! length, and [`LatencySummary::of`] reads the summary off it. `count`,
//! `mean` and `max` stay exact; the reported percentiles are sketch
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

    /// The summary of the latencies `sketch` holds, recorded in
    /// nanoseconds.
    ///
    /// # Examples
    ///
    /// ```
    /// use apc_sim::SimDuration;
    /// use apc_telemetry::{LatencySummary, QuantileSketch};
    ///
    /// let mut sketch = QuantileSketch::new();
    /// for us in [100, 100, 100, 400] {
    ///     sketch.record(SimDuration::from_micros(us).as_nanos());
    /// }
    /// let summary = LatencySummary::of(&sketch);
    /// assert_eq!(summary.count, 4);
    /// assert_eq!(summary.mean, SimDuration::from_micros(175));
    /// assert_eq!(summary.max, SimDuration::from_micros(400));
    /// ```
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn of(sketch: &QuantileSketch) -> Self {
        if sketch.is_empty() {
            return LatencySummary::empty();
        }
        let q = |q: f64| SimDuration::from_nanos(sketch.quantile(q).unwrap_or(0));
        LatencySummary {
            count: sketch.count() as usize,
            mean: SimDuration::from_nanos(sketch.mean().unwrap_or(0.0).round() as u64),
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            p999: q(0.999),
            max: SimDuration::from_nanos(sketch.max().unwrap_or(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_uniform_latencies() {
        let mut sketch = QuantileSketch::new();
        for us in 1..=100u64 {
            sketch.record(SimDuration::from_micros(us).as_nanos());
        }
        let s = LatencySummary::of(&sketch);
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
    fn empty_sketch_yields_empty_summary() {
        let sketch = QuantileSketch::new();
        assert_eq!(LatencySummary::of(&sketch), LatencySummary::empty());
    }

    #[test]
    fn tail_reflects_outliers() {
        let mut sketch = QuantileSketch::new();
        for _ in 0..990 {
            sketch.record(SimDuration::from_micros(100).as_nanos());
        }
        for _ in 0..10 {
            sketch.record(SimDuration::from_micros(1_000).as_nanos());
        }
        let s = LatencySummary::of(&sketch);
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
        let mut sketch = QuantileSketch::new();
        sketch.record(SimDuration::from_micros(10).as_nanos());
        let before = sketch.clone();
        let shared: &QuantileSketch = &sketch;
        let a = LatencySummary::of(shared);
        let b = LatencySummary::of(shared);
        assert_eq!(a, b);
        assert_eq!(sketch, before, "summarising leaves the sketch as it was");
    }

    #[test]
    fn merged_sketches_summarise_as_one_combined_sketch() {
        let mut all = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for i in 0..1_000u64 {
            let ns = 50_000 + (i * 997) % 400_000;
            all.record(ns);
            if i % 3 == 0 {
                left.record(ns);
            } else {
                right.record(ns);
            }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        assert_eq!(merged, all);
        assert_eq!(LatencySummary::of(&merged), LatencySummary::of(&all));
    }
}
