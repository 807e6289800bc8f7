//! Exact percentiles and duration histograms.
//!
//! [`DurationHistogram`] buckets the fully-idle periods behind Fig. 6(c).
//! [`PercentileRecorder`] keeps every sample and answers quantiles exactly:
//! it is the ground truth the latency sketch is checked against.

use std::fmt;

use crate::time::SimDuration;

/// Records a full set of samples and answers percentile queries exactly.
///
/// The evaluation runs produce at most a few million latency samples, so an
/// exact recorder is affordable and avoids any estimator bias in tail-latency
/// comparisons (Fig. 5).
///
/// ```
/// use apc_sim::stats::PercentileRecorder;
///
/// let mut latencies_us = PercentileRecorder::new();
/// for us in 1..=100 {
///     latencies_us.record(f64::from(us));
/// }
/// assert_eq!(latencies_us.median(), Some(50.5));
/// assert_eq!(latencies_us.quantile(1.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PercentileRecorder {
    samples: Vec<f64>,
    sorted: bool,
}

impl PercentileRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        PercentileRecorder {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one sample. Non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank interpolation.
    /// Returns `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("non-finite samples are filtered"));
            self.sorted = true;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.samples.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            Some(self.samples[lo])
        } else {
            let frac = pos - lo as f64;
            Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
        }
    }

    /// Convenience accessor for the median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Convenience accessor for the 99th percentile (the paper's tail metric).
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A histogram over durations with logarithmically spaced bucket boundaries.
///
/// Mirrors the presentation of Fig. 6(c): "what fraction of fully-idle
/// periods fall between 20 µs and 200 µs?".
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    /// Upper bounds (inclusive) of each bucket, ascending. A final implicit
    /// overflow bucket catches everything larger.
    bounds: Vec<SimDuration>,
    counts: Vec<u64>,
    overflow: u64,
    total_duration: SimDuration,
}

impl DurationHistogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn new(bounds: &[SimDuration]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        DurationHistogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len()],
            overflow: 0,
            total_duration: SimDuration::ZERO,
        }
    }

    /// A standard set of log-spaced bounds from 1 µs to 10 ms, suitable for
    /// idle-period distributions.
    #[must_use]
    pub fn idle_period_default() -> Self {
        let bounds: Vec<SimDuration> = [
            1u64, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000,
        ]
        .into_iter()
        .map(SimDuration::from_micros)
        .collect();
        DurationHistogram::new(&bounds)
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.total_duration += d;
        for (i, b) in self.bounds.iter().enumerate() {
            if d <= *b {
                self.counts[i] += 1;
                return;
            }
        }
        self.overflow += 1;
    }

    /// Total number of recorded durations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }

    /// Sum of all recorded durations.
    #[must_use]
    pub fn total_duration(&self) -> SimDuration {
        self.total_duration
    }

    /// Iterator over `(upper_bound, count)` pairs, excluding the overflow
    /// bucket.
    pub fn buckets(&self) -> impl Iterator<Item = (SimDuration, u64)> + '_ {
        self.bounds.iter().copied().zip(self.counts.iter().copied())
    }

    /// Count of durations exceeding the largest bound.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Fraction of recorded durations that fall inside `[lo, hi]`, judged by
    /// bucket upper bounds (buckets whose upper bound lies in the range are
    /// counted). Returns 0 when empty.
    #[must_use]
    pub fn fraction_between(&self, lo: SimDuration, hi: SimDuration) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let in_range: u64 = self
            .buckets()
            .filter(|(bound, _)| *bound > lo && *bound <= hi)
            .map(|(_, c)| c)
            .sum();
        in_range as f64 / total as f64
    }
}

impl fmt::Display for DurationHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.count().max(1);
        let mut lower = SimDuration::ZERO;
        for (bound, count) in self.buckets() {
            writeln!(
                f,
                "{:>10} - {:>10}  {:>8}  {:>6.2}%",
                lower.to_string(),
                bound.to_string(),
                count,
                100.0 * count as f64 / total as f64
            )?;
            lower = bound;
        }
        writeln!(
            f,
            "{:>10} +             {:>8}  {:>6.2}%",
            lower.to_string(),
            self.overflow,
            100.0 * self.overflow as f64 / total as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_recorder_exact_quantiles() {
        let mut r = PercentileRecorder::new();
        for x in (1..=100).rev() {
            r.record(f64::from(x));
        }
        assert_eq!(r.count(), 100);
        assert!((r.median().unwrap() - 50.5).abs() < 1e-9);
        assert!((r.quantile(0.0).unwrap() - 1.0).abs() < 1e-9);
        assert!((r.quantile(1.0).unwrap() - 100.0).abs() < 1e-9);
        assert!((r.p99().unwrap() - 99.01).abs() < 0.02);
        assert!((r.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentile_recorder_empty_is_none() {
        let mut r = PercentileRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.quantile(0.5), None);
        assert_eq!(r.mean(), 0.0);
    }

    #[test]
    fn percentile_recorder_ignores_non_finite_samples() {
        let mut r = PercentileRecorder::new();
        for x in [f64::NAN, 3.0, f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0] {
            r.record(x);
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean(), 2.0);
        assert_eq!(r.quantile(0.0), Some(1.0));
        assert_eq!(r.quantile(1.0), Some(3.0));
    }

    #[test]
    fn percentile_recorder_sees_samples_recorded_after_a_query() {
        let mut r = PercentileRecorder::new();
        for x in [30.0, 10.0, 20.0] {
            r.record(x);
        }
        assert_eq!(r.median(), Some(20.0));
        for x in [2.0, 1.0] {
            r.record(x);
        }
        assert_eq!(r.quantile(0.0), Some(1.0));
        assert_eq!(r.median(), Some(10.0));
        assert_eq!(r.quantile(1.0), Some(30.0));
    }

    #[test]
    fn percentile_recorder_clamps_and_interpolates_quantiles() {
        let mut r = PercentileRecorder::new();
        for x in [8.0, 4.0] {
            r.record(x);
        }
        assert_eq!(r.quantile(-0.5), Some(4.0));
        assert_eq!(r.quantile(1.5), Some(8.0));
        assert_eq!(r.quantile(0.25), Some(5.0));
    }

    #[test]
    fn duration_histogram_bounds_are_inclusive() {
        let (ten, twenty) = (SimDuration::from_micros(10), SimDuration::from_micros(20));
        let one_ns = SimDuration::from_nanos(1);
        let mut h = DurationHistogram::new(&[ten, twenty]);
        for d in [ten, ten + one_ns, twenty, twenty + one_ns] {
            h.record(d);
        }
        let counts: Vec<(SimDuration, u64)> = h.buckets().collect();
        assert_eq!(counts, [(ten, 1), (twenty, 2)]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 4);
        assert_eq!(h.total_duration(), SimDuration::from_nanos(60_002));
    }

    #[test]
    fn empty_duration_histogram_has_no_fractions() {
        let h = DurationHistogram::idle_period_default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.total_duration(), SimDuration::ZERO);
        let all = h.fraction_between(SimDuration::ZERO, SimDuration::from_millis(10));
        assert_eq!(all, 0.0);
        assert_eq!(h.to_string().lines().count(), h.buckets().count() + 1);
    }

    #[test]
    fn duration_histogram_buckets_and_fractions() {
        let mut h = DurationHistogram::idle_period_default();
        // 6 samples in 20–200 µs, 4 outside.
        for us in [25u64, 30, 60, 100, 150, 190] {
            h.record(SimDuration::from_micros(us));
        }
        for us in [2u64, 5, 500, 20_000] {
            h.record(SimDuration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.overflow(), 1);
        let frac = h.fraction_between(SimDuration::from_micros(20), SimDuration::from_micros(200));
        assert!((frac - 0.6).abs() < 1e-9, "fraction {frac}");
        assert!(h.total_duration() > SimDuration::from_millis(20));
        let rendered = h.to_string();
        assert!(rendered.contains('%'));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn duration_histogram_rejects_unsorted_bounds() {
        let _ =
            DurationHistogram::new(&[SimDuration::from_micros(10), SimDuration::from_micros(5)]);
    }

    #[test]
    #[should_panic(expected = "at least one bound")]
    fn duration_histogram_rejects_empty_bounds() {
        let _ = DurationHistogram::new(&[]);
    }
}
