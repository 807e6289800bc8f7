//! Duration histograms.
//!
//! [`DurationHistogram`] buckets the fully-idle periods behind Fig. 6(c).
//! Latency percentiles come from the quantile sketch in `apc-telemetry`.

use std::fmt;

use crate::time::SimDuration;

/// A histogram over durations with logarithmically spaced bucket boundaries.
///
/// Mirrors the presentation of Fig. 6(c): "what fraction of fully-idle
/// periods fall between 20 µs and 200 µs?".
///
/// ```
/// use apc_sim::stats::DurationHistogram;
/// use apc_sim::time::SimDuration;
///
/// let mut idle = DurationHistogram::idle_period_default();
/// for us in [3, 30, 150, 900, 40_000] {
///     idle.record(SimDuration::from_micros(us));
/// }
/// let (lo, hi) = (SimDuration::from_micros(20), SimDuration::from_micros(200));
/// assert_eq!(idle.fraction_between(lo, hi), 0.4);
/// assert_eq!(idle.overflow(), 1); // 40 ms is past the 10 ms bound
/// ```
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
    fn duration_histogram_display_lists_each_bucket_with_its_share() {
        let mut h =
            DurationHistogram::new(&[SimDuration::from_micros(10), SimDuration::from_micros(20)]);
        for us in [5, 15, 15, 40] {
            h.record(SimDuration::from_micros(us));
        }
        let expected = concat!(
            "       0ns -   10.000us         1   25.00%\n",
            "  10.000us -   20.000us         2   50.00%\n",
            "  20.000us +                    1   25.00%\n",
        );
        assert_eq!(h.to_string(), expected);
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
