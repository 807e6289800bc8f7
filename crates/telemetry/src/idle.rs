//! Full-system idle-period tracking (the SoCWatch substitute).
//!
//! The paper estimates the PC1A opportunity by processing a SoCWatch trace of
//! core C-state transition events into periods during which *all* cores are
//! simultaneously idle (Sec. 6). SoCWatch cannot observe idle periods shorter
//! than 10 µs, so the paper's opportunity numbers are an under-estimate; the
//! tracker reproduces that floor as an option so experiments can report both
//! the raw and the SoCWatch-equivalent views.

use apc_sim::stats::DurationHistogram;
use apc_sim::{SimDuration, SimTime};

/// Tracks periods during which every core of the socket is idle.
#[derive(Debug, Clone)]
pub struct IdlePeriodTracker {
    /// Number of cores currently active (busy or transitioning to busy).
    active_cores: usize,
    total_cores: usize,
    /// Start of the current fully-idle period, if one is open.
    idle_since: Option<SimTime>,
    /// Minimum period length recorded (the SoCWatch sampling floor).
    min_period: SimDuration,
    histogram: DurationHistogram,
    total_idle: SimDuration,
    periods: u64,
    window_start: SimTime,
    window_end: SimTime,
}

impl IdlePeriodTracker {
    /// The SoCWatch sampling floor from the paper (10 µs).
    const SOCWATCH_FLOOR: SimDuration = SimDuration::from_micros(10);

    /// Creates a tracker for `total_cores` cores, all initially active, with
    /// no minimum-period floor.
    #[must_use]
    fn new(total_cores: usize, start: SimTime) -> Self {
        IdlePeriodTracker {
            active_cores: total_cores,
            total_cores,
            idle_since: None,
            min_period: SimDuration::ZERO,
            histogram: DurationHistogram::idle_period_default(),
            total_idle: SimDuration::ZERO,
            periods: 0,
            window_start: start,
            window_end: start,
        }
    }

    /// Creates a tracker that, like SoCWatch, ignores idle periods shorter
    /// than 10 µs.
    #[must_use]
    pub fn with_socwatch_floor(total_cores: usize, start: SimTime) -> Self {
        let mut t = IdlePeriodTracker::new(total_cores, start);
        t.min_period = Self::SOCWATCH_FLOOR;
        t
    }

    /// Notification that a core became idle at `now`.
    ///
    /// # Panics
    ///
    /// Panics if more cores go idle than exist.
    pub fn core_idle(&mut self, now: SimTime) {
        assert!(self.active_cores > 0, "more idle notifications than cores");
        self.active_cores -= 1;
        if self.active_cores == 0 {
            self.idle_since = Some(now);
        }
        self.window_end = self.window_end.max(now);
    }

    /// Notification that a core became active at `now`.
    ///
    /// # Panics
    ///
    /// Panics if more cores become active than exist.
    pub fn core_active(&mut self, now: SimTime) {
        assert!(
            self.active_cores < self.total_cores,
            "more active notifications than cores"
        );
        if let Some(start) = self.idle_since.take() {
            self.close_period(start, now);
        }
        self.active_cores += 1;
        self.window_end = self.window_end.max(now);
    }

    /// Closes the observation window at `now` (ends any open idle period).
    pub fn finish(&mut self, now: SimTime) {
        if let Some(start) = self.idle_since.take() {
            self.close_period(start, now);
            // Leave the system "idle" logically, but the period accounting is
            // closed: reopen so repeated finish calls don't double count.
            self.idle_since = Some(now);
        }
        self.window_end = self.window_end.max(now);
    }

    fn close_period(&mut self, start: SimTime, end: SimTime) {
        let len = end.saturating_since(start);
        if len < self.min_period {
            return;
        }
        self.histogram.record(len);
        self.total_idle += len;
        self.periods += 1;
    }

    /// Number of completed fully-idle periods (at or above the floor).
    #[must_use]
    pub fn period_count(&self) -> u64 {
        self.periods
    }

    /// Fully-idle time as a fraction of the observation window — the paper's
    /// "PC1A residency opportunity" metric (Fig. 6(b)).
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        let window = self.window_end.saturating_since(self.window_start);
        if window.is_zero() {
            return 0.0;
        }
        self.total_idle.as_nanos() as f64 / window.as_nanos() as f64
    }

    /// Fraction of fully-idle periods whose length falls in `[lo, hi]`
    /// (Fig. 6(c)'s "60 % of idle periods are between 20 µs and 200 µs").
    #[must_use]
    pub fn fraction_between(&self, lo: SimDuration, hi: SimDuration) -> f64 {
        self.histogram.fraction_between(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_a_simple_idle_period() {
        let mut t = IdlePeriodTracker::new(2, SimTime::ZERO);
        assert_eq!(t.idle_since, None);
        t.core_idle(SimTime::from_micros(10));
        assert_eq!(t.idle_since, None, "one core still active");
        t.core_idle(SimTime::from_micros(20));
        assert_eq!(t.idle_since, Some(SimTime::from_micros(20)));
        t.core_active(SimTime::from_micros(120));
        assert_eq!(t.idle_since, None);
        t.finish(SimTime::from_micros(200));
        assert_eq!(t.period_count(), 1);
        assert_eq!(t.total_idle, SimDuration::from_micros(100));
        assert!((t.idle_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(t.active_cores, 1);
    }

    #[test]
    fn socwatch_floor_discards_short_periods() {
        let mut t = IdlePeriodTracker::with_socwatch_floor(1, SimTime::ZERO);
        // 5 µs idle period: below the 10 µs floor.
        t.core_idle(SimTime::from_micros(100));
        t.core_active(SimTime::from_micros(105));
        // 50 µs idle period: counted.
        t.core_idle(SimTime::from_micros(200));
        t.core_active(SimTime::from_micros(250));
        t.finish(SimTime::from_micros(300));
        assert_eq!(t.period_count(), 1);
        assert_eq!(t.total_idle, SimDuration::from_micros(50));
    }

    #[test]
    fn histogram_fraction_between_matches_recorded_periods() {
        let mut t = IdlePeriodTracker::new(1, SimTime::ZERO);
        let mut now = SimTime::ZERO;
        // Three periods of 50 µs (in range) and one of 500 µs (out of range).
        for len_us in [50u64, 50, 50, 500] {
            t.core_idle(now);
            now += SimDuration::from_micros(len_us);
            t.core_active(now);
            now += SimDuration::from_micros(10);
        }
        t.finish(now);
        let frac = t.fraction_between(SimDuration::from_micros(20), SimDuration::from_micros(200));
        assert!((frac - 0.75).abs() < 1e-9, "fraction {frac}");
        assert_eq!(t.histogram.count(), 4);
    }

    #[test]
    fn finish_with_open_period_counts_it_once() {
        let mut t = IdlePeriodTracker::new(1, SimTime::ZERO);
        t.core_idle(SimTime::ZERO);
        t.finish(SimTime::from_millis(1));
        assert_eq!(t.period_count(), 1);
        assert_eq!(t.total_idle, SimDuration::from_millis(1));
        // A second finish at the same instant adds nothing.
        t.finish(SimTime::from_millis(1));
        assert_eq!(t.total_idle, SimDuration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "more idle notifications than cores")]
    fn too_many_idle_notifications_panic() {
        let mut t = IdlePeriodTracker::new(1, SimTime::ZERO);
        t.core_idle(SimTime::ZERO);
        t.core_idle(SimTime::from_micros(1));
    }
}
