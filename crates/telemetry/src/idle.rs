//! Full-system idle-period tracking (the SoCWatch substitute).
//!
//! The paper estimates the PC1A opportunity by processing a SoCWatch trace of
//! core C-state transition events into periods during which *all* cores are
//! simultaneously idle (Sec. 6). SoCWatch cannot observe idle periods shorter
//! than 10 µs, so the paper's opportunity numbers are an under-estimate; the
//! tracker applies the same floor, so the simulated numbers are the
//! SoCWatch-equivalent view.

use apc_sim::{SimDuration, SimTime};

/// Tracks periods during which every core of the socket is idle.
///
/// # Examples
///
/// ```
/// use apc_sim::{SimDuration, SimTime};
/// use apc_telemetry::IdlePeriodTracker;
///
/// let mut idle = IdlePeriodTracker::new(1, SimTime::ZERO);
/// let mut now = SimTime::ZERO;
/// for us in [3, 30, 150, 900, 40_000] {
///     idle.core_idle(now);
///     now += SimDuration::from_micros(us);
///     idle.core_active(now);
/// }
/// // The 3 µs period is below SoCWatch's floor; 30 and 150 µs are in
/// // Fig. 6(c)'s band.
/// assert_eq!(idle.period_count(), 4);
/// assert_eq!(idle.fraction_20_200us(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct IdlePeriodTracker {
    /// Number of cores currently active (busy or transitioning to busy).
    active_cores: usize,
    total_cores: usize,
    /// Start of the current fully-idle period, if one is open.
    idle_since: Option<SimTime>,
    total_idle: SimDuration,
    periods: u64,
    /// Recorded periods longer than 20 µs and at most 200 µs.
    periods_20_200us: u64,
    window_start: SimTime,
    window_end: SimTime,
}

impl IdlePeriodTracker {
    /// The SoCWatch sampling floor from the paper (10 µs).
    const SOCWATCH_FLOOR: SimDuration = SimDuration::from_micros(10);

    /// Fig. 6(c)'s band of idle-period lengths: longer than `BAND_LOW` and
    /// at most `BAND_HIGH`.
    const BAND_LOW: SimDuration = SimDuration::from_micros(20);
    const BAND_HIGH: SimDuration = SimDuration::from_micros(200);

    /// Creates a tracker for `total_cores` cores, all initially active,
    /// that, like SoCWatch, ignores idle periods shorter than 10 µs.
    #[must_use]
    pub fn new(total_cores: usize, start: SimTime) -> Self {
        IdlePeriodTracker {
            active_cores: total_cores,
            total_cores,
            idle_since: None,
            total_idle: SimDuration::ZERO,
            periods: 0,
            periods_20_200us: 0,
            window_start: start,
            window_end: start,
        }
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
        if len < Self::SOCWATCH_FLOOR {
            return;
        }
        if Self::BAND_LOW < len && len <= Self::BAND_HIGH {
            self.periods_20_200us += 1;
        }
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

    /// Fraction of the recorded fully-idle periods longer than 20 µs and at
    /// most 200 µs (Fig. 6(c)'s "60 % of idle periods are between 20 µs and
    /// 200 µs"), or 0 when there is none.
    #[must_use]
    pub fn fraction_20_200us(&self) -> f64 {
        if self.periods == 0 {
            return 0.0;
        }
        self.periods_20_200us as f64 / self.periods as f64
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
        let mut t = IdlePeriodTracker::new(1, SimTime::ZERO);
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
    fn band_fraction_counts_recorded_periods() {
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
        let frac = t.fraction_20_200us();
        assert!((frac - 0.75).abs() < 1e-9, "fraction {frac}");
        assert_eq!(t.period_count(), 4);
    }

    #[test]
    fn band_edges_are_exclusive_below_and_inclusive_above() {
        let mut t = IdlePeriodTracker::new(1, SimTime::ZERO);
        assert_eq!(t.fraction_20_200us(), 0.0, "no period yet");
        let us = SimDuration::from_micros;
        let ns = SimDuration::from_nanos(1);
        let mut now = SimTime::ZERO;
        // Out, in, in, out, and one below the SoCWatch floor.
        for len in [us(20), us(20) + ns, us(200), us(200) + ns, us(9)] {
            t.core_idle(now);
            now += len;
            t.core_active(now);
            now += us(1);
        }
        assert_eq!(t.period_count(), 4, "the 9 µs period is not recorded");
        assert_eq!(t.periods_20_200us, 2);
        assert_eq!(t.fraction_20_200us(), 0.5);
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
