//! Arrival processes.
//!
//! The paper's workloads are driven by open-loop load generators (Mutilate,
//! Kafka perf clients, sysbench) whose request streams are bursty at the
//! microsecond scale: requests arrive over the network, are coalesced by the
//! NIC, and exhibit on/off behaviour from client-side batching and TCP
//! dynamics. The reproduction models arrivals as either a plain Poisson
//! process or a two-state Markov-modulated Poisson process (MMPP), which is
//! the standard way to introduce controlled burstiness.
//!
//! On top of those two stationary processes the module provides two
//! *time-varying* (non-homogeneous) Poisson processes used by fleet-level
//! scenarios: [`PiecewiseRateArrivals`] (a rate schedule of constant-rate
//! segments, e.g. a flash crowd or a step sweep) and [`SinusoidArrivals`]
//! (a sinusoidally modulated rate, e.g. a compressed diurnal curve). Both
//! are generated by Lewis–Shedler thinning, so they stay exactly
//! reproducible under a fixed [`SimRng`] stream.

use apc_sim::rng::SimRng;
use apc_sim::SimDuration;

/// An open-loop arrival process producing inter-arrival gaps.
pub trait ArrivalProcess: std::fmt::Debug + Send {
    /// Draws the gap until the next request arrival.
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration;

    /// The long-run average arrival rate in requests per second.
    fn rate_per_sec(&self) -> f64;
}

/// A Poisson arrival process with exponential inter-arrival gaps.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    rate_per_sec: f64,
}

impl PoissonArrivals {
    /// Creates a Poisson process with the given request rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    #[must_use]
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "arrival rate must be positive"
        );
        PoissonArrivals { rate_per_sec }
    }
}

impl ArrivalProcess for PoissonArrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        let mean_ns = 1e9 / self.rate_per_sec;
        SimDuration::from_nanos(rng.exponential(mean_ns).round() as u64)
    }

    fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

/// A two-state (burst / quiet) Markov-modulated Poisson process.
///
/// While in the *burst* state arrivals follow a Poisson process at
/// `burst_multiplier ×` the average rate; in the *quiet* state the rate drops
/// so that the long-run average equals the configured rate. State holding
/// times are exponential. This captures the "bursty and unpredictable load"
/// the paper attributes to user-facing services.
#[derive(Debug, Clone)]
pub struct MmppArrivals {
    rate_per_sec: f64,
    burst_multiplier: f64,
    burst_fraction: f64,
    mean_burst: SimDuration,
    in_burst: bool,
    state_left: SimDuration,
}

impl MmppArrivals {
    /// Creates an MMPP with the given average rate.
    ///
    /// * `burst_multiplier` — how much faster arrivals come during a burst
    ///   (e.g. 3.0);
    /// * `burst_fraction` — long-run fraction of time spent in the burst
    ///   state (0–1);
    /// * `mean_burst` — mean burst episode duration.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive, the multiplier is < 1, or the
    /// fraction is outside (0, 1).
    #[must_use]
    pub fn new(
        rate_per_sec: f64,
        burst_multiplier: f64,
        burst_fraction: f64,
        mean_burst: SimDuration,
    ) -> Self {
        assert!(rate_per_sec.is_finite() && rate_per_sec > 0.0);
        assert!(burst_multiplier >= 1.0, "burst multiplier must be >= 1");
        assert!(
            burst_fraction > 0.0 && burst_fraction < 1.0,
            "burst fraction must be in (0, 1)"
        );
        MmppArrivals {
            rate_per_sec,
            burst_multiplier,
            burst_fraction,
            mean_burst,
            in_burst: false,
            state_left: SimDuration::ZERO,
        }
    }

    /// The arrival rate in the quiet state, derived so that the long-run
    /// average matches `rate_per_sec`.
    fn quiet_rate(&self) -> f64 {
        let burst_rate = self.rate_per_sec * self.burst_multiplier;
        let quiet =
            (self.rate_per_sec - self.burst_fraction * burst_rate) / (1.0 - self.burst_fraction);
        quiet.max(self.rate_per_sec * 0.01)
    }

    fn mean_quiet(&self) -> SimDuration {
        // Holding times chosen so the stationary burst fraction is honoured.
        let ratio = (1.0 - self.burst_fraction) / self.burst_fraction;
        self.mean_burst.mul_f64(ratio)
    }

    fn maybe_switch_state(&mut self, rng: &mut SimRng, consumed: SimDuration) {
        if self.state_left > consumed {
            self.state_left -= consumed;
            return;
        }
        // Switch states and draw a new holding time.
        self.in_burst = !self.in_burst;
        let mean = if self.in_burst {
            self.mean_burst
        } else {
            self.mean_quiet()
        };
        self.state_left =
            SimDuration::from_nanos(rng.exponential(mean.as_nanos() as f64).round() as u64);
    }
}

impl ArrivalProcess for MmppArrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        let rate = if self.in_burst {
            self.rate_per_sec * self.burst_multiplier
        } else {
            self.quiet_rate()
        };
        let gap = SimDuration::from_nanos(rng.exponential(1e9 / rate).round() as u64);
        self.maybe_switch_state(rng, gap);
        gap
    }

    fn rate_per_sec(&self) -> f64 {
        self.rate_per_sec
    }
}

/// One constant-rate span within a [`PiecewiseRateArrivals`] schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// How long the segment lasts.
    pub duration: SimDuration,
    /// Arrival rate during the segment, in requests per second.
    pub rate_per_sec: f64,
}

impl RateSegment {
    /// Creates a segment of the given length and rate.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero or the rate is negative or non-finite.
    #[must_use]
    pub fn new(duration: SimDuration, rate_per_sec: f64) -> Self {
        assert!(!duration.is_zero(), "segment duration must be positive");
        assert!(
            rate_per_sec.is_finite() && rate_per_sec >= 0.0,
            "segment rate must be non-negative"
        );
        RateSegment {
            duration,
            rate_per_sec,
        }
    }
}

/// A non-homogeneous Poisson process following a piecewise-constant rate
/// schedule.
///
/// The schedule either repeats cyclically (diurnal-style load curves) or
/// runs once, after which the final segment's rate holds forever
/// (flash-crowd style: base → burst → base). Gaps are drawn by thinning
/// against the schedule's peak rate, so the process is exactly as
/// deterministic as any other consumer of the shared [`SimRng`] stream.
#[derive(Debug, Clone)]
pub struct PiecewiseRateArrivals {
    segments: Vec<RateSegment>,
    repeat: bool,
    cycle: SimDuration,
    peak_rate: f64,
    mean_rate: f64,
    elapsed: SimDuration,
}

impl PiecewiseRateArrivals {
    /// Creates a process from a rate schedule.
    ///
    /// With `repeat = true` the schedule wraps around after its last
    /// segment; with `repeat = false` the last segment's rate extends beyond
    /// the end of the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty, if every segment's rate is zero, or
    /// (when not repeating) if the final segment's rate is zero — the
    /// process could otherwise never produce another arrival.
    #[must_use]
    pub fn new(segments: Vec<RateSegment>, repeat: bool) -> Self {
        assert!(!segments.is_empty(), "rate schedule must not be empty");
        let peak_rate = segments
            .iter()
            .map(|s| s.rate_per_sec)
            .fold(0.0_f64, f64::max);
        assert!(
            peak_rate > 0.0,
            "at least one segment rate must be positive"
        );
        if !repeat {
            assert!(
                segments.last().is_some_and(|s| s.rate_per_sec > 0.0),
                "final segment rate must be positive when the schedule does not repeat"
            );
        }
        let cycle: SimDuration = segments.iter().map(|s| s.duration).sum();
        let weighted: f64 = segments
            .iter()
            .map(|s| s.rate_per_sec * s.duration.as_secs_f64())
            .sum();
        PiecewiseRateArrivals {
            segments,
            repeat,
            cycle,
            peak_rate,
            mean_rate: weighted / cycle.as_secs_f64(),
            elapsed: SimDuration::ZERO,
        }
    }

    /// A flash-crowd schedule: `base` rate until `start`, then
    /// `base * peak_multiplier` for `burst`, then back to `base` forever.
    ///
    /// # Panics
    ///
    /// Panics if the base rate is not positive or the multiplier is < 1.
    #[must_use]
    pub fn flash_crowd(
        base_rate_per_sec: f64,
        peak_multiplier: f64,
        start: SimDuration,
        burst: SimDuration,
    ) -> Self {
        assert!(
            base_rate_per_sec.is_finite() && base_rate_per_sec > 0.0,
            "base rate must be positive"
        );
        assert!(peak_multiplier >= 1.0, "peak multiplier must be >= 1");
        PiecewiseRateArrivals::new(
            vec![
                RateSegment::new(start, base_rate_per_sec),
                RateSegment::new(burst, base_rate_per_sec * peak_multiplier),
                RateSegment::new(start, base_rate_per_sec),
            ],
            false,
        )
    }

    /// The instantaneous rate the schedule prescribes `elapsed` after the
    /// start of the process.
    #[must_use]
    fn rate_at(&self, elapsed: SimDuration) -> f64 {
        let mut t = if self.repeat {
            SimDuration::from_nanos(elapsed.as_nanos() % self.cycle.as_nanos().max(1))
        } else {
            elapsed
        };
        for seg in &self.segments {
            if t < seg.duration {
                return seg.rate_per_sec;
            }
            t -= seg.duration;
        }
        // Past the end of a non-repeating schedule: the last rate holds.
        self.segments.last().map_or(0.0, |s| s.rate_per_sec)
    }
}

impl ArrivalProcess for PiecewiseRateArrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        // Lewis–Shedler thinning: draw candidate arrivals at the peak rate,
        // accept each with probability rate(t) / peak.
        let start = self.elapsed;
        loop {
            let step = rng.exponential(1e9 / self.peak_rate).round().max(1.0) as u64;
            self.elapsed = self.elapsed.saturating_add(SimDuration::from_nanos(step));
            if rng.uniform() * self.peak_rate < self.rate_at(self.elapsed) {
                return self.elapsed - start;
            }
        }
    }

    /// The time-weighted mean rate of one pass over the schedule. For a
    /// repeating schedule this is the exact long-run average; for a one-shot
    /// schedule the rate eventually settles at the final segment's value, so
    /// the average over a specific horizon depends on that horizon — callers
    /// reporting a nominal offered rate (e.g. scenario tables) must compute
    /// it against their run duration.
    fn rate_per_sec(&self) -> f64 {
        self.mean_rate
    }
}

/// A non-homogeneous Poisson process whose rate follows a sinusoid:
/// `rate(t) = mean * (1 + amplitude * sin(2π t / period + phase))`.
///
/// With a period equal to the simulated duration this compresses a diurnal
/// utilisation curve into one run; shorter periods model tidal load shifts.
/// Gaps are drawn by thinning against the sinusoid's peak.
#[derive(Debug, Clone)]
pub struct SinusoidArrivals {
    mean_rate: f64,
    amplitude: f64,
    period: SimDuration,
    phase: f64,
    elapsed: SimDuration,
}

impl SinusoidArrivals {
    /// Creates a sinusoidally modulated process.
    ///
    /// * `mean_rate_per_sec` — long-run average arrival rate;
    /// * `amplitude` — relative swing in `[0, 1)` (0 = plain Poisson,
    ///   0.9 = rate oscillates between 0.1× and 1.9× the mean);
    /// * `period` — one full oscillation;
    /// * `phase` — phase offset in radians (0 starts at the mean, rising).
    ///
    /// # Panics
    ///
    /// Panics if the mean rate is not positive, the amplitude is outside
    /// `[0, 1)`, or the period is zero.
    #[must_use]
    pub fn new(mean_rate_per_sec: f64, amplitude: f64, period: SimDuration, phase: f64) -> Self {
        assert!(
            mean_rate_per_sec.is_finite() && mean_rate_per_sec > 0.0,
            "mean rate must be positive"
        );
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(!period.is_zero(), "period must be positive");
        SinusoidArrivals {
            mean_rate: mean_rate_per_sec,
            amplitude,
            period,
            phase,
            elapsed: SimDuration::ZERO,
        }
    }

    /// The instantaneous rate `elapsed` after the start of the process.
    #[must_use]
    fn rate_at(&self, elapsed: SimDuration) -> f64 {
        let t = elapsed.as_secs_f64() / self.period.as_secs_f64();
        self.mean_rate * (1.0 + self.amplitude * (std::f64::consts::TAU * t + self.phase).sin())
    }
}

impl ArrivalProcess for SinusoidArrivals {
    fn next_gap(&mut self, rng: &mut SimRng) -> SimDuration {
        // Thinning against the sinusoid's peak, as in
        // [`PiecewiseRateArrivals::next_gap`].
        let peak = self.mean_rate * (1.0 + self.amplitude);
        let start = self.elapsed;
        loop {
            let step = rng.exponential(1e9 / peak).round().max(1.0) as u64;
            self.elapsed = self.elapsed.saturating_add(SimDuration::from_nanos(step));
            if rng.uniform() * peak < self.rate_at(self.elapsed) {
                return self.elapsed - start;
            }
        }
    }

    fn rate_per_sec(&self) -> f64 {
        self.mean_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured_rate<A: ArrivalProcess>(a: &mut A, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        let total: SimDuration = (0..n).map(|_| a.next_gap(&mut rng)).sum();
        n as f64 / total.as_secs_f64()
    }

    #[test]
    fn poisson_rate_matches_configuration() {
        let mut p = PoissonArrivals::new(50_000.0);
        let r = measured_rate(&mut p, 100_000, 1);
        assert!((r - 50_000.0).abs() / 50_000.0 < 0.02, "rate {r}");
        assert_eq!(p.rate_per_sec(), 50_000.0);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn poisson_rejects_zero_rate() {
        let _ = PoissonArrivals::new(0.0);
    }

    #[test]
    fn mmpp_long_run_rate_matches_configuration() {
        let mut m = MmppArrivals::new(20_000.0, 4.0, 0.2, SimDuration::from_millis(2));
        let r = measured_rate(&mut m, 200_000, 2);
        assert!((r - 20_000.0).abs() / 20_000.0 < 0.10, "rate {r}");
        assert_eq!(m.rate_per_sec(), 20_000.0);
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare the coefficient of variation of inter-arrival gaps.
        let cv = |gaps: &[f64]| {
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let mut rng = SimRng::from_seed(3);
        let mut p = PoissonArrivals::new(10_000.0);
        let pg: Vec<f64> = (0..50_000)
            .map(|_| p.next_gap(&mut rng).as_nanos() as f64)
            .collect();
        let mut m = MmppArrivals::new(10_000.0, 6.0, 0.15, SimDuration::from_millis(1));
        let mg: Vec<f64> = (0..50_000)
            .map(|_| m.next_gap(&mut rng).as_nanos() as f64)
            .collect();
        assert!(
            cv(&mg) > cv(&pg),
            "MMPP cv {} vs Poisson cv {}",
            cv(&mg),
            cv(&pg)
        );
    }

    #[test]
    #[should_panic(expected = "burst fraction")]
    fn mmpp_rejects_bad_fraction() {
        let _ = MmppArrivals::new(1000.0, 2.0, 1.5, SimDuration::from_millis(1));
    }

    #[test]
    fn piecewise_long_run_rate_matches_schedule_mean() {
        let mut p = PiecewiseRateArrivals::new(
            vec![
                RateSegment::new(SimDuration::from_millis(10), 5_000.0),
                RateSegment::new(SimDuration::from_millis(10), 45_000.0),
            ],
            true,
        );
        assert_eq!(p.rate_per_sec(), 25_000.0);
        let r = measured_rate(&mut p, 200_000, 21);
        assert!((r - 25_000.0).abs() / 25_000.0 < 0.05, "rate {r}");
    }

    #[test]
    fn piecewise_tracks_segment_rates() {
        // 1 K QPS for 10 ms, then 10 K QPS for 10 ms, repeating: ~10x the
        // arrivals must land in the second half of each cycle.
        let mut p = PiecewiseRateArrivals::new(
            vec![
                RateSegment::new(SimDuration::from_millis(10), 1_000.0),
                RateSegment::new(SimDuration::from_millis(10), 10_000.0),
            ],
            true,
        );
        let mut rng = SimRng::from_seed(22);
        let mut t = SimDuration::ZERO;
        let (mut slow, mut fast) = (0u64, 0u64);
        for _ in 0..50_000 {
            t = t.saturating_add(p.next_gap(&mut rng));
            let in_cycle = t.as_nanos() % SimDuration::from_millis(20).as_nanos();
            if in_cycle < SimDuration::from_millis(10).as_nanos() {
                slow += 1;
            } else {
                fast += 1;
            }
        }
        let ratio = fast as f64 / slow.max(1) as f64;
        assert!((ratio - 10.0).abs() < 1.5, "fast/slow ratio {ratio}");
    }

    #[test]
    fn flash_crowd_burst_is_transient() {
        let mut p = PiecewiseRateArrivals::flash_crowd(
            2_000.0,
            8.0,
            SimDuration::from_millis(20),
            SimDuration::from_millis(10),
        );
        assert!((p.rate_at(SimDuration::from_millis(5)) - 2_000.0).abs() < 1e-9);
        assert!((p.rate_at(SimDuration::from_millis(25)) - 16_000.0).abs() < 1e-9);
        // Long after the schedule the base rate holds.
        assert!((p.rate_at(SimDuration::from_secs(10)) - 2_000.0).abs() < 1e-9);
        let mut rng = SimRng::from_seed(23);
        let mut t = SimDuration::ZERO;
        let mut in_burst = 0u64;
        let n = 20_000;
        for _ in 0..n {
            t = t.saturating_add(p.next_gap(&mut rng));
            if t >= SimDuration::from_millis(20) && t < SimDuration::from_millis(30) {
                in_burst += 1;
            }
        }
        // 10 ms at 16 K QPS => ~160 arrivals during the burst window.
        assert!((100..=220).contains(&in_burst), "burst arrivals {in_burst}");
    }

    #[test]
    fn sinusoid_long_run_rate_matches_mean() {
        let mut s = SinusoidArrivals::new(30_000.0, 0.8, SimDuration::from_millis(50), 0.0);
        assert_eq!(s.rate_per_sec(), 30_000.0);
        let r = measured_rate(&mut s, 300_000, 24);
        assert!((r - 30_000.0).abs() / 30_000.0 < 0.05, "rate {r}");
        // The instantaneous rate peaks a quarter period in and bottoms out at
        // three quarters.
        let peak = s.rate_at(SimDuration::from_micros(12_500));
        let trough = s.rate_at(SimDuration::from_micros(37_500));
        assert!((peak - 54_000.0).abs() < 1.0, "peak {peak}");
        assert!((trough - 6_000.0).abs() < 1.0, "trough {trough}");
    }

    #[test]
    fn time_varying_processes_are_deterministic() {
        let schedule = || {
            PiecewiseRateArrivals::new(
                vec![
                    RateSegment::new(SimDuration::from_millis(1), 4_000.0),
                    RateSegment::new(SimDuration::from_millis(3), 40_000.0),
                ],
                true,
            )
        };
        let gaps = |mut a: PiecewiseRateArrivals, seed| {
            let mut rng = SimRng::from_seed(seed);
            (0..2_000).map(|_| a.next_gap(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(gaps(schedule(), 9), gaps(schedule(), 9));
        assert_ne!(gaps(schedule(), 9), gaps(schedule(), 10));

        let sin_gaps = |seed| {
            let mut s = SinusoidArrivals::new(10_000.0, 0.5, SimDuration::from_millis(10), 1.0);
            let mut rng = SimRng::from_seed(seed);
            (0..2_000).map(|_| s.next_gap(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(sin_gaps(5), sin_gaps(5));
        assert_ne!(sin_gaps(5), sin_gaps(6));
    }

    #[test]
    #[should_panic(expected = "rate schedule must not be empty")]
    fn piecewise_rejects_empty_schedule() {
        let _ = PiecewiseRateArrivals::new(vec![], true);
    }

    #[test]
    #[should_panic(expected = "final segment rate must be positive")]
    fn piecewise_rejects_silent_tail() {
        let _ = PiecewiseRateArrivals::new(
            vec![
                RateSegment::new(SimDuration::from_millis(1), 1_000.0),
                RateSegment::new(SimDuration::from_millis(1), 0.0),
            ],
            false,
        );
    }

    #[test]
    #[should_panic(expected = "amplitude must be in [0, 1)")]
    fn sinusoid_rejects_overmodulation() {
        let _ = SinusoidArrivals::new(1_000.0, 1.2, SimDuration::from_millis(1), 0.0);
    }
}
