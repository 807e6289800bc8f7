//! The fully-integrated voltage regulators (FIVRs) of the CLM domain.
//!
//! The CLM Retention technique (CLMR, paper Sec. 4.3 / 5.2) relies on the
//! fast, fully-integrated voltage regulators (FIVRs) that power the CLM
//! domain: APC adds a `Ret` input that makes the FIVR slew directly to a
//! pre-programmed retention voltage (held in a new 8-bit RVID register) and a
//! `PwrOk` output asserted when the voltage is stable at its target.
//!
//! The key quantitative property is the slew rate: ≥ 2 mV/ns, so the
//! 0.8 V → 0.5 V retention transition completes in ≤ 150 ns.

use std::fmt;

use apc_sim::{SimDuration, SimTime};

/// A voltage expressed in millivolts.
///
/// The VID register granularity of FIVR control is ~5–10 mV; millivolt
/// integers keep the arithmetic exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millivolts(pub u32);

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

/// Observable output state of a regulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VrState {
    /// Output stable at the programmed voltage; `PwrOk` asserted.
    Stable,
    /// Slewing towards a new target; `PwrOk` deasserted.
    Slewing,
}

/// A CLM FIVR (Vccclm0/Vccclm1) with linear slewing and preemptive voltage
/// commands.
///
/// "Preemptive voltage commands" (paper Sec. 5.5.2 footnote) means a new
/// target may be issued while a previous transition is still in flight; the
/// regulator abandons the old target and slews from wherever its output
/// currently is, which is what makes an interrupted PC1A entry cheap to
/// unwind.
///
/// # Examples
///
/// ```
/// use apc_soc::vr::Fivr;
/// use apc_sim::SimTime;
///
/// let mut fivr = Fivr::new_clm();
/// let transition = fivr.assert_ret(SimTime::ZERO);
/// assert_eq!(transition.as_nanos(), 150); // 300 mV at 2 mV/ns
/// assert!(!fivr.pwr_ok());
/// ```
#[derive(Debug)]
pub struct Fivr {
    /// Current output voltage (interpolated during slews at observation
    /// points; we track the value at `since`).
    output_mv: f64,
    target: Millivolts,
    state: VrState,
    since: SimTime,
}

impl Fivr {
    /// FIVR slew rate from the paper: ≥ 2 mV/ns.
    pub const SLEW_MV_PER_NS: f64 = 2.0;

    /// Nominal CLM operating voltage (~0.8 V, paper Sec. 5.5.1), what
    /// [`Fivr::deassert_ret`] returns to.
    pub const CLM_NOMINAL: Millivolts = Millivolts(800);

    /// CLM retention voltage (~0.5 V, paper Sec. 5.5.1), the value of the
    /// RVID register APC adds to the FIVR control module (Sec. 5.2).
    pub const CLM_RETENTION: Millivolts = Millivolts(500);

    /// Creates a CLM FIVR at nominal voltage.
    #[must_use]
    pub fn new_clm() -> Self {
        Fivr {
            output_mv: f64::from(Self::CLM_NOMINAL.0),
            target: Self::CLM_NOMINAL,
            state: VrState::Stable,
            since: SimTime::ZERO,
        }
    }

    /// The `PwrOk` status output: asserted only when the output voltage is
    /// stable at its target.
    #[must_use]
    pub fn pwr_ok(&self) -> bool {
        self.state == VrState::Stable
    }

    /// `true` when the output (or target, while slewing) is at or below the
    /// retention voltage — i.e. the domain must be treated as non-operational.
    #[must_use]
    pub fn at_or_below_retention(&self) -> bool {
        self.target <= Self::CLM_RETENTION
    }

    /// The output voltage at time `now`, linearly interpolated during slews.
    fn output_at(&self, now: SimTime) -> f64 {
        match self.state {
            VrState::Stable => f64::from(self.target.0),
            VrState::Slewing => {
                let elapsed_ns = now.saturating_since(self.since).as_nanos() as f64;
                let target = f64::from(self.target.0);
                let delta = target - self.output_mv;
                let travelled = Self::SLEW_MV_PER_NS * elapsed_ns;
                if travelled >= delta.abs() {
                    target
                } else {
                    self.output_mv + delta.signum() * travelled
                }
            }
        }
    }

    /// Issues a new voltage target at time `now` and returns the time until
    /// the output is stable (`PwrOk`). Supports preemptive commands: if a
    /// transition is in flight the regulator re-targets from the interpolated
    /// current output.
    fn set_target(&mut self, now: SimTime, target: Millivolts) -> SimDuration {
        let current = self.output_at(now);
        self.output_mv = current;
        self.target = target;
        self.since = now;
        let delta_mv = (f64::from(target.0) - current).abs();
        if delta_mv < f64::EPSILON {
            self.state = VrState::Stable;
            return SimDuration::ZERO;
        }
        self.state = VrState::Slewing;
        SimDuration::from_nanos((delta_mv / Self::SLEW_MV_PER_NS).ceil() as u64)
    }

    /// Asserting the `Ret` signal: slews to the retention voltage. Returns
    /// the transition time.
    pub fn assert_ret(&mut self, now: SimTime) -> SimDuration {
        self.set_target(now, Self::CLM_RETENTION)
    }

    /// De-asserting `Ret`: slews back to the nominal operational voltage.
    /// Returns the transition time until `PwrOk`.
    pub fn deassert_ret(&mut self, now: SimTime) -> SimDuration {
        self.set_target(now, Self::CLM_NOMINAL)
    }

    /// Marks an in-flight transition as complete (the caller is responsible
    /// for waiting the duration returned by [`Fivr::assert_ret`] or
    /// [`Fivr::deassert_ret`]).
    pub fn complete_transition(&mut self, now: SimTime) {
        self.output_mv = f64::from(self.target.0);
        self.state = VrState::Stable;
        self.since = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_transition_takes_150ns() {
        let mut fivr = Fivr::new_clm();
        let d = fivr.assert_ret(SimTime::ZERO);
        assert_eq!(d, SimDuration::from_nanos(150));
        assert!(!fivr.pwr_ok());
        assert!(fivr.at_or_below_retention());
        fivr.complete_transition(SimTime::from_nanos(150));
        assert!(fivr.pwr_ok());

        let up = fivr.deassert_ret(SimTime::from_nanos(200));
        assert_eq!(up, SimDuration::from_nanos(150));
        fivr.complete_transition(SimTime::from_nanos(350));
        assert!(fivr.pwr_ok());
        assert!(!fivr.at_or_below_retention());
    }

    #[test]
    fn preemptive_command_retargets_mid_slew() {
        let mut fivr = Fivr::new_clm();
        // Start ramping down at t=0; 150 ns to finish.
        fivr.assert_ret(SimTime::ZERO);
        // 50 ns in, the flow is interrupted: ramp back up.
        let now = SimTime::from_nanos(50);
        let out = fivr.output_at(now);
        assert!((out - 700.0).abs() < 1.0, "expected ~700 mV, got {out}");
        let back = fivr.deassert_ret(now);
        // Only ~100 mV must be recovered: ~50 ns, not 150 ns.
        assert!(back <= SimDuration::from_nanos(51), "got {back}");
    }

    #[test]
    fn same_target_is_instant() {
        let mut fivr = Fivr::new_clm();
        let d = fivr.set_target(SimTime::ZERO, Fivr::CLM_NOMINAL);
        assert_eq!(d, SimDuration::ZERO);
        assert!(fivr.pwr_ok());
    }

    #[test]
    fn millivolt_helpers() {
        assert_eq!(Millivolts(800).to_string(), "800mV");
    }

    #[test]
    fn output_interpolation_clamps_at_target() {
        let mut fivr = Fivr::new_clm();
        fivr.assert_ret(SimTime::ZERO);
        // Long after the transition would be done, interpolation returns the
        // target even if complete_transition has not been called yet.
        assert!((fivr.output_at(SimTime::from_micros(5)) - 500.0).abs() < 1e-9);
    }
}
