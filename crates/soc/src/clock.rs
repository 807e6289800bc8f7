//! Clock distribution network (CDN) model.
//!
//! The CLMR technique clock-gates the CLM clock tree (a 1–2 cycle operation
//! in an optimised clock distribution system, paper Sec. 5.5.1) instead of
//! turning the CLM PLL off as PC6 does. This module models a gateable clock
//! tree and the power-management controller clock used to convert APMU FSM
//! cycles into nanoseconds.

use std::fmt;

use apc_sim::SimDuration;

/// A clock frequency in megahertz.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MegaHertz(pub u32);

impl MegaHertz {
    /// The period of one cycle at this frequency, rounded up to a whole
    /// nanosecond (we never under-estimate latency).
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[must_use]
    fn cycle_period(self) -> SimDuration {
        assert!(self.0 > 0, "cannot compute the period of a 0 MHz clock");
        SimDuration::from_nanos((1_000 / u64::from(self.0)).max(1))
    }

    /// The duration of `cycles` cycles at this frequency.
    #[must_use]
    pub fn cycles(self, cycles: u64) -> SimDuration {
        SimDuration::from_nanos(self.cycle_period().as_nanos() * cycles)
    }
}

impl fmt::Display for MegaHertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

/// The power-management controller clock frequency assumed by the paper's
/// latency analysis (Sec. 5.5.1: 500 MHz, i.e. 2 ns per cycle).
pub const PMU_CLOCK: MegaHertz = MegaHertz(500);

/// Gating state of a clock tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ClockGateState {
    /// Clock toggling, downstream logic operational.
    #[default]
    Running,
    /// Clock gated at the root; downstream logic frozen but state retained.
    Gated,
}

/// A gateable clock tree (e.g. the CLM clock distribution), created
/// running.
///
/// # Examples
///
/// ```
/// use apc_soc::clock::ClockTree;
///
/// let mut tree = ClockTree::default();
/// let latency = tree.gate();
/// assert_eq!(latency.as_nanos(), 4); // 2 cycles at 500 MHz
/// assert!(tree.is_gated());
/// ```
#[derive(Debug, Default)]
pub struct ClockTree {
    state: ClockGateState,
}

impl ClockTree {
    /// Number of controller cycles a gate/ungate operation takes
    /// (1–2 cycles per the paper; we use the conservative 2).
    const GATE_CYCLES: u64 = 2;

    /// `true` when the tree is gated.
    #[must_use]
    pub fn is_gated(&self) -> bool {
        self.state == ClockGateState::Gated
    }

    /// Gates the clock tree, returning the latency of the operation
    /// (2 controller cycles). Gating an already-gated tree is a no-op that
    /// costs nothing.
    pub fn gate(&mut self) -> SimDuration {
        if self.state == ClockGateState::Gated {
            return SimDuration::ZERO;
        }
        self.state = ClockGateState::Gated;
        PMU_CLOCK.cycles(Self::GATE_CYCLES)
    }

    /// Un-gates the clock tree, returning the latency of the operation.
    /// Un-gating a running tree costs nothing.
    pub fn ungate(&mut self) -> SimDuration {
        if self.state == ClockGateState::Running {
            return SimDuration::ZERO;
        }
        self.state = ClockGateState::Running;
        PMU_CLOCK.cycles(Self::GATE_CYCLES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmu_clock_period_is_2ns() {
        assert_eq!(PMU_CLOCK.cycle_period(), SimDuration::from_nanos(2));
        assert_eq!(PMU_CLOCK.cycles(2), SimDuration::from_nanos(4));
        assert_eq!(MegaHertz(1000).cycle_period(), SimDuration::from_nanos(1));
        assert_eq!(MegaHertz(500).to_string(), "500MHz");
    }

    #[test]
    #[should_panic(expected = "0 MHz")]
    fn zero_frequency_is_rejected() {
        let _ = MegaHertz(0).cycle_period();
    }

    #[test]
    fn gate_ungate_cycle() {
        let mut tree = ClockTree::default();
        assert!(!tree.is_gated());

        let g = tree.gate();
        assert_eq!(g, SimDuration::from_nanos(4));
        assert!(tree.is_gated());

        // Idempotent.
        assert_eq!(tree.gate(), SimDuration::ZERO);

        let u = tree.ungate();
        assert_eq!(u, SimDuration::from_nanos(4));
        assert!(!tree.is_gated());
        assert_eq!(tree.ungate(), SimDuration::ZERO);
    }
}
