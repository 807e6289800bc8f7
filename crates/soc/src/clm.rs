//! The CLM domain: Caching-and-home-agent, Last-level cache and Mesh NoC.
//!
//! On SKX the LLC is distributed as one slice per core tile, each paired with
//! a caching/home agent (CHA) and a snoop filter (SF); a mesh NoC connects
//! the tiles to the IO controllers and memory controllers. Two FIVRs
//! (Vccclm0/Vccclm1) power the whole ensemble (paper Sec. 3 and Fig. 1).
//!
//! For package C-state purposes the CLM behaves as a single domain with two
//! operational knobs: its clock tree can be gated, and its voltage can be
//! dropped to a retention level at which state is preserved but no accesses
//! are possible.

use std::fmt;

use apc_sim::{SimDuration, SimTime};

use crate::changes::PowerChanges;
use crate::clock::ClockTree;
use crate::vr::Fivr;

/// Operational state of the CLM domain as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClmState {
    /// Clocked and at nominal voltage: LLC/CHA/mesh fully operational.
    Operational,
    /// Clock gated but voltage nominal (transient during flow entry/exit).
    ClockGated,
    /// Clock gated and voltage at retention: contents retained, not
    /// accessible. This is the PC1A / PC6 resident state.
    Retention,
}

impl fmt::Display for ClmState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClmState::Operational => "operational",
            ClmState::ClockGated => "clock-gated",
            ClmState::Retention => "retention",
        };
        f.write_str(s)
    }
}

/// The CLM domain: the LLC slices, CHAs, snoop filters and the mesh,
/// modelled as one unit powered by two FIVRs and clocked by one gateable
/// clock tree.
#[derive(Debug)]
pub struct ClmDomain {
    fivrs: [Fivr; 2],
    clock: ClockTree,
    /// Counts every change of [`ClmDomain::state`].
    changes: PowerChanges,
}

impl ClmDomain {
    /// Creates an operational CLM domain.
    pub(crate) fn new() -> Self {
        ClmDomain {
            fivrs: [Fivr::new_clm(), Fivr::new_clm()],
            clock: ClockTree::default(),
            changes: PowerChanges::default(),
        }
    }

    /// Makes the domain count its state changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        self.changes = changes.share();
    }

    /// Runs `change` and counts a change of [`ClmDomain::state`] if it
    /// made one.
    fn counted<T>(&mut self, change: impl FnOnce(&mut Self) -> T) -> T {
        let before = self.state();
        let out = change(self);
        if self.state() != before {
            self.changes.bump();
        }
        out
    }

    /// Access to the CLM clock tree.
    #[must_use]
    pub fn clock(&self) -> &ClockTree {
        &self.clock
    }

    /// The domain's aggregate operational state, derived from the clock tree
    /// and the FIVR targets.
    #[must_use]
    pub fn state(&self) -> ClmState {
        let at_retention = self.fivrs.iter().all(Fivr::at_or_below_retention);
        if at_retention {
            ClmState::Retention
        } else if self.clock.is_gated() {
            ClmState::ClockGated
        } else {
            ClmState::Operational
        }
    }

    /// `true` when both FIVRs report stable output (`PwrOk` AND-tree).
    #[must_use]
    pub fn pwr_ok(&self) -> bool {
        self.fivrs.iter().all(Fivr::pwr_ok)
    }

    /// Gates the CLM clock tree (`ClkGate` signal); returns the gate latency.
    pub fn clock_gate(&mut self) -> SimDuration {
        self.counted(|clm| clm.clock.gate())
    }

    /// Un-gates the CLM clock tree; returns the ungate latency.
    pub fn clock_ungate(&mut self) -> SimDuration {
        self.counted(|clm| clm.clock.ungate())
    }

    /// Asserts `Ret` on both CLM FIVRs (non-blocking voltage ramp to
    /// retention). Returns the worst-case time until both outputs are stable
    /// at retention.
    pub fn assert_retention(&mut self, now: SimTime) -> SimDuration {
        self.counted(|clm| {
            clm.fivrs
                .iter_mut()
                .map(|f| f.assert_ret(now))
                .fold(SimDuration::ZERO, SimDuration::max)
        })
    }

    /// De-asserts `Ret`: ramps both FIVRs back to nominal. Returns the
    /// worst-case time until `PwrOk`.
    pub fn deassert_retention(&mut self, now: SimTime) -> SimDuration {
        self.counted(|clm| {
            clm.fivrs
                .iter_mut()
                .map(|f| f.deassert_ret(now))
                .fold(SimDuration::ZERO, SimDuration::max)
        })
    }

    /// Marks the in-flight FIVR transitions complete (caller waited the
    /// duration returned by the assert/deassert call).
    pub fn complete_voltage_transition(&mut self, now: SimTime) {
        self.counted(|clm| {
            for f in &mut clm.fivrs {
                f.complete_transition(now);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_operational() {
        let clm = ClmDomain::new();
        assert_eq!(clm.state(), ClmState::Operational);
        assert!(clm.pwr_ok());
        assert_eq!(clm.state().to_string(), "operational");
    }

    #[test]
    fn retention_entry_and_exit() {
        let mut clm = ClmDomain::new();
        let t0 = SimTime::ZERO;

        let gate = clm.clock_gate();
        assert_eq!(gate, SimDuration::from_nanos(4));
        assert_eq!(clm.state(), ClmState::ClockGated);

        let ramp = clm.assert_retention(t0);
        assert_eq!(ramp, SimDuration::from_nanos(150));
        assert_eq!(clm.state(), ClmState::Retention);
        assert!(!clm.pwr_ok(), "still slewing");
        clm.complete_voltage_transition(t0 + ramp);
        assert!(clm.pwr_ok());

        // Exit: ramp up, then ungate.
        let up = clm.deassert_retention(SimTime::from_micros(1));
        assert_eq!(up, SimDuration::from_nanos(150));
        clm.complete_voltage_transition(SimTime::from_micros(1) + up);
        assert!(clm.pwr_ok());
        assert_eq!(clm.state(), ClmState::ClockGated);
        clm.clock_ungate();
        assert_eq!(clm.state(), ClmState::Operational);
    }

    #[test]
    fn aborted_retention_entry_ramps_back_from_partway() {
        // A wakeup 50 ns into the 150 ns downward ramp: the FIVRs have
        // dropped 100 mV, and only those have to be recovered.
        let mut clm = ClmDomain::new();
        clm.clock_gate();
        clm.assert_retention(SimTime::ZERO);
        let t = SimTime::from_nanos(50);
        let up = clm.deassert_retention(t);
        assert_eq!(up, SimDuration::from_nanos(50));
        assert_eq!(clm.state(), ClmState::ClockGated);
        assert!(!clm.pwr_ok(), "still slewing back");
        clm.complete_voltage_transition(t + up);
        assert!(clm.pwr_ok());
        clm.clock_ungate();
        assert_eq!(clm.state(), ClmState::Operational);
    }

    #[test]
    fn each_state_change_is_counted_once() {
        let mut clm = ClmDomain::new();
        clm.clock_ungate();
        assert_eq!(clm.changes.get(), 0, "ungating an ungated tree");
        clm.clock_gate();
        clm.clock_gate();
        assert_eq!(clm.changes.get(), 1, "operational -> clock-gated");
        let ramp = clm.assert_retention(SimTime::ZERO);
        assert_eq!(clm.changes.get(), 2, "-> retention");
        // Settling the ramp raises PwrOk but keeps the state.
        clm.complete_voltage_transition(SimTime::ZERO + ramp);
        assert_eq!(clm.changes.get(), 2);
        let t = SimTime::from_micros(1);
        let up = clm.deassert_retention(t);
        clm.complete_voltage_transition(t + up);
        assert_eq!(clm.changes.get(), 3, "-> clock-gated");
        clm.clock_ungate();
        assert_eq!(clm.changes.get(), 4, "-> operational");
        assert_eq!(clm.state(), ClmState::Operational);
    }
}
