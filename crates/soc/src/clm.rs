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
use crate::clock::{ClockTree, PMU_CLOCK};
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

/// One LLC slice with its CHA and snoop filter (per core tile).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcSlice {
    /// Tile index this slice belongs to.
    pub tile: usize,
    /// Slice capacity in KiB (1.375 MiB per tile on SKX).
    pub capacity_kib: u32,
}

/// The CLM domain: all LLC slices, CHAs, the snoop filters and the mesh,
/// powered by two FIVRs and clocked by one gateable clock tree.
#[derive(Debug, Clone)]
pub struct ClmDomain {
    slices: Vec<LlcSlice>,
    fivrs: [Fivr; 2],
    clock: ClockTree,
    mesh_columns: usize,
    mesh_rows: usize,
    /// Counts every change of [`ClmDomain::state`].
    changes: PowerChanges,
}

impl ClmDomain {
    /// LLC slice capacity per tile on SKX (1.375 MiB).
    pub const SLICE_CAPACITY_KIB: u32 = 1408;

    /// Creates the CLM domain for a socket with `tiles` core tiles arranged
    /// in a mesh of the given dimensions.
    #[must_use]
    pub fn new(tiles: usize, mesh_columns: usize, mesh_rows: usize) -> Self {
        ClmDomain {
            slices: (0..tiles)
                .map(|tile| LlcSlice {
                    tile,
                    capacity_kib: Self::SLICE_CAPACITY_KIB,
                })
                .collect(),
            fivrs: [Fivr::new_clm("vccclm0"), Fivr::new_clm("vccclm1")],
            clock: ClockTree::new("clm", PMU_CLOCK),
            mesh_columns,
            mesh_rows,
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

    /// Number of LLC slices (== number of core tiles).
    #[must_use]
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Total LLC capacity in KiB.
    #[must_use]
    pub fn total_llc_kib(&self) -> u64 {
        self.slices.iter().map(|s| u64::from(s.capacity_kib)).sum()
    }

    /// Iterator over the LLC slices.
    pub fn slices(&self) -> impl Iterator<Item = &LlcSlice> {
        self.slices.iter()
    }

    /// Mesh dimensions as `(columns, rows)`.
    #[must_use]
    pub fn mesh_dimensions(&self) -> (usize, usize) {
        (self.mesh_columns, self.mesh_rows)
    }

    /// Access to the two CLM FIVRs.
    #[must_use]
    pub fn fivrs(&self) -> &[Fivr; 2] {
        &self.fivrs
    }

    /// Mutable access to the two CLM FIVRs. Handing them out counts as a
    /// change of [`ClmDomain::state`], since it cannot be seen.
    pub fn fivrs_mut(&mut self) -> &mut [Fivr; 2] {
        self.changes.bump();
        &mut self.fivrs
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
    pub fn clock_gate(&mut self, now: SimTime) -> SimDuration {
        self.counted(|clm| clm.clock.gate(now))
    }

    /// Un-gates the CLM clock tree; returns the ungate latency.
    pub fn clock_ungate(&mut self, now: SimTime) -> SimDuration {
        self.counted(|clm| clm.clock.ungate(now))
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
    use crate::vr::Millivolts;

    #[test]
    fn skx_clm_capacity() {
        let clm = ClmDomain::new(10, 5, 4);
        assert_eq!(clm.slice_count(), 10);
        // 10 x 1.375 MiB = 13.75 MiB.
        assert_eq!(clm.total_llc_kib(), 14_080);
        assert_eq!(clm.mesh_dimensions(), (5, 4));
        assert_eq!(clm.slices().count(), 10);
    }

    #[test]
    fn initial_state_is_operational() {
        let clm = ClmDomain::new(10, 5, 4);
        assert_eq!(clm.state(), ClmState::Operational);
        assert!(clm.pwr_ok());
        assert_eq!(clm.state().to_string(), "operational");
    }

    #[test]
    fn retention_entry_and_exit() {
        let mut clm = ClmDomain::new(10, 5, 4);
        let t0 = SimTime::ZERO;

        let gate = clm.clock_gate(t0);
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
        clm.clock_ungate(SimTime::from_micros(2));
        assert_eq!(clm.state(), ClmState::Operational);
    }

    #[test]
    fn custom_retention_vid_shortens_ramp() {
        let mut clm = ClmDomain::new(10, 5, 4);
        for f in clm.fivrs_mut() {
            f.program_retention_vid(Millivolts(700));
        }
        let ramp = clm.assert_retention(SimTime::ZERO);
        assert_eq!(ramp, SimDuration::from_nanos(50));
    }

    #[test]
    fn fivr_names_match_skx() {
        let clm = ClmDomain::new(10, 5, 4);
        let names: Vec<_> = clm.fivrs().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["vccclm0", "vccclm1"]);
    }
}
