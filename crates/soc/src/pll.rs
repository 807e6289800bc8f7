//! Phase-locked loop (PLL) model.
//!
//! The paper's fourth key technique is to **keep all PLLs locked** while in
//! PC1A, trading a tiny amount of power (modern all-digital PLLs consume
//! ≈7 mW each) for the elimination of the microsecond-scale re-locking
//! latency that PC6 pays on exit (Sec. 3, Sec. 5.4).
//!
//! No flow touches a core PLL, and the PC6 flow stops and re-locks every
//! uncore PLL together, so [`PllSet`] counts both kinds and holds one lock
//! state for the uncore PLLs.

use apc_sim::SimDuration;

use crate::changes::PowerChanges;

/// Lock state of a PLL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PllState {
    /// Powered and locked: downstream logic can be clocked immediately.
    Locked,
    /// Powered off (as in PC6).
    Off,
    /// Powering up / re-acquiring lock.
    Relocking,
}

/// The all-digital PLLs (ADPLLs) of one socket.
///
/// The SKX reference system has ~18 PLLs: one per core (10), one per
/// high-speed IO controller (3 PCIe + 1 DMI + 2 UPI = 6), one for the CLM and
/// memory controllers, one for the GPMU (paper Sec. 5.4). The core PLLs
/// stay locked; the other 8, the uncore PLLs, share one lock state. Their
/// power is the `PPLLs_diff` term of Eq. 2: it is what PC1A keeps on and
/// PC6 turns off.
///
/// # Examples
///
/// ```
/// use apc_soc::pll::{PllSet, PllState};
///
/// let mut plls = PllSet::new(10, 6);
/// plls.power_off_uncore();
/// let relock = plls.begin_relock_uncore();
/// assert!(relock.as_nanos() >= 1_000, "re-locking costs microseconds");
/// plls.complete_relock_uncore();
/// assert_eq!(plls.uncore_state(), PllState::Locked);
/// ```
#[derive(Debug)]
pub struct PllSet {
    core_count: usize,
    uncore_count: usize,
    uncore: PllState,
    /// Counts every change of `uncore`.
    changes: PowerChanges,
}

impl PllSet {
    /// Typical re-lock latency of a powered-off PLL ("a few microseconds",
    /// paper Sec. 1 and Sec. 4.3). We use 3 µs.
    const RELOCK_LATENCY: SimDuration = SimDuration::from_micros(3);

    /// Builds the PLL inventory for a socket with the given core and IO
    /// controller counts: one PLL per core and per IO controller, plus the
    /// CLM's and the GPMU's. Every PLL starts locked.
    #[must_use]
    pub fn new(core_count: usize, io_count: usize) -> Self {
        PllSet {
            core_count,
            uncore_count: io_count + 2,
            uncore: PllState::Locked,
            changes: PowerChanges::default(),
        }
    }

    /// Total number of PLLs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.core_count + self.uncore_count
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of uncore (non-core) PLLs.
    #[must_use]
    pub fn uncore_count(&self) -> usize {
        self.uncore_count
    }

    /// The lock state of every uncore PLL.
    #[must_use]
    pub fn uncore_state(&self) -> PllState {
        self.uncore
    }

    /// Turns every uncore PLL off (the PC6 entry flow, Fig. 2).
    pub fn power_off_uncore(&mut self) {
        if self.uncore != PllState::Off {
            self.changes.bump();
        }
        self.uncore = PllState::Off;
    }

    /// Begins re-locking powered-off uncore PLLs and returns the latency
    /// until [`PllSet::complete_relock_uncore`] may be called (the PC6 exit
    /// critical path contribution). Locked or already re-locking PLLs have
    /// nothing to start, which is exactly the PC1A fast-exit property.
    pub fn begin_relock_uncore(&mut self) -> SimDuration {
        if self.uncore != PllState::Off {
            return SimDuration::ZERO;
        }
        self.changes.bump();
        self.uncore = PllState::Relocking;
        Self::RELOCK_LATENCY
    }

    /// Completes an in-flight re-lock of the uncore PLLs; does nothing
    /// unless they are re-locking.
    pub fn complete_relock_uncore(&mut self) {
        if self.uncore == PllState::Relocking {
            self.changes.bump();
            self.uncore = PllState::Locked;
        }
    }

    /// Makes the set count its state changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        self.changes = changes.share();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skx_pll_inventory_matches_paper() {
        // 10 cores, 6 IO controllers (3 PCIe + 1 DMI + 2 UPI).
        let set = PllSet::new(10, 6);
        assert_eq!(set.len(), 18, "paper counts ~18 PLLs");
        assert_eq!(set.uncore_count(), 8, "8 non-core PLLs remain");
        assert_eq!(set.uncore_state(), PllState::Locked);
    }

    #[test]
    fn locked_pll_exits_with_zero_latency() {
        let mut set = PllSet::new(10, 6);
        assert_eq!(set.begin_relock_uncore(), SimDuration::ZERO);
        assert_eq!(set.uncore_state(), PllState::Locked);
    }

    #[test]
    fn off_pll_pays_relock_latency() {
        let mut set = PllSet::new(10, 6);
        set.power_off_uncore();
        assert_eq!(set.uncore_state(), PllState::Off);
        let lat = set.begin_relock_uncore();
        assert_eq!(lat, PllSet::RELOCK_LATENCY);
        assert_eq!(set.uncore_state(), PllState::Relocking);
        set.complete_relock_uncore();
        assert_eq!(set.uncore_state(), PllState::Locked);
    }

    #[test]
    fn each_lock_state_change_is_counted_once() {
        let mut set = PllSet::new(10, 6);
        assert_eq!(set.begin_relock_uncore(), SimDuration::ZERO);
        set.complete_relock_uncore();
        assert_eq!(set.changes.get(), 0, "a locked PLL has nothing to re-lock");
        set.power_off_uncore();
        set.power_off_uncore();
        assert_eq!(set.changes.get(), 1, "locked -> off");
        assert_eq!(set.begin_relock_uncore(), PllSet::RELOCK_LATENCY);
        // Asking again mid re-lock starts nothing and changes nothing.
        assert_eq!(set.begin_relock_uncore(), SimDuration::ZERO);
        assert_eq!(set.changes.get(), 2, "off -> relocking");
        set.complete_relock_uncore();
        set.complete_relock_uncore();
        assert_eq!(set.changes.get(), 3, "relocking -> locked");
    }

    #[test]
    fn complete_relock_requires_begin() {
        // Powered-off PLLs lock only after a re-lock has begun: completing
        // first cannot skip the re-lock latency.
        let mut set = PllSet::new(10, 6);
        set.power_off_uncore();
        set.complete_relock_uncore();
        assert_eq!(set.uncore_state(), PllState::Off);
        assert_eq!(set.begin_relock_uncore(), PllSet::RELOCK_LATENCY);
    }

    #[test]
    fn uncore_power_cycle() {
        // Every PC6 residency pays the re-lock again, and no cycle changes
        // the inventory: the core PLLs are never touched.
        let mut set = PllSet::new(10, 6);
        for _ in 0..2 {
            set.power_off_uncore();
            assert_eq!(set.uncore_state(), PllState::Off);
            assert_eq!(set.begin_relock_uncore(), PllSet::RELOCK_LATENCY);
            set.complete_relock_uncore();
            assert_eq!(set.uncore_state(), PllState::Locked);
            assert_eq!((set.len(), set.uncore_count()), (18, 8));
        }
    }
}
