//! Phase-locked loop (PLL) model.
//!
//! The paper's fourth key technique is to **keep all PLLs locked** while in
//! PC1A, trading a tiny amount of power (modern all-digital PLLs consume
//! ≈7 mW each) for the elimination of the microsecond-scale re-locking
//! latency that PC6 pays on exit (Sec. 3, Sec. 5.4).

use std::fmt;

use apc_sim::SimDuration;

use crate::changes::PowerChanges;

/// What a PLL is clocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PllDomain {
    /// One per CPU core.
    Core(usize),
    /// The CLM (CHA/LLC/mesh) and memory-controller clock.
    Clm,
    /// One per high-speed IO controller (PCIe/DMI/UPI).
    Io(usize),
    /// The global power-management unit's own clock.
    Gpmu,
}

impl fmt::Display for PllDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PllDomain::Core(i) => write!(f, "pll-core{i}"),
            PllDomain::Clm => write!(f, "pll-clm"),
            PllDomain::Io(i) => write!(f, "pll-io{i}"),
            PllDomain::Gpmu => write!(f, "pll-gpmu"),
        }
    }
}

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

/// An all-digital PLL (ADPLL) as used across the SKX uncore and cores.
/// PLLs live in a [`PllSet`], the only way to mutate them.
#[derive(Debug)]
pub struct Pll {
    domain: PllDomain,
    state: PllState,
    /// Counts every change of `state`.
    changes: PowerChanges,
}

impl Pll {
    /// Typical re-lock latency of a powered-off PLL ("a few microseconds",
    /// paper Sec. 1 and Sec. 4.3). We use 3 µs.
    const RELOCK_LATENCY: SimDuration = SimDuration::from_micros(3);

    /// Creates an all-digital PLL for the given domain, initially locked.
    fn new_adpll(domain: PllDomain) -> Self {
        Pll {
            domain,
            state: PllState::Locked,
            changes: PowerChanges::default(),
        }
    }

    /// Current lock state.
    #[must_use]
    pub fn state(&self) -> PllState {
        self.state
    }

    /// Powers the PLL off (PC6 entry flow, Fig. 2).
    fn power_off(&mut self) {
        if self.state != PllState::Off {
            self.changes.bump();
        }
        self.state = PllState::Off;
    }

    /// Begins re-locking a powered-off PLL and returns the latency until
    /// [`Pll::complete_relock`] may be called. Calling this on a locked PLL
    /// returns zero (nothing to do), which is exactly the PC1A fast-exit
    /// property.
    fn begin_relock(&mut self) -> SimDuration {
        match self.state {
            PllState::Locked => SimDuration::ZERO,
            PllState::Relocking => Self::RELOCK_LATENCY,
            PllState::Off => {
                self.changes.bump();
                self.state = PllState::Relocking;
                Self::RELOCK_LATENCY
            }
        }
    }

    /// Completes an in-flight re-lock.
    ///
    /// # Panics
    ///
    /// Panics if the PLL is not re-locking.
    fn complete_relock(&mut self) {
        assert_eq!(
            self.state,
            PllState::Relocking,
            "{}: complete_relock without begin_relock",
            self.domain
        );
        self.changes.bump();
        self.state = PllState::Locked;
    }
}

/// The collection of PLLs of one socket.
///
/// The SKX reference system has ~18 PLLs: one per core (10), one per
/// high-speed IO controller (3 PCIe + 1 DMI + 2 UPI = 6), one for the CLM and
/// memory controllers, one for the GPMU (paper Sec. 5.4).
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
/// assert!(plls.iter().all(|p| p.state() == PllState::Locked));
/// ```
#[derive(Debug)]
pub struct PllSet {
    plls: Vec<Pll>,
    core_count: usize,
}

impl PllSet {
    /// Builds the PLL inventory for a socket with the given core and IO
    /// controller counts.
    #[must_use]
    pub fn new(core_count: usize, io_count: usize) -> Self {
        let mut plls = Vec::with_capacity(core_count + io_count + 2);
        for i in 0..core_count {
            plls.push(Pll::new_adpll(PllDomain::Core(i)));
        }
        for i in 0..io_count {
            plls.push(Pll::new_adpll(PllDomain::Io(i)));
        }
        plls.push(Pll::new_adpll(PllDomain::Clm));
        plls.push(Pll::new_adpll(PllDomain::Gpmu));
        PllSet { plls, core_count }
    }

    /// Total number of PLLs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plls.len()
    }

    /// `true` when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plls.is_empty()
    }

    /// Iterator over all PLLs.
    pub fn iter(&self) -> impl Iterator<Item = &Pll> {
        self.plls.iter()
    }

    /// The PLLs that are *not* per-core (uncore PLLs): every PLL after the
    /// per-core ones, which [`PllSet::new`] lays out first. Their power is
    /// the `PPLLs_diff` term of Eq. 2: it is what PC1A keeps on and PC6
    /// turns off.
    pub fn uncore_plls(&self) -> impl Iterator<Item = &Pll> {
        self.plls[self.core_count..].iter()
    }

    /// Turns every uncore PLL off (the PC6 entry flow).
    pub fn power_off_uncore(&mut self) {
        for pll in &mut self.plls[self.core_count..] {
            pll.power_off();
        }
    }

    /// Begins re-locking every powered-off uncore PLL and returns the worst
    /// re-lock latency across them (the PC6 exit critical path contribution).
    pub fn begin_relock_uncore(&mut self) -> SimDuration {
        let mut worst = SimDuration::ZERO;
        for pll in &mut self.plls[self.core_count..] {
            if pll.state() == PllState::Off {
                worst = worst.max(pll.begin_relock());
            }
        }
        worst
    }

    /// Makes every PLL count its state changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        for pll in &mut self.plls {
            pll.changes = changes.share();
        }
    }

    /// Completes re-lock on every re-locking PLL.
    pub fn complete_relock_uncore(&mut self) {
        for pll in self.plls.iter_mut() {
            if pll.state() == PllState::Relocking {
                pll.complete_relock();
            }
        }
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
        assert_eq!(set.uncore_plls().count(), 8, "8 non-core PLLs remain");
        assert!(set
            .uncore_plls()
            .all(|p| !matches!(p.domain, PllDomain::Core(_))));
    }

    #[test]
    fn locked_pll_exits_with_zero_latency() {
        let mut pll = Pll::new_adpll(PllDomain::Io(0));
        assert_eq!(pll.begin_relock(), SimDuration::ZERO);
        assert_eq!(pll.state(), PllState::Locked);
    }

    #[test]
    fn off_pll_pays_relock_latency() {
        let mut pll = Pll::new_adpll(PllDomain::Clm);
        pll.power_off();
        assert_eq!(pll.state(), PllState::Off);
        let lat = pll.begin_relock();
        assert_eq!(lat, Pll::RELOCK_LATENCY);
        assert_eq!(pll.state(), PllState::Relocking);
        pll.complete_relock();
        assert_eq!(pll.state(), PllState::Locked);
    }

    #[test]
    fn each_lock_state_change_is_counted_once() {
        let mut pll = Pll::new_adpll(PllDomain::Clm);
        assert_eq!(pll.begin_relock(), SimDuration::ZERO);
        assert_eq!(pll.changes.get(), 0, "a locked PLL has nothing to re-lock");
        pll.power_off();
        pll.power_off();
        assert_eq!(pll.changes.get(), 1, "locked -> off");
        assert_eq!(pll.begin_relock(), Pll::RELOCK_LATENCY);
        // Asking again mid re-lock reports the latency and changes nothing.
        assert_eq!(pll.begin_relock(), Pll::RELOCK_LATENCY);
        assert_eq!(pll.changes.get(), 2, "off -> relocking");
        pll.complete_relock();
        assert_eq!(pll.changes.get(), 3, "relocking -> locked");
    }

    #[test]
    #[should_panic(expected = "complete_relock without begin_relock")]
    fn complete_relock_requires_begin() {
        let mut pll = Pll::new_adpll(PllDomain::Gpmu);
        pll.complete_relock();
    }

    #[test]
    fn uncore_power_cycle() {
        let mut set = PllSet::new(10, 6);
        set.power_off_uncore();
        assert!(set.uncore_plls().all(|p| p.state() == PllState::Off));
        // Core PLLs untouched.
        assert!(set
            .iter()
            .filter(|p| matches!(p.domain, PllDomain::Core(_)))
            .all(|p| p.state() == PllState::Locked));

        let worst = set.begin_relock_uncore();
        assert_eq!(worst, Pll::RELOCK_LATENCY);
        set.complete_relock_uncore();
        assert!(set.iter().all(|p| p.state() == PllState::Locked));
    }

    #[test]
    fn domain_display() {
        assert_eq!(PllDomain::Core(2).to_string(), "pll-core2");
        assert_eq!(PllDomain::Clm.to_string(), "pll-clm");
        assert_eq!(PllDomain::Io(1).to_string(), "pll-io1");
        assert_eq!(PllDomain::Gpmu.to_string(), "pll-gpmu");
    }
}
