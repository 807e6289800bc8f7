//! Phase-locked loop (PLL) model.
//!
//! The paper's fourth key technique is to **keep all PLLs locked** while in
//! PC1A, trading a tiny amount of power (modern all-digital PLLs consume
//! ≈7 mW each) for the elimination of the microsecond-scale re-locking
//! latency that PC6 pays on exit (Sec. 3, Sec. 5.4).

use std::fmt;

use apc_sim::{SimDuration, SimTime};

use crate::changes::PowerChanges;

/// What a PLL is clocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PllDomain {
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
///
/// # Examples
///
/// ```
/// use apc_soc::pll::{Pll, PllDomain, PllState};
/// use apc_sim::SimTime;
///
/// let mut pll = Pll::new_adpll(PllDomain::Clm);
/// assert_eq!(pll.state(), PllState::Locked);
///
/// let t = SimTime::from_micros(1);
/// pll.power_off(t);
/// let relock = pll.begin_relock(t);
/// assert!(relock.as_micros() >= 1, "re-locking costs microseconds");
/// pll.complete_relock(t + relock);
/// assert_eq!(pll.state(), PllState::Locked);
/// ```
#[derive(Debug, Clone)]
pub struct Pll {
    domain: PllDomain,
    state: PllState,
    /// Power drawn while locked.
    active_power_w: f64,
    /// Time to re-acquire lock from the off state.
    relock_latency: SimDuration,
    since: SimTime,
    relocks: u64,
    /// Counts every change of `state`.
    changes: PowerChanges,
}

impl Pll {
    /// Power of one all-digital PLL while locked (paper Sec. 5.4: 7 mW,
    /// roughly constant across voltage/frequency).
    pub const ADPLL_ACTIVE_POWER_W: f64 = 0.007;

    /// Typical re-lock latency of a powered-off PLL ("a few microseconds",
    /// paper Sec. 1 and Sec. 4.3). We use 3 µs.
    pub const RELOCK_LATENCY: SimDuration = SimDuration::from_micros(3);

    /// Creates an all-digital PLL for the given domain, initially locked.
    #[must_use]
    pub fn new_adpll(domain: PllDomain) -> Self {
        Pll {
            domain,
            state: PllState::Locked,
            active_power_w: Self::ADPLL_ACTIVE_POWER_W,
            relock_latency: Self::RELOCK_LATENCY,
            since: SimTime::ZERO,
            relocks: 0,
            changes: PowerChanges::default(),
        }
    }

    /// The domain this PLL clocks.
    #[must_use]
    pub fn domain(&self) -> PllDomain {
        self.domain
    }

    /// Current lock state.
    #[must_use]
    pub fn state(&self) -> PllState {
        self.state
    }

    /// Timestamp of the last state change.
    #[must_use]
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Number of completed re-lock operations.
    #[must_use]
    pub fn relocks(&self) -> u64 {
        self.relocks
    }

    /// Instantaneous power draw in watts for the current state.
    /// A re-locking PLL is modelled at full power (it is charging loops and
    /// running calibration).
    #[must_use]
    pub fn power_w(&self) -> f64 {
        match self.state {
            PllState::Locked | PllState::Relocking => self.active_power_w,
            PllState::Off => 0.0,
        }
    }

    /// The re-lock latency this PLL pays when powered back on.
    #[must_use]
    pub fn relock_latency(&self) -> SimDuration {
        self.relock_latency
    }

    /// Powers the PLL off (PC6 entry flow, Fig. 2).
    pub fn power_off(&mut self, now: SimTime) {
        if self.state != PllState::Off {
            self.changes.bump();
        }
        self.state = PllState::Off;
        self.since = now;
    }

    /// Begins re-locking a powered-off PLL and returns the latency until
    /// [`Pll::complete_relock`] may be called. Calling this on a locked PLL
    /// returns zero (nothing to do), which is exactly the PC1A fast-exit
    /// property.
    pub fn begin_relock(&mut self, now: SimTime) -> SimDuration {
        match self.state {
            PllState::Locked => SimDuration::ZERO,
            PllState::Relocking => self.relock_latency,
            PllState::Off => {
                self.changes.bump();
                self.state = PllState::Relocking;
                self.since = now;
                self.relock_latency
            }
        }
    }

    /// Completes an in-flight re-lock.
    ///
    /// # Panics
    ///
    /// Panics if the PLL is not re-locking.
    pub fn complete_relock(&mut self, now: SimTime) {
        assert_eq!(
            self.state,
            PllState::Relocking,
            "{}: complete_relock without begin_relock",
            self.domain
        );
        self.changes.bump();
        self.state = PllState::Locked;
        self.since = now;
        self.relocks += 1;
    }
}

/// The collection of PLLs of one socket.
///
/// The SKX reference system has ~18 PLLs: one per core (10), one per
/// high-speed IO controller (3 PCIe + 1 DMI + 2 UPI = 6), one for the CLM and
/// memory controllers, one for the GPMU (paper Sec. 5.4).
#[derive(Debug, Clone)]
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

    /// Mutable iterator over all PLLs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Pll> {
        self.plls.iter_mut()
    }

    /// The PLLs that are *not* per-core (uncore PLLs): every PLL after the
    /// per-core ones, which [`PllSet::new`] lays out first. Their power is
    /// the `PPLLs_diff` term of Eq. 2: it is what PC1A keeps on and PC6
    /// turns off.
    pub fn uncore_plls(&self) -> impl Iterator<Item = &Pll> {
        self.plls[self.core_count..].iter()
    }

    /// Aggregate power of the uncore PLLs when locked, in watts.
    #[must_use]
    pub fn uncore_locked_power_w(&self) -> f64 {
        self.uncore_plls().count() as f64 * Pll::ADPLL_ACTIVE_POWER_W
    }

    /// Number of per-core PLLs.
    #[must_use]
    pub fn core_pll_count(&self) -> usize {
        self.core_count
    }

    /// Turns every uncore PLL off (the PC6 entry flow).
    pub fn power_off_uncore(&mut self, now: SimTime) {
        for pll in self
            .plls
            .iter_mut()
            .filter(|p| !matches!(p.domain(), PllDomain::Core(_)))
        {
            pll.power_off(now);
        }
    }

    /// Begins re-locking every powered-off uncore PLL and returns the worst
    /// re-lock latency across them (the PC6 exit critical path contribution).
    pub fn begin_relock_uncore(&mut self, now: SimTime) -> SimDuration {
        let mut worst = SimDuration::ZERO;
        for pll in self
            .plls
            .iter_mut()
            .filter(|p| !matches!(p.domain(), PllDomain::Core(_)))
        {
            if pll.state() == PllState::Off {
                worst = worst.max(pll.begin_relock(now));
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
    pub fn complete_relock_uncore(&mut self, now: SimTime) {
        for pll in self.plls.iter_mut() {
            if pll.state() == PllState::Relocking {
                pll.complete_relock(now);
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
        assert_eq!(set.core_pll_count(), 10);
        assert_eq!(set.uncore_plls().count(), 8, "8 non-core PLLs remain");
        // PPLLs_diff = 8 * 7mW = 56 mW.
        assert!((set.uncore_locked_power_w() - 0.056).abs() < 1e-12);
    }

    #[test]
    fn locked_pll_exits_with_zero_latency() {
        let mut pll = Pll::new_adpll(PllDomain::Io(0));
        assert_eq!(pll.begin_relock(SimTime::ZERO), SimDuration::ZERO);
        assert_eq!(pll.state(), PllState::Locked);
    }

    #[test]
    fn off_pll_pays_relock_latency() {
        let mut pll = Pll::new_adpll(PllDomain::Clm);
        pll.power_off(SimTime::ZERO);
        assert_eq!(pll.power_w(), 0.0);
        let lat = pll.begin_relock(SimTime::from_micros(5));
        assert_eq!(lat, Pll::RELOCK_LATENCY);
        assert_eq!(pll.state(), PllState::Relocking);
        assert!(pll.power_w() > 0.0);
        pll.complete_relock(SimTime::from_micros(8));
        assert_eq!(pll.state(), PllState::Locked);
        assert_eq!(pll.relocks(), 1);
    }

    #[test]
    #[should_panic(expected = "complete_relock without begin_relock")]
    fn complete_relock_requires_begin() {
        let mut pll = Pll::new_adpll(PllDomain::Gpmu);
        pll.complete_relock(SimTime::ZERO);
    }

    #[test]
    fn uncore_power_cycle() {
        let mut set = PllSet::new(10, 6);
        let now = SimTime::from_micros(1);
        set.power_off_uncore(now);
        assert!(set.uncore_plls().all(|p| p.state() == PllState::Off));
        // Core PLLs untouched.
        assert!(set
            .iter()
            .filter(|p| matches!(p.domain(), PllDomain::Core(_)))
            .all(|p| p.state() == PllState::Locked));

        let worst = set.begin_relock_uncore(SimTime::from_micros(2));
        assert_eq!(worst, Pll::RELOCK_LATENCY);
        set.complete_relock_uncore(SimTime::from_micros(6));
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
