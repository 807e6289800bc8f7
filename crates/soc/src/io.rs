//! High-speed IO controllers (PCIe, DMI, UPI) and their link power states.
//!
//! The IO Standby Mode (IOSM, paper Sec. 4.2) rests on the observation that
//! the *shallow* link power states L0s/L0p have nanosecond-scale exit
//! latencies (≤ 64 ns / ≈ 10 ns) yet still save roughly half of the active
//! link power — but server BIOS guides disable them to protect latency.
//! APC re-enables them *only when all cores are idle* through a new
//! `AllowL0s` control signal, and adds an `InL0s` status output from each
//! controller's LTSSM so the APMU can tell when every link has reached its
//! standby state.

use std::fmt;

use apc_sim::{SimDuration, SimTime};

use crate::changes::PowerChanges;

/// Kinds of high-speed IO interface present in the SKX north cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// PCI Express root port (x16).
    Pcie,
    /// Direct Media Interface to the chipset.
    Dmi,
    /// Ultra Path Interconnect to the other socket.
    Upi,
}

impl IoKind {
    /// The shallow standby state this interface supports: PCIe and DMI use
    /// L0s; UPI does not implement L0s and uses L0p instead
    /// (paper footnote 3).
    #[must_use]
    fn shallow_state(self) -> LinkPowerState {
        match self {
            IoKind::Pcie | IoKind::Dmi => LinkPowerState::L0s,
            IoKind::Upi => LinkPowerState::L0p,
        }
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IoKind::Pcie => "PCIe",
            IoKind::Dmi => "DMI",
            IoKind::Upi => "UPI",
        };
        f.write_str(s)
    }
}

/// Identifier of an IO controller within the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IoId(pub usize);

impl fmt::Display for IoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "io{}", self.0)
    }
}

/// Link power states (L-states), Sec. 3.1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkPowerState {
    /// Active: full bandwidth, minimum latency.
    L0,
    /// Partial-width standby: half the lanes asleep, ~10 ns exit, ~25% power
    /// saving. UPI's shallow state.
    L0p,
    /// Standby: lanes asleep, PLL and reference clock on, <64 ns exit, ~50%
    /// power saving.
    L0s,
    /// Power-off: link must retrain and PLLs restart; several µs exit.
    L1,
    /// No device attached (deeper than L1); only reachable at enumeration
    /// time, included for completeness.
    Nda,
}

impl LinkPowerState {
    /// Worst-case exit latency back to L0 from this state.
    #[must_use]
    fn exit_latency(self) -> SimDuration {
        match self {
            LinkPowerState::L0 => SimDuration::ZERO,
            LinkPowerState::L0p => SimDuration::from_nanos(10),
            LinkPowerState::L0s => SimDuration::from_nanos(64),
            LinkPowerState::L1 => SimDuration::from_micros(5),
            LinkPowerState::Nda => SimDuration::from_micros(100),
        }
    }

    /// `true` for the shallow standby states usable by PC1A.
    #[must_use]
    fn is_shallow_standby(self) -> bool {
        matches!(self, LinkPowerState::L0s | LinkPowerState::L0p)
    }

    /// `true` when the link is at least as deep as `other` in power-saving
    /// terms (L0 < L0p < L0s < L1 < NDA).
    #[must_use]
    fn at_least_as_deep_as(self, other: LinkPowerState) -> bool {
        self.depth_rank() >= other.depth_rank()
    }

    fn depth_rank(self) -> u8 {
        match self {
            LinkPowerState::L0 => 0,
            LinkPowerState::L0p => 1,
            LinkPowerState::L0s => 2,
            LinkPowerState::L1 => 3,
            LinkPowerState::Nda => 4,
        }
    }
}

impl fmt::Display for LinkPowerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkPowerState::L0 => "L0",
            LinkPowerState::L0p => "L0p",
            LinkPowerState::L0s => "L0s",
            LinkPowerState::L1 => "L1",
            LinkPowerState::Nda => "NDA",
        };
        f.write_str(s)
    }
}

/// A high-speed IO controller with its Link Training and Status State Machine
/// (LTSSM).
///
/// The controller is a passive model: the surrounding simulation tells it
/// when traffic starts/stops and when the `AllowL0s` policy bit changes; the
/// controller answers what state the link is in, whether `InL0s` is asserted,
/// and how long transitions take.
#[derive(Debug)]
pub struct IoController {
    kind: IoKind,
    state: LinkPowerState,
    /// The `AllowL0s` control input driven by the APMU (or BIOS policy).
    allow_shallow: bool,
    /// Whether deep L1 entry is permitted (PC6-era behaviour).
    allow_l1: bool,
    /// `true` while the link has outstanding transactions.
    busy: bool,
    /// When the link last became idle (no outstanding transactions).
    idle_since: Option<SimTime>,
    /// Counts every change of `state`.
    changes: PowerChanges,
}

impl IoController {
    /// L0s entry latency: the controller enters L0s after the link has been
    /// idle for 1/4 of the exit latency (paper Sec. 4.2.1: `L0S_ENTRY_LAT=1`
    /// ⇒ 16 ns for a 64 ns exit).
    const L0S_ENTRY_IDLE: SimDuration = SimDuration::from_nanos(16);

    /// Creates a controller with the link active and all standby states
    /// disabled (the datacenter `Cshallow` BIOS default).
    #[must_use]
    fn new(kind: IoKind) -> Self {
        IoController {
            kind,
            state: LinkPowerState::L0,
            allow_shallow: false,
            allow_l1: false,
            busy: false,
            idle_since: Some(SimTime::ZERO),
            changes: PowerChanges::default(),
        }
    }

    /// The interface kind.
    #[must_use]
    pub fn kind(&self) -> IoKind {
        self.kind
    }

    /// Current link power state.
    #[must_use]
    pub fn state(&self) -> LinkPowerState {
        self.state
    }

    /// The `InL0s` status output: asserted when the link is in its shallow
    /// standby state **or deeper** (paper Sec. 4.2.1).
    #[must_use]
    fn in_l0s(&self) -> bool {
        self.state.at_least_as_deep_as(self.kind.shallow_state())
    }

    /// Drives the `AllowL0s` control signal. Clearing it while the link is in
    /// a shallow state forces an exit (the caller should account for the exit
    /// latency returned).
    fn set_allow_shallow(&mut self, allow: bool) -> SimDuration {
        self.allow_shallow = allow;
        if !allow && self.state.is_shallow_standby() {
            self.wake()
        } else {
            SimDuration::ZERO
        }
    }

    /// Enables or disables deep L1 entry (used by the PC6 flow).
    pub fn set_allow_l1(&mut self, allow: bool) {
        self.allow_l1 = allow;
    }

    /// Marks the beginning of link traffic. Returns the exit latency the
    /// first transaction observes (zero when the link was already in L0).
    pub fn begin_traffic(&mut self) -> SimDuration {
        self.busy = true;
        self.idle_since = None;
        self.wake()
    }

    /// Marks the end of link traffic at `now` (no outstanding transactions).
    pub fn end_traffic(&mut self, now: SimTime) {
        self.busy = false;
        self.idle_since = Some(now);
    }

    /// The time at which the controller's autonomous LTSSM will enter the
    /// shallow standby state, given the current policy and idle time, or
    /// `None` if it will not (busy, not allowed, or already in standby).
    #[must_use]
    fn shallow_entry_deadline(&self) -> Option<SimTime> {
        if self.busy || !self.allow_shallow || self.in_l0s() {
            return None;
        }
        self.idle_since.map(|t| t + Self::L0S_ENTRY_IDLE)
    }

    /// Attempts the autonomous entry into the shallow standby state at `now`.
    /// Returns `true` if the link entered standby (i.e. it has been idle
    /// for the 16 ns window with `AllowL0s` asserted, and is not in standby
    /// or deeper already).
    pub fn try_enter_shallow(&mut self, now: SimTime) -> bool {
        match self.shallow_entry_deadline() {
            Some(deadline) if now >= deadline => {
                self.changes.bump();
                self.state = self.kind.shallow_state();
                true
            }
            _ => false,
        }
    }

    /// Enters the deep L1 state (PC6 entry flow). Requires the link to be
    /// idle; silently keeps the current state otherwise.
    pub fn enter_l1(&mut self) {
        if !self.busy && self.allow_l1 && self.state != LinkPowerState::L1 {
            self.changes.bump();
            self.state = LinkPowerState::L1;
        }
    }

    /// Wakes the link back to L0 and returns the exit latency paid.
    pub fn wake(&mut self) -> SimDuration {
        let latency = self.state.exit_latency();
        if self.state != LinkPowerState::L0 {
            self.changes.bump();
            self.state = LinkPowerState::L0;
        }
        latency
    }
}

/// The full set of high-speed IO controllers of the SKX north cap
/// (3 × PCIe, 1 × DMI, 2 × UPI on the reference Xeon Silver 4114 system,
/// paper Sec. 5.4).
#[derive(Debug)]
pub struct IoSet {
    controllers: Vec<IoController>,
}

impl IoSet {
    /// Builds a custom inventory.
    #[must_use]
    pub fn new(kinds: &[IoKind]) -> Self {
        IoSet {
            controllers: kinds.iter().map(|&k| IoController::new(k)).collect(),
        }
    }

    /// Number of controllers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.controllers.len()
    }

    /// `true` when there are no controllers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.controllers.is_empty()
    }

    /// Immutable access to a controller.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn controller(&self, id: IoId) -> &IoController {
        &self.controllers[id.0]
    }

    /// Mutable access to a controller.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn controller_mut(&mut self, id: IoId) -> &mut IoController {
        &mut self.controllers[id.0]
    }

    /// Iterator over all controllers.
    pub fn iter(&self) -> impl Iterator<Item = &IoController> {
        self.controllers.iter()
    }

    /// Mutable iterator over all controllers.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut IoController> {
        self.controllers.iter_mut()
    }

    /// Makes every controller count its link-state changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        for c in &mut self.controllers {
            c.changes = changes.share();
        }
    }

    /// The aggregated `&InL0s` signal (AND across controllers, Fig. 3/4):
    /// `true` when every link is in its shallow standby state or deeper.
    #[must_use]
    pub fn all_in_l0s(&self) -> bool {
        !self.controllers.is_empty() && self.controllers.iter().all(IoController::in_l0s)
    }

    /// Drives `AllowL0s` on every controller; returns the worst exit latency
    /// triggered by clearing the signal (zero when setting it).
    pub fn set_allow_shallow_all(&mut self, allow: bool) -> SimDuration {
        self.controllers
            .iter_mut()
            .map(|c| c.set_allow_shallow(allow))
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// The earliest time by which every link not yet in standby can have
    /// entered its shallow state, or `None` while some link is busy or lacks
    /// `AllowL0s` (the PC1A flow then stays in ACC1 until the traffic drains,
    /// or a wakeup sends it back to PC0).
    #[must_use]
    pub fn standby_deadline(&self) -> Option<SimTime> {
        let mut worst = SimTime::ZERO;
        for c in self.controllers.iter().filter(|c| !c.in_l0s()) {
            worst = worst.max(c.shallow_entry_deadline()?);
        }
        Some(worst)
    }

    /// Lets every link whose idle window has passed by `now` enter its
    /// shallow state; returns the aggregated `&InL0s` signal.
    pub fn try_enter_standby(&mut self, now: SimTime) -> bool {
        for c in &mut self.controllers {
            c.try_enter_shallow(now);
        }
        self.all_in_l0s()
    }

    /// Worst-case exit latency across all controllers from their current
    /// states.
    #[must_use]
    pub fn worst_exit_latency(&self) -> SimDuration {
        self.controllers
            .iter()
            .map(|c| c.state().exit_latency())
            .fold(SimDuration::ZERO, SimDuration::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SocConfig;

    #[test]
    fn skx_reference_inventory() {
        let set = IoSet::new(&SocConfig::xeon_silver_4114().io_kinds);
        assert_eq!(set.len(), 6);
        let pcie = set.iter().filter(|c| c.kind() == IoKind::Pcie).count();
        let dmi = set.iter().filter(|c| c.kind() == IoKind::Dmi).count();
        let upi = set.iter().filter(|c| c.kind() == IoKind::Upi).count();
        assert_eq!((pcie, dmi, upi), (3, 1, 2));
    }

    #[test]
    fn shallow_state_per_kind() {
        assert_eq!(IoKind::Pcie.shallow_state(), LinkPowerState::L0s);
        assert_eq!(IoKind::Dmi.shallow_state(), LinkPowerState::L0s);
        assert_eq!(IoKind::Upi.shallow_state(), LinkPowerState::L0p);
        assert_eq!(IoKind::Upi.to_string(), "UPI");
    }

    #[test]
    fn l_state_latencies_match_paper() {
        assert_eq!(
            LinkPowerState::L0s.exit_latency(),
            SimDuration::from_nanos(64)
        );
        assert_eq!(
            LinkPowerState::L0p.exit_latency(),
            SimDuration::from_nanos(10)
        );
        assert!(LinkPowerState::L1.exit_latency() >= SimDuration::from_micros(1));
        assert!(LinkPowerState::L0s.is_shallow_standby());
        assert!(!LinkPowerState::L1.is_shallow_standby());
        assert!(LinkPowerState::L1.at_least_as_deep_as(LinkPowerState::L0s));
        assert_eq!(LinkPowerState::L0s.to_string(), "L0s");
    }

    #[test]
    fn controller_does_not_enter_standby_without_allow() {
        let mut c = IoController::new(IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        assert_eq!(c.shallow_entry_deadline(), None);
        assert!(!c.try_enter_shallow(SimTime::from_micros(1)));
        assert_eq!(c.state(), LinkPowerState::L0);
    }

    #[test]
    fn controller_enters_l0s_after_16ns_idle() {
        let mut c = IoController::new(IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(true);
        let deadline = c.shallow_entry_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_nanos(16));
        assert!(!c.try_enter_shallow(SimTime::from_nanos(10)));
        assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        assert!(c.in_l0s());
        assert_eq!(c.state(), LinkPowerState::L0s);
    }

    #[test]
    fn traffic_wakes_link_and_pays_exit_latency() {
        let mut c = IoController::new(IoKind::Upi);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(true);
        assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        assert_eq!(c.state(), LinkPowerState::L0p);
        let lat = c.begin_traffic();
        assert_eq!(lat, SimDuration::from_nanos(10));
        assert_eq!(c.state(), LinkPowerState::L0);
        assert!(!c.in_l0s());
        assert!(c.busy);
        // While busy there is no standby deadline.
        assert_eq!(c.shallow_entry_deadline(), None);
    }

    #[test]
    fn clearing_allow_forces_exit() {
        let mut c = IoController::new(IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(true);
        assert!(c.try_enter_shallow(SimTime::from_nanos(20)));
        let lat = c.set_allow_shallow(false);
        assert_eq!(lat, SimDuration::from_nanos(64));
        assert_eq!(c.state(), LinkPowerState::L0);
        assert_eq!(c.shallow_entry_deadline(), None);
    }

    #[test]
    fn l1_requires_permission_and_idle() {
        let mut c = IoController::new(IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.enter_l1();
        assert_eq!(c.state(), LinkPowerState::L0, "L1 not allowed yet");
        c.set_allow_l1(true);
        c.enter_l1();
        assert_eq!(c.state(), LinkPowerState::L1);
        assert!(c.in_l0s(), "L1 is deeper than L0s, so InL0s holds");
        let lat = c.wake();
        assert_eq!(lat, SimDuration::from_micros(5));
    }

    #[test]
    fn ioset_aggregate_inl0s() {
        let mut set = IoSet::new(&SocConfig::xeon_silver_4114().io_kinds);
        assert!(!set.all_in_l0s());
        set.set_allow_shallow_all(true);
        for c in set.iter_mut() {
            c.end_traffic(SimTime::ZERO);
        }
        for c in set.iter_mut() {
            assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        }
        assert!(set.all_in_l0s());
        assert_eq!(set.worst_exit_latency(), SimDuration::from_nanos(64));
        // Clearing AllowL0s everywhere wakes every link.
        let lat = set.set_allow_shallow_all(false);
        assert_eq!(lat, SimDuration::from_nanos(64));
        assert!(!set.all_in_l0s());
    }

    /// The reference socket's links, idle since `now`.
    fn idle_links(now: SimTime) -> IoSet {
        let mut set = IoSet::new(&SocConfig::xeon_silver_4114().io_kinds);
        for c in set.iter_mut() {
            c.end_traffic(now);
        }
        set
    }

    #[test]
    fn allow_l0s_gates_standby_entry() {
        let mut set = idle_links(SimTime::ZERO);
        // Without AllowL0s nothing happens.
        assert!(!set.try_enter_standby(SimTime::from_micros(1)));
        assert_eq!(set.standby_deadline(), None);

        set.set_allow_shallow_all(true);
        // The links have been idle since t=0, so the 16 ns idleness
        // requirement is measured from then.
        let deadline = set.standby_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_nanos(16));
        assert!(!set.try_enter_standby(SimTime::from_nanos(10)));
        assert!(set.try_enter_standby(deadline));
        assert!(set.all_in_l0s());
        assert_eq!(
            set.standby_deadline(),
            Some(SimTime::ZERO),
            "nothing to wait for"
        );
    }

    #[test]
    fn busy_link_blocks_the_deadline() {
        let mut set = idle_links(SimTime::ZERO);
        set.set_allow_shallow_all(true);
        set.controller_mut(IoId(0)).begin_traffic();
        assert_eq!(set.standby_deadline(), None);
        assert!(!set.try_enter_standby(SimTime::from_micros(1)));
    }

    #[test]
    fn each_link_state_change_is_counted_once() {
        let mut c = IoController::new(IoKind::Pcie);
        // Traffic on a link already in L0 changes no state.
        assert_eq!(c.begin_traffic(), SimDuration::ZERO);
        c.end_traffic(SimTime::ZERO);
        assert_eq!(c.wake(), SimDuration::ZERO);
        assert_eq!(c.set_allow_shallow(true), SimDuration::ZERO);
        assert_eq!(c.changes.get(), 0);
        assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        assert!(
            !c.try_enter_shallow(SimTime::from_nanos(32)),
            "already in L0s"
        );
        assert_eq!(c.changes.get(), 1, "L0 -> L0s");
        c.set_allow_l1(true);
        c.enter_l1();
        c.enter_l1();
        assert_eq!(c.changes.get(), 2, "L0s -> L1");
        assert_eq!(c.wake(), SimDuration::from_micros(5));
        assert_eq!(c.wake(), SimDuration::ZERO);
        assert_eq!(c.changes.get(), 3, "L1 -> L0");
        assert_eq!(c.set_allow_shallow(false), SimDuration::ZERO);
        assert_eq!(c.changes.get(), 3, "clearing AllowL0s on a link in L0");
    }
}
