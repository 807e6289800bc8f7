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
    pub fn shallow_state(self) -> LinkPowerState {
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
    pub fn exit_latency(self) -> SimDuration {
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
    pub fn is_shallow_standby(self) -> bool {
        matches!(self, LinkPowerState::L0s | LinkPowerState::L0p)
    }

    /// `true` when the link is at least as deep as `other` in power-saving
    /// terms (L0 < L0p < L0s < L1 < NDA).
    #[must_use]
    pub fn at_least_as_deep_as(self, other: LinkPowerState) -> bool {
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
#[derive(Debug, Clone)]
pub struct IoController {
    id: IoId,
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
    since: SimTime,
    shallow_entries: u64,
    wakeups: u64,
    /// Counts every change of `state`.
    changes: PowerChanges,
}

impl IoController {
    /// L0s entry latency: the controller enters L0s after the link has been
    /// idle for 1/4 of the exit latency (paper Sec. 4.2.1: `L0S_ENTRY_LAT=1`
    /// ⇒ 16 ns for a 64 ns exit).
    pub const L0S_ENTRY_IDLE: SimDuration = SimDuration::from_nanos(16);

    /// Creates a controller with the link active and all standby states
    /// disabled (the datacenter `Cshallow` BIOS default).
    #[must_use]
    pub fn new(id: IoId, kind: IoKind) -> Self {
        IoController {
            id,
            kind,
            state: LinkPowerState::L0,
            allow_shallow: false,
            allow_l1: false,
            busy: false,
            idle_since: Some(SimTime::ZERO),
            since: SimTime::ZERO,
            shallow_entries: 0,
            wakeups: 0,
            changes: PowerChanges::default(),
        }
    }

    /// The controller's identifier.
    #[must_use]
    pub fn id(&self) -> IoId {
        self.id
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
    pub fn in_l0s(&self) -> bool {
        self.state.at_least_as_deep_as(self.kind.shallow_state())
    }

    /// `true` while transactions are outstanding on the link.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Number of shallow-standby entries so far.
    #[must_use]
    pub fn shallow_entries(&self) -> u64 {
        self.shallow_entries
    }

    /// Number of wakeups back to L0 so far.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Drives the `AllowL0s` control signal. Clearing it while the link is in
    /// a shallow state forces an exit (the caller should account for the exit
    /// latency returned).
    pub fn set_allow_shallow(&mut self, now: SimTime, allow: bool) -> SimDuration {
        self.allow_shallow = allow;
        if !allow && self.state.is_shallow_standby() {
            self.wake(now)
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether the shallow standby states are currently permitted.
    #[must_use]
    pub fn allow_shallow(&self) -> bool {
        self.allow_shallow
    }

    /// Enables or disables deep L1 entry (used by the PC6 flow).
    pub fn set_allow_l1(&mut self, allow: bool) {
        self.allow_l1 = allow;
    }

    /// Marks the beginning of link traffic at `now`. Returns the exit latency
    /// the first transaction observes (zero when the link was already in L0).
    pub fn begin_traffic(&mut self, now: SimTime) -> SimDuration {
        self.busy = true;
        self.idle_since = None;
        self.wake(now)
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
    pub fn shallow_entry_deadline(&self) -> Option<SimTime> {
        if self.busy || !self.allow_shallow || self.in_l0s() {
            return None;
        }
        self.idle_since.map(|t| t + Self::L0S_ENTRY_IDLE)
    }

    /// Attempts the autonomous entry into the shallow standby state at `now`.
    /// Returns `true` if the link entered standby (i.e. the deadline from
    /// [`IoController::shallow_entry_deadline`] has passed and conditions
    /// still hold).
    pub fn try_enter_shallow(&mut self, now: SimTime) -> bool {
        match self.shallow_entry_deadline() {
            Some(deadline) if now >= deadline => {
                self.changes.bump();
                self.state = self.kind.shallow_state();
                self.since = now;
                self.shallow_entries += 1;
                true
            }
            _ => false,
        }
    }

    /// Enters the deep L1 state (PC6 entry flow). Requires the link to be
    /// idle; silently keeps the current state otherwise.
    pub fn enter_l1(&mut self, now: SimTime) {
        if !self.busy && self.allow_l1 {
            if self.state != LinkPowerState::L1 {
                self.changes.bump();
            }
            self.state = LinkPowerState::L1;
            self.since = now;
        }
    }

    /// Wakes the link back to L0 and returns the exit latency paid.
    pub fn wake(&mut self, now: SimTime) -> SimDuration {
        let latency = self.state.exit_latency();
        if self.state != LinkPowerState::L0 {
            self.changes.bump();
            self.wakeups += 1;
            self.state = LinkPowerState::L0;
            self.since = now;
        }
        latency
    }
}

/// The full set of high-speed IO controllers of the SKX north cap
/// (3 × PCIe, 1 × DMI, 2 × UPI on the reference Xeon Silver 4114 system,
/// paper Sec. 5.4).
#[derive(Debug, Clone)]
pub struct IoSet {
    controllers: Vec<IoController>,
}

impl IoSet {
    /// Builds the reference system's IO inventory.
    #[must_use]
    pub fn skx_reference() -> Self {
        let kinds = [
            IoKind::Pcie,
            IoKind::Pcie,
            IoKind::Pcie,
            IoKind::Dmi,
            IoKind::Upi,
            IoKind::Upi,
        ];
        IoSet {
            controllers: kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| IoController::new(IoId(i), k))
                .collect(),
        }
    }

    /// Builds a custom inventory.
    #[must_use]
    pub fn new(kinds: &[IoKind]) -> Self {
        IoSet {
            controllers: kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| IoController::new(IoId(i), k))
                .collect(),
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
    pub fn set_allow_shallow_all(&mut self, now: SimTime, allow: bool) -> SimDuration {
        self.controllers
            .iter_mut()
            .map(|c| c.set_allow_shallow(now, allow))
            .fold(SimDuration::ZERO, SimDuration::max)
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

    #[test]
    fn skx_reference_inventory() {
        let set = IoSet::skx_reference();
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
        let mut c = IoController::new(IoId(0), IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        assert_eq!(c.shallow_entry_deadline(), None);
        assert!(!c.try_enter_shallow(SimTime::from_micros(1)));
        assert_eq!(c.state(), LinkPowerState::L0);
    }

    #[test]
    fn controller_enters_l0s_after_16ns_idle() {
        let mut c = IoController::new(IoId(0), IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(SimTime::ZERO, true);
        let deadline = c.shallow_entry_deadline().unwrap();
        assert_eq!(deadline, SimTime::from_nanos(16));
        assert!(!c.try_enter_shallow(SimTime::from_nanos(10)));
        assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        assert!(c.in_l0s());
        assert_eq!(c.shallow_entries(), 1);
    }

    #[test]
    fn traffic_wakes_link_and_pays_exit_latency() {
        let mut c = IoController::new(IoId(1), IoKind::Upi);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(SimTime::ZERO, true);
        assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        assert_eq!(c.state(), LinkPowerState::L0p);
        let lat = c.begin_traffic(SimTime::from_micros(1));
        assert_eq!(lat, SimDuration::from_nanos(10));
        assert_eq!(c.state(), LinkPowerState::L0);
        assert!(c.is_busy());
        assert_eq!(c.wakeups(), 1);
        // While busy there is no standby deadline.
        assert_eq!(c.shallow_entry_deadline(), None);
    }

    #[test]
    fn clearing_allow_forces_exit() {
        let mut c = IoController::new(IoId(0), IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.set_allow_shallow(SimTime::ZERO, true);
        assert!(c.try_enter_shallow(SimTime::from_nanos(20)));
        let lat = c.set_allow_shallow(SimTime::from_nanos(100), false);
        assert_eq!(lat, SimDuration::from_nanos(64));
        assert_eq!(c.state(), LinkPowerState::L0);
        assert!(!c.allow_shallow());
    }

    #[test]
    fn l1_requires_permission_and_idle() {
        let mut c = IoController::new(IoId(0), IoKind::Pcie);
        c.end_traffic(SimTime::ZERO);
        c.enter_l1(SimTime::from_micros(1));
        assert_eq!(c.state(), LinkPowerState::L0, "L1 not allowed yet");
        c.set_allow_l1(true);
        c.enter_l1(SimTime::from_micros(2));
        assert_eq!(c.state(), LinkPowerState::L1);
        assert!(c.in_l0s(), "L1 is deeper than L0s, so InL0s holds");
        let lat = c.wake(SimTime::from_micros(10));
        assert_eq!(lat, SimDuration::from_micros(5));
    }

    #[test]
    fn ioset_aggregate_inl0s() {
        let mut set = IoSet::skx_reference();
        assert!(!set.all_in_l0s());
        set.set_allow_shallow_all(SimTime::ZERO, true);
        for c in set.iter_mut() {
            c.end_traffic(SimTime::ZERO);
        }
        for c in set.iter_mut() {
            assert!(c.try_enter_shallow(SimTime::from_nanos(16)));
        }
        assert!(set.all_in_l0s());
        assert_eq!(set.worst_exit_latency(), SimDuration::from_nanos(64));
        // Clearing AllowL0s everywhere wakes every link.
        let lat = set.set_allow_shallow_all(SimTime::from_micros(1), false);
        assert_eq!(lat, SimDuration::from_nanos(64));
        assert!(!set.all_in_l0s());
    }
}
