//! Memory controller and DDR4 DRAM power-mode model.
//!
//! The paper contrasts two DRAM power-saving mechanisms (Sec. 3.1):
//!
//! * **CKE modes** (clock-enable off): per-rank, 10–30 ns transition,
//!   ≥ 50 % power saving — the mode PC1A uses (`Allow_CKE_OFF` signal);
//! * **Self-refresh**: the DRAM refreshes itself and most of the SoC↔DRAM
//!   interface can power down — several µs exit, used only by deep package
//!   C-states (PC6).

use std::fmt;

use apc_sim::{SimDuration, SimTime};

use crate::changes::PowerChanges;

/// Identifier of a memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McId(pub usize);

impl fmt::Display for McId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mc{}", self.0)
    }
}

/// DRAM power modes (per memory controller; the model treats all ranks
/// behind one controller as transitioning together, which matches the
/// package-level flows the paper describes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramPowerMode {
    /// Active / active-standby: CKE asserted, pages may be open.
    Active,
    /// Active power-down: CKE de-asserted, pages left open, row buffer on.
    ActivePowerDown,
    /// Pre-charged power-down: CKE de-asserted, pages closed, row buffer off.
    /// This is the "CKE off" mode PC1A uses.
    PrechargePowerDown,
    /// Self-refresh: DRAM refreshes itself; SoC-side interface mostly off.
    SelfRefresh,
}

impl DramPowerMode {
    /// Worst-case exit latency back to `Active`.
    #[must_use]
    pub fn exit_latency(self) -> SimDuration {
        match self {
            DramPowerMode::Active => SimDuration::ZERO,
            DramPowerMode::ActivePowerDown => SimDuration::from_nanos(10),
            DramPowerMode::PrechargePowerDown => SimDuration::from_nanos(24),
            DramPowerMode::SelfRefresh => SimDuration::from_micros(5),
        }
    }

    /// Entry latency from `Active`.
    #[must_use]
    pub fn entry_latency(self) -> SimDuration {
        match self {
            DramPowerMode::Active => SimDuration::ZERO,
            DramPowerMode::ActivePowerDown => SimDuration::from_nanos(10),
            DramPowerMode::PrechargePowerDown => SimDuration::from_nanos(10),
            DramPowerMode::SelfRefresh => SimDuration::from_micros(1),
        }
    }

    /// `true` for the CKE-off modes (nanosecond-scale, usable by PC1A).
    #[must_use]
    pub fn is_cke_off(self) -> bool {
        matches!(
            self,
            DramPowerMode::ActivePowerDown | DramPowerMode::PrechargePowerDown
        )
    }
}

impl fmt::Display for DramPowerMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DramPowerMode::Active => "active",
            DramPowerMode::ActivePowerDown => "APD (CKE off)",
            DramPowerMode::PrechargePowerDown => "PPD (CKE off)",
            DramPowerMode::SelfRefresh => "self-refresh",
        };
        f.write_str(s)
    }
}

/// A memory controller together with the DDR4 channel(s) it drives.
///
/// The controller exposes the two control inputs the package flows drive:
/// `Allow_CKE_OFF` (new in APC) and "opportunistic self-refresh allowed"
/// (the PC6-era mechanism), plus the request-activity notifications that the
/// full-system simulation generates.
#[derive(Debug, Clone)]
pub struct MemoryController {
    id: McId,
    mode: DramPowerMode,
    /// The `Allow_CKE_OFF` control input (paper Sec. 4.2.2).
    allow_cke_off: bool,
    /// Whether opportunistic self-refresh is permitted (PC6 flows).
    allow_self_refresh: bool,
    /// Outstanding memory transactions.
    outstanding: u32,
    since: SimTime,
    cke_off_entries: u64,
    self_refresh_entries: u64,
    wakeups: u64,
    /// Counts every change of `mode`.
    changes: PowerChanges,
}

impl MemoryController {
    /// CKE-off entry happens as soon as the controller is idle once allowed
    /// (within ~10 ns, paper Sec. 5.5.1).
    pub const CKE_OFF_ENTRY: SimDuration = SimDuration::from_nanos(10);

    /// CKE-off exit latency (paper Sec. 5.5.2: within 24 ns).
    pub const CKE_OFF_EXIT: SimDuration = SimDuration::from_nanos(24);

    /// Creates a controller in the active mode with all power-down modes
    /// disabled (datacenter default).
    #[must_use]
    pub fn new(id: McId) -> Self {
        MemoryController {
            id,
            mode: DramPowerMode::Active,
            allow_cke_off: false,
            allow_self_refresh: false,
            outstanding: 0,
            since: SimTime::ZERO,
            cke_off_entries: 0,
            self_refresh_entries: 0,
            wakeups: 0,
            changes: PowerChanges::default(),
        }
    }

    /// The controller's identifier.
    #[must_use]
    pub fn id(&self) -> McId {
        self.id
    }

    /// Current DRAM power mode.
    #[must_use]
    pub fn mode(&self) -> DramPowerMode {
        self.mode
    }

    /// `true` when DRAM is in a CKE-off mode.
    #[must_use]
    pub fn in_cke_off(&self) -> bool {
        self.mode.is_cke_off()
    }

    /// Number of outstanding transactions.
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Number of CKE-off entries so far.
    #[must_use]
    pub fn cke_off_entries(&self) -> u64 {
        self.cke_off_entries
    }

    /// Number of self-refresh entries so far.
    #[must_use]
    pub fn self_refresh_entries(&self) -> u64 {
        self.self_refresh_entries
    }

    /// Number of wakeups back to the active mode.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// Drives the `Allow_CKE_OFF` control signal. When set and the controller
    /// is idle, DRAM enters precharge power-down after
    /// [`MemoryController::CKE_OFF_ENTRY`]; when cleared, the controller
    /// returns to active and the caller should account for the returned exit
    /// latency.
    pub fn set_allow_cke_off(&mut self, now: SimTime, allow: bool) -> SimDuration {
        self.allow_cke_off = allow;
        if allow {
            if self.outstanding == 0 && self.mode == DramPowerMode::Active {
                self.changes.bump();
                self.mode = DramPowerMode::PrechargePowerDown;
                self.since = now;
                self.cke_off_entries += 1;
            }
            SimDuration::ZERO
        } else if self.mode.is_cke_off() {
            self.wake(now)
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether `Allow_CKE_OFF` is currently asserted.
    #[must_use]
    pub fn allow_cke_off(&self) -> bool {
        self.allow_cke_off
    }

    /// Enables or disables opportunistic self-refresh (PC6 flow).
    pub fn set_allow_self_refresh(&mut self, allow: bool) {
        self.allow_self_refresh = allow;
    }

    /// Enters self-refresh (the PC6 entry flow step). Only takes effect when
    /// permitted and idle; returns `true` on success.
    pub fn enter_self_refresh(&mut self, now: SimTime) -> bool {
        if self.allow_self_refresh && self.outstanding == 0 {
            if self.mode != DramPowerMode::SelfRefresh {
                self.changes.bump();
            }
            self.mode = DramPowerMode::SelfRefresh;
            self.since = now;
            self.self_refresh_entries += 1;
            true
        } else {
            false
        }
    }

    /// Notifies the controller that a memory transaction has started.
    /// Returns the wake latency the transaction observes (zero when DRAM was
    /// already active).
    pub fn begin_access(&mut self, now: SimTime) -> SimDuration {
        self.outstanding += 1;
        self.wake(now)
    }

    /// Notifies the controller that a memory transaction has completed. If
    /// the controller becomes idle and `Allow_CKE_OFF` is set, DRAM drops
    /// back into CKE-off.
    pub fn end_access(&mut self, now: SimTime) {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.outstanding == 0 && self.allow_cke_off && self.mode == DramPowerMode::Active {
            self.changes.bump();
            self.mode = DramPowerMode::PrechargePowerDown;
            self.since = now;
            self.cke_off_entries += 1;
        }
    }

    /// Wakes DRAM to the active mode and returns the exit latency paid.
    pub fn wake(&mut self, now: SimTime) -> SimDuration {
        let latency = self.mode.exit_latency();
        if self.mode != DramPowerMode::Active {
            self.changes.bump();
            self.mode = DramPowerMode::Active;
            self.since = now;
            self.wakeups += 1;
        }
        latency
    }
}

/// The memory subsystem: the set of memory controllers of one socket
/// (the reference SKX system has two, each driving three DDR4-2666 channels).
#[derive(Debug, Clone)]
pub struct MemorySet {
    controllers: Vec<MemoryController>,
}

impl MemorySet {
    /// Builds the reference two-controller inventory.
    #[must_use]
    pub fn skx_reference() -> Self {
        MemorySet::new(2)
    }

    /// Builds an inventory with `n` controllers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MemorySet {
            controllers: (0..n).map(|i| MemoryController::new(McId(i))).collect(),
        }
    }

    /// Makes every controller count its mode changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        for mc in &mut self.controllers {
            mc.changes = changes.share();
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
    pub fn controller(&self, id: McId) -> &MemoryController {
        &self.controllers[id.0]
    }

    /// Mutable access to a controller.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn controller_mut(&mut self, id: McId) -> &mut MemoryController {
        &mut self.controllers[id.0]
    }

    /// Iterator over all controllers.
    pub fn iter(&self) -> impl Iterator<Item = &MemoryController> {
        self.controllers.iter()
    }

    /// Mutable iterator over all controllers.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut MemoryController> {
        self.controllers.iter_mut()
    }

    /// `true` when every controller has DRAM in a CKE-off mode or deeper.
    #[must_use]
    pub fn all_in_cke_off_or_deeper(&self) -> bool {
        !self.controllers.is_empty()
            && self
                .controllers
                .iter()
                .all(|m| m.mode().is_cke_off() || m.mode() == DramPowerMode::SelfRefresh)
    }

    /// Drives `Allow_CKE_OFF` on every controller; returns the worst exit
    /// latency triggered (only non-zero when clearing the signal).
    pub fn set_allow_cke_off_all(&mut self, now: SimTime, allow: bool) -> SimDuration {
        self.controllers
            .iter_mut()
            .map(|m| m.set_allow_cke_off(now, allow))
            .fold(SimDuration::ZERO, SimDuration::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_latencies_match_paper_scales() {
        assert!(DramPowerMode::PrechargePowerDown.exit_latency() <= SimDuration::from_nanos(30));
        assert!(DramPowerMode::ActivePowerDown.exit_latency() <= SimDuration::from_nanos(30));
        assert!(DramPowerMode::SelfRefresh.exit_latency() >= SimDuration::from_micros(1));
        assert!(DramPowerMode::PrechargePowerDown.is_cke_off());
        assert!(!DramPowerMode::SelfRefresh.is_cke_off());
        assert_eq!(
            DramPowerMode::PrechargePowerDown.to_string(),
            "PPD (CKE off)"
        );
    }

    #[test]
    fn cke_off_requires_allow_and_idle() {
        let mut mc = MemoryController::new(McId(0));
        assert_eq!(mc.mode(), DramPowerMode::Active);
        // Allowing while idle drops straight into CKE off.
        mc.set_allow_cke_off(SimTime::ZERO, true);
        assert!(mc.in_cke_off());
        assert_eq!(mc.cke_off_entries(), 1);
        // Clearing wakes it and reports the 24 ns exit.
        let lat = mc.set_allow_cke_off(SimTime::from_micros(1), false);
        assert_eq!(lat, MemoryController::CKE_OFF_EXIT);
        assert_eq!(mc.mode(), DramPowerMode::Active);
    }

    #[test]
    fn accesses_wake_dram_and_reenter_cke_off() {
        let mut mc = MemoryController::new(McId(0));
        mc.set_allow_cke_off(SimTime::ZERO, true);
        assert!(mc.in_cke_off());
        let lat = mc.begin_access(SimTime::from_micros(1));
        assert_eq!(lat, MemoryController::CKE_OFF_EXIT);
        assert_eq!(mc.outstanding(), 1);
        assert_eq!(mc.mode(), DramPowerMode::Active);
        // Another access while active costs nothing extra.
        assert_eq!(mc.begin_access(SimTime::from_micros(1)), SimDuration::ZERO);
        mc.end_access(SimTime::from_micros(2));
        assert_eq!(mc.mode(), DramPowerMode::Active, "still one outstanding");
        mc.end_access(SimTime::from_micros(3));
        assert!(mc.in_cke_off(), "idle + allowed => back to CKE off");
        assert_eq!(mc.wakeups(), 1);
    }

    #[test]
    fn self_refresh_requires_permission() {
        let mut mc = MemoryController::new(McId(0));
        assert!(!mc.enter_self_refresh(SimTime::ZERO));
        mc.set_allow_self_refresh(true);
        assert!(mc.enter_self_refresh(SimTime::ZERO));
        assert_eq!(mc.mode(), DramPowerMode::SelfRefresh);
        assert_eq!(mc.self_refresh_entries(), 1);
        let lat = mc.wake(SimTime::from_micros(10));
        assert_eq!(lat, SimDuration::from_micros(5));
    }

    #[test]
    fn busy_controller_does_not_self_refresh() {
        let mut mc = MemoryController::new(McId(0));
        mc.set_allow_self_refresh(true);
        mc.begin_access(SimTime::ZERO);
        assert!(!mc.enter_self_refresh(SimTime::from_nanos(5)));
    }

    #[test]
    fn memory_set_aggregation() {
        let mut set = MemorySet::skx_reference();
        assert_eq!(set.len(), 2);
        assert!(!set.all_in_cke_off_or_deeper());
        set.set_allow_cke_off_all(SimTime::ZERO, true);
        assert!(set.all_in_cke_off_or_deeper());
        let lat = set.set_allow_cke_off_all(SimTime::from_micros(1), false);
        assert_eq!(lat, MemoryController::CKE_OFF_EXIT);
        assert!(!set.all_in_cke_off_or_deeper());
        assert_eq!(set.controller(McId(1)).id().to_string(), "mc1");
    }
}
