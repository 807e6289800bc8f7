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

use apc_sim::SimDuration;

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
    fn exit_latency(self) -> SimDuration {
        match self {
            DramPowerMode::Active => SimDuration::ZERO,
            DramPowerMode::ActivePowerDown => SimDuration::from_nanos(10),
            DramPowerMode::PrechargePowerDown => SimDuration::from_nanos(24),
            DramPowerMode::SelfRefresh => SimDuration::from_micros(5),
        }
    }

    /// `true` for the CKE-off modes (nanosecond-scale, usable by PC1A).
    #[must_use]
    fn is_cke_off(self) -> bool {
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
/// (the PC6-era mechanism).
#[derive(Debug)]
pub struct MemoryController {
    mode: DramPowerMode,
    /// Whether opportunistic self-refresh is permitted (PC6 flows).
    allow_self_refresh: bool,
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
    fn new() -> Self {
        MemoryController {
            mode: DramPowerMode::Active,
            allow_self_refresh: false,
            changes: PowerChanges::default(),
        }
    }

    /// Current DRAM power mode.
    #[must_use]
    pub fn mode(&self) -> DramPowerMode {
        self.mode
    }

    /// Drives the `Allow_CKE_OFF` control signal (paper Sec. 4.2.2). When
    /// set, DRAM enters precharge power-down after
    /// [`MemoryController::CKE_OFF_ENTRY`]; when cleared, the controller
    /// returns to active and the caller should account for the returned exit
    /// latency.
    fn set_allow_cke_off(&mut self, allow: bool) -> SimDuration {
        if allow {
            if self.mode == DramPowerMode::Active {
                self.changes.bump();
                self.mode = DramPowerMode::PrechargePowerDown;
            }
            SimDuration::ZERO
        } else if self.mode.is_cke_off() {
            self.wake()
        } else {
            SimDuration::ZERO
        }
    }

    /// Enables or disables opportunistic self-refresh (PC6 flow).
    pub fn set_allow_self_refresh(&mut self, allow: bool) {
        self.allow_self_refresh = allow;
    }

    /// Enters self-refresh (the PC6 entry flow step). Only takes effect when
    /// permitted; returns `true` on success.
    pub fn enter_self_refresh(&mut self) -> bool {
        if self.allow_self_refresh {
            if self.mode != DramPowerMode::SelfRefresh {
                self.changes.bump();
            }
            self.mode = DramPowerMode::SelfRefresh;
            true
        } else {
            false
        }
    }

    /// Wakes DRAM to the active mode and returns the exit latency paid.
    pub fn wake(&mut self) -> SimDuration {
        let latency = self.mode.exit_latency();
        if self.mode != DramPowerMode::Active {
            self.changes.bump();
            self.mode = DramPowerMode::Active;
        }
        latency
    }
}

/// The memory subsystem: the set of memory controllers of one socket
/// (the reference SKX system has two, each driving three DDR4-2666 channels).
#[derive(Debug)]
pub struct MemorySet {
    controllers: Vec<MemoryController>,
}

impl MemorySet {
    /// Builds an inventory with `n` controllers.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MemorySet {
            controllers: (0..n).map(|_| MemoryController::new()).collect(),
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

    /// Drives `Allow_CKE_OFF` on every controller; returns the worst exit
    /// latency triggered (only non-zero when clearing the signal).
    pub fn set_allow_cke_off_all(&mut self, allow: bool) -> SimDuration {
        self.controllers
            .iter_mut()
            .map(|m| m.set_allow_cke_off(allow))
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
    fn cke_off_follows_allow() {
        let mut mc = MemoryController::new();
        assert_eq!(mc.mode(), DramPowerMode::Active);
        // Allowing drops straight into CKE off.
        mc.set_allow_cke_off(true);
        assert_eq!(mc.mode(), DramPowerMode::PrechargePowerDown);
        // Clearing wakes it and reports the 24 ns exit.
        let lat = mc.set_allow_cke_off(false);
        assert_eq!(lat, MemoryController::CKE_OFF_EXIT);
        assert_eq!(mc.mode(), DramPowerMode::Active);
    }

    #[test]
    fn self_refresh_requires_permission() {
        let mut mc = MemoryController::new();
        assert!(!mc.enter_self_refresh());
        mc.set_allow_self_refresh(true);
        assert!(mc.enter_self_refresh());
        assert_eq!(mc.mode(), DramPowerMode::SelfRefresh);
        let lat = mc.wake();
        assert_eq!(lat, SimDuration::from_micros(5));
        assert_eq!(mc.mode(), DramPowerMode::Active);
    }

    #[test]
    fn each_mode_change_is_counted_once() {
        let mut mc = MemoryController::new();
        assert_eq!(mc.set_allow_cke_off(false), SimDuration::ZERO);
        assert_eq!(mc.changes.get(), 0, "clearing the signal on active DRAM");
        mc.set_allow_cke_off(true);
        mc.set_allow_cke_off(true);
        assert_eq!(mc.changes.get(), 1, "active -> CKE off");
        mc.set_allow_self_refresh(true);
        assert!(mc.enter_self_refresh());
        assert!(mc.enter_self_refresh());
        assert_eq!(mc.changes.get(), 2, "CKE off -> self-refresh");
        assert_eq!(mc.wake(), SimDuration::from_micros(5));
        assert_eq!(mc.wake(), SimDuration::ZERO);
        assert_eq!(mc.changes.get(), 3, "self-refresh -> active");
        assert_eq!(mc.mode(), DramPowerMode::Active);
    }

    #[test]
    fn memory_set_aggregation() {
        let mut set = MemorySet::new(2);
        assert_eq!(set.len(), 2);
        set.set_allow_cke_off_all(true);
        assert!(set
            .iter()
            .all(|m| m.mode() == DramPowerMode::PrechargePowerDown));
        let lat = set.set_allow_cke_off_all(false);
        assert_eq!(lat, MemoryController::CKE_OFF_EXIT);
        assert!(set.iter().all(|m| m.mode() == DramPowerMode::Active));
        assert_eq!(McId(1).to_string(), "mc1");
    }
}
