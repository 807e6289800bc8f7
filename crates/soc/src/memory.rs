//! The memory controllers and their DDR4 DRAM power modes.
//!
//! The paper contrasts two DRAM power-saving mechanisms (Sec. 3.1):
//!
//! * **CKE modes** (clock-enable off): per-rank, 10–30 ns transition,
//!   ≥ 50 % power saving — the mode PC1A uses (`Allow_CKE_OFF` signal);
//! * **Self-refresh**: the DRAM refreshes itself and most of the SoC↔DRAM
//!   interface can power down — several µs exit, used only by deep package
//!   C-states (PC6).
//!
//! The package flows apply either mechanism to every controller at once,
//! so [`MemorySet`] holds one mode for all of them.

use std::fmt;

use apc_sim::SimDuration;

use crate::changes::PowerChanges;

/// DRAM power modes. All ranks behind all controllers transition together,
/// which matches the package-level flows the paper describes.
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
            // Paper Sec. 5.5.2: CKE-off exits within 24 ns.
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

/// The memory subsystem of one socket: its memory controllers, each with
/// the DDR4 channel(s) it drives (the reference SKX system has two, each
/// driving three DDR4-2666 channels).
///
/// The package flows drive the controllers' two control inputs as one
/// group: `Allow_CKE_OFF` (new in APC) goes to every controller, and so do
/// the PC6 flow's self-refresh permission, entry and wake. So the set holds
/// one DRAM power mode and one self-refresh permission for all `len`
/// controllers.
///
/// # Examples
///
/// ```
/// use apc_soc::memory::{DramPowerMode, MemorySet};
///
/// // PC1A entry asserts Allow_CKE_OFF; its exit clears it and pays the
/// // CKE-off exit of every controller at once.
/// let mut memory = MemorySet::new(2);
/// memory.set_allow_cke_off(true);
/// assert_eq!(memory.mode(), DramPowerMode::PrechargePowerDown);
/// assert_eq!(memory.set_allow_cke_off(false).as_nanos(), 24);
/// assert_eq!(memory.mode(), DramPowerMode::Active);
/// ```
#[derive(Debug)]
pub struct MemorySet {
    len: usize,
    mode: DramPowerMode,
    /// Whether opportunistic self-refresh is permitted (PC6 flows).
    allow_self_refresh: bool,
    /// Counts every change of `mode`.
    changes: PowerChanges,
}

impl MemorySet {
    /// CKE-off entry happens as soon as the controllers are idle once
    /// allowed (within ~10 ns, paper Sec. 5.5.1).
    pub const CKE_OFF_ENTRY: SimDuration = SimDuration::from_nanos(10);

    /// Builds a set of `n` controllers in the active mode with all
    /// power-down modes disabled (datacenter default).
    #[must_use]
    pub fn new(n: usize) -> Self {
        MemorySet {
            len: n,
            mode: DramPowerMode::Active,
            allow_self_refresh: false,
            changes: PowerChanges::default(),
        }
    }

    /// Makes the set count its mode changes in `changes`.
    pub(crate) fn share_power_changes(&mut self, changes: &PowerChanges) {
        self.changes = changes.share();
    }

    /// Number of controllers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no controllers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The DRAM power mode of every controller.
    #[must_use]
    pub fn mode(&self) -> DramPowerMode {
        self.mode
    }

    /// Drives the `Allow_CKE_OFF` control signal on every controller (paper
    /// Sec. 4.2.2). When set, DRAM enters precharge power-down after
    /// [`MemorySet::CKE_OFF_ENTRY`]; when cleared, the controllers return
    /// to active and the caller should account for the returned exit
    /// latency.
    pub fn set_allow_cke_off(&mut self, allow: bool) -> SimDuration {
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
        let mut set = MemorySet::new(2);
        assert_eq!(set.len(), 2);
        assert_eq!(set.mode(), DramPowerMode::Active);
        // Allowing drops straight into CKE off.
        set.set_allow_cke_off(true);
        assert_eq!(set.mode(), DramPowerMode::PrechargePowerDown);
        // Clearing wakes it and reports the 24 ns exit.
        let lat = set.set_allow_cke_off(false);
        assert_eq!(lat, SimDuration::from_nanos(24));
        assert_eq!(set.mode(), DramPowerMode::Active);
    }

    #[test]
    fn self_refresh_requires_permission() {
        let mut set = MemorySet::new(2);
        assert!(!set.enter_self_refresh());
        set.set_allow_self_refresh(true);
        assert!(set.enter_self_refresh());
        assert_eq!(set.mode(), DramPowerMode::SelfRefresh);
        let lat = set.wake();
        assert_eq!(lat, SimDuration::from_micros(5));
        assert_eq!(set.mode(), DramPowerMode::Active);
    }

    #[test]
    fn each_mode_change_is_counted_once() {
        let mut set = MemorySet::new(2);
        assert_eq!(set.set_allow_cke_off(false), SimDuration::ZERO);
        assert_eq!(set.changes.get(), 0, "clearing the signal on active DRAM");
        set.set_allow_cke_off(true);
        set.set_allow_cke_off(true);
        assert_eq!(set.changes.get(), 1, "active -> CKE off");
        set.set_allow_self_refresh(true);
        assert!(set.enter_self_refresh());
        assert!(set.enter_self_refresh());
        assert_eq!(set.changes.get(), 2, "CKE off -> self-refresh");
        assert_eq!(set.wake(), SimDuration::from_micros(5));
        assert_eq!(set.wake(), SimDuration::ZERO);
        assert_eq!(set.changes.get(), 3, "self-refresh -> active");
        assert_eq!(set.mode(), DramPowerMode::Active);
    }

    #[test]
    fn memory_set_aggregation() {
        let mut set = MemorySet::new(2);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(MemorySet::new(0).is_empty());
        // Allow_CKE_OFF moves only active DRAM: the group stays in
        // self-refresh whichever way the signal goes, and only a wake
        // brings it back.
        set.set_allow_self_refresh(true);
        assert!(set.enter_self_refresh());
        assert_eq!(set.set_allow_cke_off(true), SimDuration::ZERO);
        assert_eq!(set.mode(), DramPowerMode::SelfRefresh);
        assert_eq!(set.set_allow_cke_off(false), SimDuration::ZERO);
        assert_eq!(set.mode(), DramPowerMode::SelfRefresh);
        assert_eq!(set.wake(), SimDuration::from_micros(5));
        assert_eq!(set.mode(), DramPowerMode::Active);
    }
}
