//! The firmware-based Global Power Management Unit (GPMU) and the baseline
//! PC6 package C-state flow.
//!
//! The GPMU lives in the north cap and runs firmware; its package flows are
//! therefore *microsecond-scale*. The PC6 entry flow (paper Fig. 2) is:
//! once all cores are in CC6, pass through PC2, place IOs in L1 and DRAM in
//! self-refresh, clock-gate the uncore and turn off most PLLs, then drop the
//! CLM voltage to retention. Exit reverses the flow and additionally pays the
//! PLL re-lock time. The total entry+exit latency exceeds 50 µs (Table 1),
//! which is exactly why the state is unusable for latency-critical servers.

use std::fmt;

use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::PackageCState;
use apc_soc::topology::SkxSoc;

/// Phases of the firmware package C-state flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpmuPhase {
    /// Package active (PC0) or idling without any package action.
    Active,
    /// Entry flow in progress (PC2 transient and deeper steps).
    Entering,
    /// Resident in PC6.
    InPc6,
    /// Exit flow in progress.
    Exiting,
}

impl fmt::Display for GpmuPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GpmuPhase::Active => "active",
            GpmuPhase::Entering => "entering",
            GpmuPhase::InPc6 => "in-PC6",
            GpmuPhase::Exiting => "exiting",
        };
        f.write_str(s)
    }
}

/// Latency budget of the firmware PC6 flow, mirroring Fig. 2's steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pc6LatencyModel {
    /// Firmware decision + PC2 transit on entry.
    firmware_entry_overhead: SimDuration,
    /// Placing IOs in L1 and DRAM in self-refresh.
    io_dram_entry: SimDuration,
    /// Clock-gating the uncore, stopping PLLs and dropping CLM voltage.
    uncore_entry: SimDuration,
    /// Firmware decision + PC2 transit on exit.
    firmware_exit_overhead: SimDuration,
    /// PLL re-lock on exit.
    pll_relock: SimDuration,
    /// CLM voltage ramp + uncore clock ungate on exit.
    uncore_exit: SimDuration,
    /// IO L1 exit (link retraining) and DRAM self-refresh exit.
    io_dram_exit: SimDuration,
}

impl Pc6LatencyModel {
    /// The latency budget used by the reproduction. The split between steps
    /// follows the mechanism latencies discussed in Sec. 3.1 and 5.5; the
    /// total is calibrated so that entry + exit > 50 µs (Table 1).
    #[must_use]
    pub fn skx() -> Self {
        Pc6LatencyModel {
            firmware_entry_overhead: SimDuration::from_micros(10),
            io_dram_entry: SimDuration::from_micros(6),
            uncore_entry: SimDuration::from_micros(6),
            firmware_exit_overhead: SimDuration::from_micros(10),
            pll_relock: SimDuration::from_micros(3),
            uncore_exit: SimDuration::from_micros(5),
            io_dram_exit: SimDuration::from_micros(12),
        }
    }

    /// Total entry latency.
    #[must_use]
    fn entry(&self) -> SimDuration {
        self.firmware_entry_overhead + self.io_dram_entry + self.uncore_entry
    }

    /// Total exit latency.
    #[must_use]
    fn exit(&self) -> SimDuration {
        self.firmware_exit_overhead + self.pll_relock + self.uncore_exit + self.io_dram_exit
    }

    /// Total entry + exit latency (the Table 1 number).
    #[must_use]
    pub fn round_trip(&self) -> SimDuration {
        self.entry() + self.exit()
    }
}

impl Default for Pc6LatencyModel {
    fn default() -> Self {
        Pc6LatencyModel::skx()
    }
}

/// The firmware GPMU: drives the baseline PC6 flow and provides the wakeup
/// interface the APMU also hooks into.
#[derive(Debug, Clone)]
pub struct Gpmu {
    phase: GpmuPhase,
    latency: Pc6LatencyModel,
    /// Deepest package C-state the platform allows (PC0 disables the flow).
    package_limit: PackageCState,
    pc6_entries: u64,
}

impl Gpmu {
    /// Creates a GPMU with the given package C-state limit.
    #[must_use]
    pub fn new(package_limit: PackageCState) -> Self {
        Gpmu {
            phase: GpmuPhase::Active,
            latency: Pc6LatencyModel::skx(),
            package_limit,
            pc6_entries: 0,
        }
    }

    /// The current flow phase.
    #[must_use]
    pub fn phase(&self) -> GpmuPhase {
        self.phase
    }

    /// Number of completed PC6 entries.
    #[must_use]
    pub fn pc6_entries(&self) -> u64 {
        self.pc6_entries
    }

    /// Whether the GPMU would start a PC6 entry right now: the platform must
    /// allow PC6 and every core must be established in CC6.
    #[must_use]
    pub fn can_enter_pc6(&self, soc: &SkxSoc) -> bool {
        self.package_limit == PackageCState::PC6
            && self.phase == GpmuPhase::Active
            && soc.cores().all_at_least(apc_soc::cstate::CoreCState::CC6)
    }

    /// Begins the PC6 entry flow (Fig. 2), applying the component state
    /// changes to the socket, and returns the entry latency after which
    /// [`Gpmu::complete_entry`] must be called.
    ///
    /// # Panics
    ///
    /// Panics if the flow preconditions do not hold (call
    /// [`Gpmu::can_enter_pc6`] first).
    pub fn begin_entry(&mut self, soc: &mut SkxSoc, now: SimTime) -> SimDuration {
        assert!(self.can_enter_pc6(soc), "PC6 entry preconditions not met");
        self.phase = GpmuPhase::Entering;

        // IOs to L1, DRAM to self-refresh.
        for io in soc.ios_mut().iter_mut() {
            io.set_allow_l1(true);
            io.enter_l1();
        }
        for mc in soc.memory_mut().iter_mut() {
            mc.set_allow_self_refresh(true);
            mc.enter_self_refresh();
        }
        // Uncore: gate CLM clock, stop PLLs, drop CLM voltage to retention.
        soc.clm_mut().clock_gate();
        soc.plls_mut().power_off_uncore();
        let ramp = soc.clm_mut().assert_retention(now);
        let _ = ramp; // subsumed by the firmware latency budget below
        self.latency.entry()
    }

    /// Marks the PC6 entry flow complete.
    pub fn complete_entry(&mut self, soc: &mut SkxSoc, now: SimTime) {
        assert_eq!(self.phase, GpmuPhase::Entering, "no PC6 entry in flight");
        soc.clm_mut().complete_voltage_transition(now);
        self.phase = GpmuPhase::InPc6;
        self.pc6_entries += 1;
    }

    /// Begins the PC6 exit flow in response to a wakeup event and returns the
    /// exit latency after which [`Gpmu::complete_exit`] must be called.
    ///
    /// # Panics
    ///
    /// Panics if the package is not resident in PC6 (an exit during entry is
    /// modelled by the caller waiting for entry to complete first, which is
    /// what the firmware flow does).
    pub fn begin_exit(&mut self, soc: &mut SkxSoc, now: SimTime) -> SimDuration {
        assert_eq!(self.phase, GpmuPhase::InPc6, "not resident in PC6");
        self.phase = GpmuPhase::Exiting;

        // Reverse order: ramp CLM voltage, re-lock PLLs, ungate, wake IOs/DRAM.
        soc.clm_mut().deassert_retention(now);
        soc.plls_mut().begin_relock_uncore();
        self.latency.exit()
    }

    /// Marks the PC6 exit flow complete; the package is active again.
    pub fn complete_exit(&mut self, soc: &mut SkxSoc, now: SimTime) {
        assert_eq!(self.phase, GpmuPhase::Exiting, "no PC6 exit in flight");
        soc.clm_mut().complete_voltage_transition(now);
        soc.clm_mut().clock_ungate();
        soc.plls_mut().complete_relock_uncore();
        for io in soc.ios_mut().iter_mut() {
            io.set_allow_l1(false);
            io.wake();
        }
        for mc in soc.memory_mut().iter_mut() {
            mc.set_allow_self_refresh(false);
            mc.wake();
        }
        self.phase = GpmuPhase::Active;
    }

    /// The package C-state corresponding to the current phase (used by the
    /// power model: entering/exiting phases are conservatively charged at the
    /// shallower state's power).
    #[must_use]
    pub fn package_state(&self, all_cores_idle: bool) -> PackageCState {
        match self.phase {
            GpmuPhase::InPc6 => PackageCState::PC6,
            GpmuPhase::Entering | GpmuPhase::Exiting => PackageCState::PC2,
            GpmuPhase::Active => {
                if all_cores_idle {
                    PackageCState::PC0Idle
                } else {
                    PackageCState::PC0
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_soc::cstate::CoreCState;
    use apc_soc::io::LinkPowerState;
    use apc_soc::memory::DramPowerMode;
    use apc_soc::pll::PllState;

    #[test]
    fn pc6_round_trip_latency_exceeds_50us() {
        let m = Pc6LatencyModel::skx();
        assert!(m.round_trip() >= SimDuration::from_micros(50));
        assert!(m.entry() > SimDuration::from_micros(10));
        assert!(m.exit() > SimDuration::from_micros(20));
        assert_eq!(Pc6LatencyModel::default(), m);
    }

    #[test]
    fn gpmu_requires_all_cores_in_cc6() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let gpmu = Gpmu::new(PackageCState::PC6);
        assert!(!gpmu.can_enter_pc6(&soc), "cores are active");
        soc.force_all_cores(CoreCState::CC1);
        assert!(!gpmu.can_enter_pc6(&soc), "CC1 is not deep enough for PC6");
        soc.force_all_cores(CoreCState::CC6);
        assert!(gpmu.can_enter_pc6(&soc));
    }

    #[test]
    fn gpmu_disabled_when_package_limit_is_pc0() {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC6);
        let gpmu = Gpmu::new(PackageCState::PC0);
        assert!(!gpmu.can_enter_pc6(&soc));
    }

    #[test]
    fn full_pc6_entry_exit_cycle() {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC6);
        let mut gpmu = Gpmu::new(PackageCState::PC6);

        let t0 = SimTime::from_micros(100);
        let entry = gpmu.begin_entry(&mut soc, t0);
        assert_eq!(gpmu.phase(), GpmuPhase::Entering);
        assert_eq!(gpmu.package_state(true), PackageCState::PC2);
        gpmu.complete_entry(&mut soc, t0 + entry);
        assert_eq!(gpmu.phase(), GpmuPhase::InPc6);
        assert_eq!(gpmu.package_state(true), PackageCState::PC6);
        assert_eq!(gpmu.pc6_entries(), 1);

        // Component states while resident in PC6.
        assert!(soc.ios().iter().all(|c| c.state() == LinkPowerState::L1));
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::SelfRefresh));
        assert!(soc.plls().uncore_plls().all(|p| p.state() == PllState::Off));
        assert!(soc.clm().clock().is_gated());

        // Reside for 1 ms, then a wakeup arrives.
        let t1 = t0 + entry + SimDuration::from_millis(1);
        let exit = gpmu.begin_exit(&mut soc, t1);
        assert_eq!(gpmu.phase(), GpmuPhase::Exiting);
        gpmu.complete_exit(&mut soc, t1 + exit);
        assert_eq!(gpmu.phase(), GpmuPhase::Active);
        assert_eq!(gpmu.pc6_entries(), 1);

        // Everything operational again.
        assert!(soc.ios().iter().all(|c| c.state() == LinkPowerState::L0));
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::Active));
        assert!(soc
            .plls()
            .uncore_plls()
            .all(|p| p.state() == PllState::Locked));
        assert!(!soc.clm().clock().is_gated());
        assert_eq!(gpmu.package_state(false), PackageCState::PC0);
        assert_eq!(gpmu.package_state(true), PackageCState::PC0Idle);
    }

    #[test]
    #[should_panic(expected = "preconditions not met")]
    fn entry_without_preconditions_panics() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut gpmu = Gpmu::new(PackageCState::PC6);
        let _ = gpmu.begin_entry(&mut soc, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not resident in PC6")]
    fn exit_without_entry_panics() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut gpmu = Gpmu::new(PackageCState::PC6);
        let _ = gpmu.begin_exit(&mut soc, SimTime::ZERO);
    }

    #[test]
    fn phase_display() {
        assert_eq!(GpmuPhase::Active.to_string(), "active");
        assert_eq!(GpmuPhase::InPc6.to_string(), "in-PC6");
    }
}
