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

/// The firmware GPMU: drives the baseline PC6 flow and provides the wakeup
/// interface the APMU also hooks into.
///
/// The flow's latency is its firmware steps, which no component models,
/// plus the uncore PLLs' re-lock on exit, which the PLL set returns. The
/// split between the steps follows the mechanism latencies of Sec. 3.1 and
/// 5.5, and the round trip, 22 µs in and 30 µs out, exceeds Table 1's
/// 50 µs.
#[derive(Debug, Clone)]
pub struct Gpmu {
    phase: GpmuPhase,
    pc6_entries: u64,
}

impl Gpmu {
    /// Firmware decision and PC2 transit on entry.
    const FIRMWARE_ENTRY: SimDuration = SimDuration::from_micros(10);
    /// Placing the links in L1 and DRAM in self-refresh.
    const IO_DRAM_ENTRY: SimDuration = SimDuration::from_micros(6);
    /// Clock-gating the uncore, stopping its PLLs and dropping the CLM
    /// voltage to retention.
    const UNCORE_ENTRY: SimDuration = SimDuration::from_micros(6);
    /// Firmware decision and PC2 transit on exit.
    const FIRMWARE_EXIT: SimDuration = SimDuration::from_micros(10);
    /// The CLM voltage ramp and the uncore clock ungate on exit.
    const UNCORE_EXIT: SimDuration = SimDuration::from_micros(5);
    /// The links' L1 exit (link retraining) and DRAM's self-refresh exit.
    const IO_DRAM_EXIT: SimDuration = SimDuration::from_micros(12);

    /// Creates a GPMU in the active phase.
    #[must_use]
    pub fn new() -> Self {
        Gpmu {
            phase: GpmuPhase::Active,
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

    /// Whether the GPMU would start a PC6 entry right now: the package must
    /// be active and every core established in CC6.
    #[must_use]
    pub fn can_enter_pc6(&self, soc: &SkxSoc) -> bool {
        self.phase == GpmuPhase::Active
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
        let memory = soc.memory_mut();
        memory.set_allow_self_refresh(true);
        memory.enter_self_refresh();
        // Uncore: gate CLM clock, stop PLLs, drop CLM voltage to retention.
        soc.clm_mut().clock_gate();
        soc.plls_mut().power_off_uncore();
        soc.clm_mut().assert_retention(now);
        Self::FIRMWARE_ENTRY + Self::IO_DRAM_ENTRY + Self::UNCORE_ENTRY
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
        let relock = soc.plls_mut().begin_relock_uncore();
        Self::FIRMWARE_EXIT + relock + Self::UNCORE_EXIT + Self::IO_DRAM_EXIT
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
        let memory = soc.memory_mut();
        memory.set_allow_self_refresh(false);
        memory.wake();
        self.phase = GpmuPhase::Active;
    }

    /// The package C-state the phase implies, for residency and the time
    /// series' `package_state` column: PC2 throughout both flows. It drives
    /// no energy. The power charged follows the components: the entry
    /// moves them all at its first step, so a socket mid-entry draws its
    /// PC6 power; the exit raises the CLM voltage and starts the PLLs'
    /// re-lock at its first step, and ungates the CLM clock and wakes the
    /// links and DRAM at its last.
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

impl Default for Gpmu {
    fn default() -> Self {
        Gpmu::new()
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
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC6);
        let mut gpmu = Gpmu::new();
        let entry = gpmu.begin_entry(&mut soc, SimTime::ZERO);
        gpmu.complete_entry(&mut soc, SimTime::ZERO + entry);
        let exit = gpmu.begin_exit(&mut soc, SimTime::from_millis(1));
        assert_eq!(entry, SimDuration::from_micros(22));
        // The firmware steps and the uncore PLLs' 3 µs re-lock.
        assert_eq!(exit, SimDuration::from_micros(30));
        assert!(entry + exit >= SimDuration::from_micros(50));
    }

    #[test]
    fn gpmu_requires_all_cores_in_cc6() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let gpmu = Gpmu::new();
        assert!(!gpmu.can_enter_pc6(&soc), "cores are active");
        soc.force_all_cores(CoreCState::CC1);
        assert!(!gpmu.can_enter_pc6(&soc), "CC1 is not deep enough for PC6");
        soc.force_all_cores(CoreCState::CC6);
        assert!(gpmu.can_enter_pc6(&soc));
    }

    #[test]
    fn full_pc6_entry_exit_cycle() {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC6);
        let mut gpmu = Gpmu::new();

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
        assert_eq!(soc.memory().mode(), DramPowerMode::SelfRefresh);
        assert_eq!(soc.plls().uncore_state(), PllState::Off);
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
        assert_eq!(soc.memory().mode(), DramPowerMode::Active);
        assert_eq!(soc.plls().uncore_state(), PllState::Locked);
        assert!(!soc.clm().clock().is_gated());
        assert_eq!(gpmu.package_state(false), PackageCState::PC0);
        assert_eq!(gpmu.package_state(true), PackageCState::PC0Idle);
    }

    #[test]
    #[should_panic(expected = "preconditions not met")]
    fn entry_without_preconditions_panics() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut gpmu = Gpmu::new();
        let _ = gpmu.begin_entry(&mut soc, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not resident in PC6")]
    fn exit_without_entry_panics() {
        let mut soc = SkxSoc::xeon_silver_4114();
        let mut gpmu = Gpmu::new();
        let _ = gpmu.begin_exit(&mut soc, SimTime::ZERO);
    }

    #[test]
    fn phase_display() {
        assert_eq!(GpmuPhase::Active.to_string(), "active");
        assert_eq!(GpmuPhase::InPc6.to_string(), "in-PC6");
    }
}
