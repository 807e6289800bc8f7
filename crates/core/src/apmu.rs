//! The Agile Power Management Unit (APMU) and the PC1A entry/exit flow.
//!
//! The APMU (paper Sec. 4.1) is a small hardware FSM placed in the north cap
//! next to the firmware GPMU. It watches the aggregated `InCC1` signal from
//! the cores and the aggregated `&InL0s` signal from the IO controllers, and
//! orchestrates the PC1A flow of Fig. 4:
//!
//! ```text
//! PC0 --all cores CC1 / set AllowL0s--> ACC1 --&InL0s--> (1) gate CLM clock
//!                                                        (2) Ret -> CLM FIVRs   [non-blocking]
//!                                                        (3) set Allow_CKE_OFF
//!                                                        ==> PC1A  (+ InPC1A to GPMU)
//! PC1A --wakeup--> (4) unset Ret  (5) PwrOk -> ungate CLM  (6) unset Allow_CKE_OFF
//!      ==> ACC1 --core interrupt / unset AllowL0s--> PC0
//! ```
//!
//! The APMU drives the socket's components itself. IO Standby Mode (IOSM,
//! Sec. 4.2) is its `AllowL0s` towards the IO links and its
//! `Allow_CKE_OFF` towards the memory controllers; CLM Retention (CLMR,
//! Sec. 4.3) is its `ClkGate` and `Ret` towards the CLM domain, whose PLL
//! stays locked.
//!
//! # Latency (Sec. 5.5)
//!
//! The flow is the one place a PC1A transition latency is composed: each
//! step takes the latency of the component it drives, on the 500 MHz PMU
//! clock (2 ns a cycle).
//!
//! * **Entry**, from ACC1 once every link is in L0s/L0p: gating the CLM
//!   clock tree (2 cycles), asserting `Allow_CKE_OFF` (2 cycles) and the
//!   CKE-off entry (≤ 10 ns), 18 ns in all, the paper's ≈ 18 ns. The CLM
//!   FIVRs' 150 ns ramp to retention runs on without blocking the entry.
//! * **Exit**: the FIVRs ramp back to nominal (300 mV at 2 mV/ns, 150 ns),
//!   and the CKE-off exit (24 ns) and the links' exits (≤ 64 ns, from L0s)
//!   overlap the ramp; once `PwrOk` rises the clock tree ungates (2 cycles).
//!   From a settled PC1A that is 154 ns, where the paper budgets ≤ 150 ns
//!   and leaves the ungate out. A wakeup during the entry ramps back only
//!   the voltage already lost.
//! * The round trip, 172 ns, stays under the paper's 200 ns and is more
//!   than 250× faster than PC6; [`crate::power::flow_latency`] measures it.
//!
//! The APMU is event-driven: the surrounding simulation notifies it of the
//! relevant edges (all cores idle, standby deadline reached, wakeup, core
//! active) and the APMU mutates the socket's component models and reports the
//! latencies that the flow incurs.

use std::fmt;

use apc_sim::{SimDuration, SimTime};
use apc_soc::clock::PMU_CLOCK;
use apc_soc::cstate::PackageCState;
use apc_soc::memory::MemorySet;
use apc_soc::topology::SkxSoc;

/// The APMU FSM state (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApmuState {
    /// Package active; at least one core running (or recently running).
    Pc0,
    /// All cores idle in CC1; `AllowL0s` asserted, waiting for `&InL0s`.
    Acc1,
    /// PC1A entry steps in flight.
    Entering,
    /// Resident in PC1A; `InPC1A` asserted towards the GPMU.
    InPc1a,
    /// PC1A exit steps in flight; back in ACC1 when they complete.
    Exiting,
}

impl fmt::Display for ApmuState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApmuState::Pc0 => f.write_str("PC0"),
            ApmuState::Acc1 => f.write_str("ACC1"),
            ApmuState::Entering => f.write_str("entering-PC1A"),
            ApmuState::InPc1a => f.write_str("PC1A"),
            ApmuState::Exiting => f.write_str("exiting-PC1A"),
        }
    }
}

/// Why the APMU was asked to wake the package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WakeCause {
    /// An IO link detected traffic and left L0s/L0p (`InL0s` de-asserted).
    IoTraffic,
    /// The GPMU forwarded a core interrupt (timer, IPI, device MSI).
    CoreInterrupt,
    /// The GPMU requested a wake for its own reasons (thermal event,
    /// firmware housekeeping).
    GpmuEvent,
}

/// Result of delivering a wakeup to the APMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeOutcome {
    /// The package was not in (or entering) PC1A; nothing to unwind. The
    /// reported latency is the residual IO wake cost (zero when links were
    /// already active).
    NotResident {
        /// Residual wake latency (e.g. links leaving L0s in ACC1).
        latency: SimDuration,
    },
    /// A PC1A exit flow has begun; the uncore is available again at
    /// `done_at`.
    Exiting {
        /// When the exit flow completes.
        done_at: SimTime,
        /// Total exit latency from the wakeup instant.
        latency: SimDuration,
    },
}

impl WakeOutcome {
    /// The wake latency regardless of outcome kind.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        match self {
            WakeOutcome::NotResident { latency } | WakeOutcome::Exiting { latency, .. } => *latency,
        }
    }
}

/// Statistics the APMU keeps (exposed to the telemetry layer; PC1A
/// residency is measured by the telemetry layer's residency tracker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApmuStats {
    /// Completed PC1A entries.
    pub pc1a_entries: u64,
    /// Entries aborted by a wakeup arriving during the entry flow.
    pub aborted_entries: u64,
}

/// The Agile Power Management Unit.
#[derive(Debug)]
pub struct Apmu {
    state: ApmuState,
    stats: ApmuStats,
}

impl Apmu {
    /// PMU clock cycles the APMU takes to assert `Allow_CKE_OFF` (1–2 per
    /// the paper; the conservative 2).
    const ALLOW_CKE_OFF_CYCLES: u64 = 2;

    /// Creates an APMU in PC0.
    #[must_use]
    pub fn new() -> Self {
        Apmu {
            state: ApmuState::Pc0,
            stats: ApmuStats::default(),
        }
    }

    /// Current FSM state.
    #[must_use]
    pub fn state(&self) -> ApmuState {
        self.state
    }

    /// The `InPC1A` status signal towards the GPMU.
    #[must_use]
    pub fn in_pc1a(&self) -> bool {
        self.state == ApmuState::InPc1a
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ApmuStats {
        self.stats
    }

    /// The package C-state the FSM implies, for residency and the time
    /// series' `package_state` column: PC0idle throughout ACC1 and both
    /// flows. It drives no energy. The power charged follows the
    /// components, and each flow moves them at its first step: a socket
    /// mid-entry draws its PC1A power, and one mid-exit has its links,
    /// DRAM and CLM voltage back but its CLM clock still gated.
    #[must_use]
    pub fn package_state(&self, any_core_active: bool) -> PackageCState {
        match self.state {
            ApmuState::InPc1a => PackageCState::PC1A,
            ApmuState::Pc0 => {
                if any_core_active {
                    PackageCState::PC0
                } else {
                    PackageCState::PC0Idle
                }
            }
            ApmuState::Acc1 | ApmuState::Entering | ApmuState::Exiting => PackageCState::PC0Idle,
        }
    }

    /// Notification that the aggregated `InCC1` signal asserted (every core
    /// is now established in CC1). Moves PC0 → ACC1 and asserts `AllowL0s`.
    ///
    /// Returns the earliest time at which the links can all have reached
    /// L0s/L0p — the caller should invoke [`Apmu::on_standby_deadline`] at
    /// that time — or `None` when the APMU is already past PC0, or some
    /// link is busy (in which case the attempt resolves when either the
    /// traffic drains and the caller retries, or a core wakes up).
    pub fn on_all_cores_idle(&mut self, soc: &mut SkxSoc) -> Option<SimTime> {
        if self.state != ApmuState::Pc0 {
            return None;
        }
        self.state = ApmuState::Acc1;
        soc.ios_mut().set_allow_shallow_all(true);
        soc.ios().standby_deadline()
    }

    /// Notification that the standby deadline reported by
    /// [`Apmu::on_all_cores_idle`] has been reached. If every link has indeed
    /// entered its shallow state (`&InL0s`), the PC1A entry flow starts:
    /// the CLM is clock-gated, `Ret` is asserted (non-blocking ramp) and
    /// `Allow_CKE_OFF` is set.
    ///
    /// Returns the time at which the package is resident in PC1A (the caller
    /// should then invoke [`Apmu::on_entry_complete`]), or `None` when the
    /// conditions no longer hold (a wakeup raced the deadline).
    pub fn on_standby_deadline(&mut self, soc: &mut SkxSoc, now: SimTime) -> Option<SimTime> {
        if self.state != ApmuState::Acc1 {
            return None;
        }
        // The InCC1 AND-tree must still be asserted: a core that started
        // waking since the deadline was armed vetoes the entry.
        if !soc.cores().all_in_cc1_or_deeper() {
            return None;
        }
        if !soc.ios_mut().try_enter_standby(now) {
            return None;
        }
        // (1) Gate the CLM clock tree, its PLL kept locked.
        let gate = soc.clm_mut().clock_gate();
        // (2) `Ret`: the FIVRs ramp to retention without blocking the entry.
        soc.clm_mut().assert_retention(now);
        // (3) Allow the memory controllers to drop CKE.
        soc.memory_mut().set_allow_cke_off(true);
        let allow_cke_off = PMU_CLOCK.cycles(Self::ALLOW_CKE_OFF_CYCLES);
        self.state = ApmuState::Entering;
        Some(now + gate + allow_cke_off + MemorySet::CKE_OFF_ENTRY)
    }

    /// Notification that the entry flow completed: the package is resident in
    /// PC1A and `InPC1A` asserts.
    ///
    /// # Panics
    ///
    /// Panics if no entry flow is in flight.
    pub fn on_entry_complete(&mut self) {
        match self.state {
            ApmuState::Entering => {
                self.state = ApmuState::InPc1a;
                self.stats.pc1a_entries += 1;
            }
            _ => panic!("on_entry_complete without an entry flow in flight"),
        }
    }

    /// Delivers a wakeup event (IO traffic, core interrupt or GPMU event).
    ///
    /// * Resident in PC1A (or still entering): starts the exit flow —
    ///   de-asserts `Ret`, un-gates the CLM once `PwrOk`, clears
    ///   `Allow_CKE_OFF` — and reports when the uncore is available again.
    /// * In ACC1: nothing to unwind; links that had autonomously entered L0s
    ///   wake with their nanosecond exit latency.
    /// * In PC0 or already exiting: a no-op.
    pub fn wakeup(&mut self, soc: &mut SkxSoc, now: SimTime, cause: WakeCause) -> WakeOutcome {
        match self.state {
            ApmuState::InPc1a => self.begin_exit(soc, now),
            ApmuState::Entering => {
                // Entry raced a wakeup: unwind immediately. The voltage ramp
                // is interrupted pre-emptively, so the exit is never longer
                // than a full exit.
                self.stats.aborted_entries += 1;
                self.begin_exit(soc, now)
            }
            ApmuState::Acc1 => {
                let latency = if cause == WakeCause::CoreInterrupt {
                    // Fig. 4: a core interrupt in ACC1 returns to PC0 and
                    // clears AllowL0s.
                    let lat = soc.ios_mut().set_allow_shallow_all(false);
                    self.state = ApmuState::Pc0;
                    lat
                } else {
                    // IO traffic in ACC1: the affected link wakes on its own;
                    // the FSM stays in ACC1 awaiting either full standby or a
                    // core interrupt.
                    soc.ios().worst_exit_latency()
                };
                WakeOutcome::NotResident { latency }
            }
            ApmuState::Pc0 | ApmuState::Exiting => WakeOutcome::NotResident {
                latency: SimDuration::ZERO,
            },
        }
    }

    /// Notification that the exit flow completed: the package is back in
    /// ACC1 (uncore available, cores still idle).
    ///
    /// # Panics
    ///
    /// Panics if no exit flow is in flight.
    pub fn on_exit_complete(&mut self, soc: &mut SkxSoc, now: SimTime) {
        match self.state {
            ApmuState::Exiting => {
                // (5) `PwrOk`: ungate the CLM clock tree.
                soc.clm_mut().complete_voltage_transition(now);
                soc.clm_mut().clock_ungate();
                self.state = ApmuState::Acc1;
            }
            _ => panic!("on_exit_complete without an exit flow in flight"),
        }
    }

    /// Notification that a core returned to CC0 (the ACC1 → PC0 edge of
    /// Fig. 4). Clears `AllowL0s`; returns the worst link wake latency paid.
    pub fn on_core_active(&mut self, soc: &mut SkxSoc) -> SimDuration {
        match self.state {
            ApmuState::Acc1 => {
                let lat = soc.ios_mut().set_allow_shallow_all(false);
                self.state = ApmuState::Pc0;
                lat
            }
            ApmuState::Pc0 => SimDuration::ZERO,
            // A core cannot be running while the uncore is in PC1A or in
            // transition: the wakeup path always goes through `wakeup()` and
            // `on_exit_complete()` first. Treat as a protocol error.
            _ => panic!(
                "core became active while the APMU was in state {}",
                self.state
            ),
        }
    }

    fn begin_exit(&mut self, soc: &mut SkxSoc, now: SimTime) -> WakeOutcome {
        // (4) De-assert `Ret`: the FIVRs ramp back to nominal.
        let ramp = soc.clm_mut().deassert_retention(now);
        // (6) Clear `Allow_CKE_OFF`; the CKE-off exit overlaps the ramp.
        let cke = soc.memory_mut().set_allow_cke_off(false);
        // The links' exits overlap it too. They wake now, and re-enter
        // standby only in the next ACC1 episode.
        let io = soc.ios().worst_exit_latency();
        for link in soc.ios_mut().iter_mut() {
            link.wake();
        }
        // (5) The clock tree ungates once `PwrOk` rises, in
        // `on_exit_complete`.
        let ungate = soc.clm().clock().ungate_latency();
        let latency = ramp.max(cke).max(io) + ungate;
        self.state = ApmuState::Exiting;
        WakeOutcome::Exiting {
            done_at: now + latency,
            latency,
        }
    }
}

impl Default for Apmu {
    fn default() -> Self {
        Apmu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_soc::clm::ClmState;
    use apc_soc::cstate::CoreCState;
    use apc_soc::io::{IoKind, LinkPowerState};
    use apc_soc::memory::DramPowerMode;
    use apc_soc::pll::PllState;
    use apc_soc::topology::SocConfig;

    /// Prepares a socket with all cores idle in CC1 and all links idle.
    fn idle_soc(now: SimTime) -> SkxSoc {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC1);
        for io in soc.ios_mut().iter_mut() {
            io.end_traffic(now);
        }
        soc
    }

    /// Drives the APMU through a complete entry, returning the residency
    /// start time.
    fn enter_pc1a(apmu: &mut Apmu, soc: &mut SkxSoc) -> SimTime {
        let deadline = apmu.on_all_cores_idle(soc).expect("ACC1 entry");
        let resident_at = apmu
            .on_standby_deadline(soc, deadline)
            .expect("PC1A entry should start");
        apmu.on_entry_complete();
        resident_at
    }

    #[test]
    fn full_entry_flow_reaches_pc1a() {
        let t0 = SimTime::from_micros(100);
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        assert_eq!(apmu.state(), ApmuState::Pc0);

        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        assert_eq!(apmu.state(), ApmuState::Acc1);
        assert_eq!(deadline, t0 + SimDuration::from_nanos(16));

        let resident_at = apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        assert_eq!(resident_at, deadline + SimDuration::from_nanos(18));
        assert_eq!(apmu.state(), ApmuState::Entering);

        apmu.on_entry_complete();
        assert!(apmu.in_pc1a());
        assert_eq!(apmu.stats().pc1a_entries, 1);
        assert_eq!(apmu.package_state(false), PackageCState::PC1A);

        // Component states match Table 2's PC1A row.
        assert!(soc.ios().all_in_l0s());
        assert_eq!(soc.memory().mode(), DramPowerMode::PrechargePowerDown);
        assert!(soc.clm().clock().is_gated());
        assert_eq!(soc.plls().uncore_state(), PllState::Locked);
    }

    #[test]
    fn wakeup_from_pc1a_is_nanosecond_scale() {
        let t0 = SimTime::from_micros(100);
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        let resident_at = enter_pc1a(&mut apmu, &mut soc);

        let wake_at = resident_at + SimDuration::from_micros(50);
        let outcome = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
        let WakeOutcome::Exiting { done_at, latency } = outcome else {
            panic!("expected an exit flow");
        };
        assert!(latency <= SimDuration::from_nanos(160), "latency {latency}");
        assert!(latency >= SimDuration::from_nanos(100));
        apmu.on_exit_complete(&mut soc, done_at);
        assert_eq!(apmu.state(), ApmuState::Acc1);
        assert_eq!(apmu.stats().pc1a_entries, 1);

        // Core interrupt then returns the FSM to PC0 and reactivates links.
        apmu.on_core_active(&mut soc);
        assert_eq!(apmu.state(), ApmuState::Pc0);
        assert!(soc.ios().iter().all(|c| c.state() == LinkPowerState::L0));
        assert_eq!(soc.memory().mode(), DramPowerMode::Active);
    }

    #[test]
    fn entry_exit_round_trip_is_under_200ns() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        let resident_at = apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        apmu.on_entry_complete();
        // Immediate wakeup.
        let outcome = apmu.wakeup(&mut soc, resident_at, WakeCause::CoreInterrupt);
        let total = (outcome.latency() + (resident_at - deadline)).as_nanos();
        assert!(total <= 200, "entry+exit {total} ns");
    }

    #[test]
    fn busy_link_defers_entry() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        // One PCIe port still has traffic outstanding.
        soc.ios_mut()
            .controller_mut(apc_soc::io::IoId(0))
            .begin_traffic();
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc);
        assert_eq!(deadline, None, "busy link means no standby deadline");
        assert_eq!(apmu.state(), ApmuState::Acc1);
        // Even if the caller polls later, entry does not start while busy.
        assert_eq!(
            apmu.on_standby_deadline(&mut soc, t0 + SimDuration::from_micros(1)),
            None
        );
    }

    #[test]
    fn wakeup_during_entry_aborts_and_unwinds() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        let _resident_at = apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        // Wakeup arrives before entry completes.
        let wake_at = deadline + SimDuration::from_nanos(5);
        let outcome = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
        assert!(matches!(outcome, WakeOutcome::Exiting { .. }));
        assert_eq!(apmu.stats().aborted_entries, 1);
        assert_eq!(apmu.stats().pc1a_entries, 0);
    }

    #[test]
    fn core_interrupt_in_acc1_returns_to_pc0() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        apmu.on_all_cores_idle(&mut soc).unwrap();
        let outcome = apmu.wakeup(
            &mut soc,
            t0 + SimDuration::from_nanos(8),
            WakeCause::CoreInterrupt,
        );
        assert!(matches!(outcome, WakeOutcome::NotResident { .. }));
        assert_eq!(apmu.state(), ApmuState::Pc0);
    }

    #[test]
    fn io_traffic_in_acc1_keeps_acc1() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        apmu.on_all_cores_idle(&mut soc).unwrap();
        let outcome = apmu.wakeup(
            &mut soc,
            t0 + SimDuration::from_nanos(8),
            WakeCause::IoTraffic,
        );
        assert!(matches!(outcome, WakeOutcome::NotResident { .. }));
        assert_eq!(apmu.state(), ApmuState::Acc1);
    }

    #[test]
    #[should_panic(expected = "core became active while the APMU was in state")]
    fn core_active_while_resident_is_a_protocol_error() {
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        enter_pc1a(&mut apmu, &mut soc);
        let _ = apmu.on_core_active(&mut soc);
    }

    #[test]
    fn deasserting_allow_l0s_wakes_every_link() {
        // The links enter standby on their own in ACC1; the core that runs
        // again clears AllowL0s and pays the slowest link's exit.
        let t0 = SimTime::ZERO;
        let mut soc = idle_soc(t0);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        assert!(soc.ios_mut().try_enter_standby(deadline));
        assert_eq!(apmu.on_core_active(&mut soc), SimDuration::from_nanos(64));
        assert_eq!(apmu.state(), ApmuState::Pc0);
        assert!(soc.ios().iter().all(|c| c.state() == LinkPowerState::L0));
    }

    #[test]
    fn cke_off_assert_and_release() {
        // UPI links leave L0p in 10 ns, so an exit started before the CLM
        // voltage has moved waits on the 24 ns CKE-off exit, then the
        // ungate.
        let config = SocConfig {
            cores: 2,
            io_kinds: vec![IoKind::Upi],
            memory_controllers: 1,
        };
        let mut soc = config.build();
        soc.force_all_cores(CoreCState::CC1);
        soc.ios_mut()
            .controller_mut(apc_soc::io::IoId(0))
            .end_traffic(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        assert_eq!(soc.memory().mode(), DramPowerMode::PrechargePowerDown);
        let exit = apmu.wakeup(&mut soc, deadline, WakeCause::IoTraffic);
        assert_eq!(exit.latency(), SimDuration::from_nanos(24 + 4));
        assert_eq!(soc.memory().mode(), DramPowerMode::Active);
    }

    #[test]
    fn retention_entry_is_fast_and_nonblocking() {
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        let resident_at = apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        // Resident 18 ns in, while the 150 ns ramp to retention runs on.
        assert_eq!(resident_at - deadline, SimDuration::from_nanos(18));
        assert!(soc.clm().clock().is_gated());
        assert_eq!(soc.clm().state(), ClmState::Retention);
        assert!(!soc.clm().pwr_ok(), "ramp still in flight");
    }

    #[test]
    fn plls_stay_locked_throughout() {
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let resident_at = enter_pc1a(&mut apmu, &mut soc);
        assert_eq!(
            soc.plls().uncore_state(),
            PllState::Locked,
            "APC never unlocks a PLL"
        );
        let wake_at = resident_at + SimDuration::from_micros(1);
        let WakeOutcome::Exiting { done_at, .. } =
            apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic)
        else {
            panic!("expected an exit flow");
        };
        assert_eq!(soc.plls().uncore_state(), PllState::Locked);
        apmu.on_exit_complete(&mut soc, done_at);
        assert_eq!(soc.clm().state(), ClmState::Operational);
        assert!(soc.clm().pwr_ok());
        assert_eq!(soc.plls().uncore_state(), PllState::Locked);
    }

    #[test]
    fn exit_critical_path_is_dominated_by_the_ramp() {
        // Once the entry's ramp has settled, the exit is the full ramp back
        // (the links' 64 ns and the CKE-off 24 ns overlap it) plus the
        // 2-cycle ungate after `PwrOk`.
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let resident_at = enter_pc1a(&mut apmu, &mut soc);
        let wake_at = resident_at + SimDuration::from_micros(1);
        let exit = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
        assert_eq!(exit.latency(), SimDuration::from_nanos(150 + 4));
    }

    #[test]
    fn interrupted_entry_exits_cheaply() {
        // Preemptive voltage command: a wakeup 100 ns into the 150 ns ramp
        // only has to recover the 200 mV already lost.
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        apmu.on_entry_complete();
        let wake_at = deadline + SimDuration::from_nanos(100);
        let exit = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
        assert_eq!(exit.latency(), SimDuration::from_nanos(100 + 4));
    }

    #[test]
    fn repeated_cycles_accumulate_stats() {
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::new();
        let mut t = SimTime::from_micros(10);
        for _ in 0..5 {
            soc.force_all_cores(CoreCState::CC1);
            for io in soc.ios_mut().iter_mut() {
                io.end_traffic(t);
            }
            let resident = enter_pc1a(&mut apmu, &mut soc);
            let wake_at = resident + SimDuration::from_micros(30);
            let outcome = apmu.wakeup(&mut soc, wake_at, WakeCause::IoTraffic);
            if let WakeOutcome::Exiting { done_at, .. } = outcome {
                apmu.on_exit_complete(&mut soc, done_at);
                apmu.on_core_active(&mut soc);
                t = done_at + SimDuration::from_micros(100);
            }
        }
        let stats = apmu.stats();
        assert_eq!(stats.pc1a_entries, 5);
        assert_eq!(stats.aborted_entries, 0);
    }
}
