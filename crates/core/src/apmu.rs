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
//! The APMU is event-driven: the surrounding simulation notifies it of the
//! relevant edges (all cores idle, standby deadline reached, wakeup, core
//! active) and the APMU mutates the socket's component models and reports the
//! latencies that the flow incurs.

use std::fmt;

use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::PackageCState;
use apc_soc::topology::SkxSoc;

use crate::clmr::ClmRetention;
use crate::iosm::IoStandbyMode;
use crate::latency::Pc1aLatencyModel;

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
pub struct Apmu {
    state: ApmuState,
    iosm: IoStandbyMode,
    clmr: ClmRetention,
    latency: Pc1aLatencyModel,
    enabled: bool,
    stats: ApmuStats,
}

impl fmt::Debug for Apmu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Apmu")
            .field("state", &self.state)
            .field("enabled", &self.enabled)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Apmu {
    /// Creates an enabled APMU with the default latency model.
    #[must_use]
    pub fn new() -> Self {
        Apmu {
            state: ApmuState::Pc0,
            iosm: IoStandbyMode,
            clmr: ClmRetention,
            latency: Pc1aLatencyModel::from_components(),
            enabled: true,
            stats: ApmuStats::default(),
        }
    }

    /// Creates a disabled APMU (the `Cshallow`/`Cdeep` baselines: the
    /// hardware is absent, so the FSM never leaves PC0).
    #[must_use]
    pub fn disabled() -> Self {
        let mut apmu = Apmu::new();
        apmu.enabled = false;
        apmu
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

    /// The package C-state the APMU currently holds the system in, for power
    /// accounting. Transitional phases are charged at PC0idle power
    /// (conservative: no PC1A savings are claimed during entry/exit).
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
    /// that time — or `None` when the APMU is disabled, already past PC0, or
    /// some link is busy (in which case the attempt resolves when either the
    /// traffic drains and the caller retries, or a core wakes up).
    pub fn on_all_cores_idle(&mut self, soc: &mut SkxSoc) -> Option<SimTime> {
        if !self.enabled || self.state != ApmuState::Pc0 {
            return None;
        }
        self.state = ApmuState::Acc1;
        self.iosm.assert_allow_l0s(soc);
        self.iosm.standby_deadline(soc)
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
        if !self.iosm.try_enter_standby(soc, now) {
            return None;
        }
        // Branch (i): clock-gate the CLM and start the retention ramp.
        let (_gate, _ramp) = self.clmr.enter_retention(soc, now);
        // Branch (ii): allow the MCs to drop CKE.
        self.iosm.assert_allow_cke_off(soc);
        self.state = ApmuState::Entering;
        Some(now + self.latency.entry())
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
                    let lat = self.iosm.deassert_allow_l0s(soc);
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
                self.clmr.exit_complete(soc, now);
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
                let lat = self.iosm.deassert_allow_l0s(soc);
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
        // Step 4/5: de-assert Ret, ungate after PwrOk.
        let (ramp, ungate) = self.clmr.exit_retention(soc, now);
        // Step 6: clear Allow_CKE_OFF (concurrent branch).
        let cke = self.iosm.deassert_allow_cke_off(soc);
        // IO links wake on their own when traffic arrives; their worst exit
        // latency overlaps the CLM ramp.
        let io = soc.ios().worst_exit_latency();
        // Wake the links now (the exit flow reactivates the uncore; links
        // re-enter standby only on the next ACC1 episode).
        for link in soc.ios_mut().iter_mut() {
            link.wake();
        }
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
    use apc_soc::cstate::CoreCState;
    use apc_soc::io::LinkPowerState;
    use apc_soc::memory::DramPowerMode;
    use apc_soc::pll::PllState;

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
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::PrechargePowerDown));
        assert!(soc.clm().clock().is_gated());
        assert!(soc.plls().iter().all(|p| p.state() == PllState::Locked));
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
        assert!(soc
            .memory()
            .iter()
            .all(|m| m.mode() == DramPowerMode::Active));
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
    fn disabled_apmu_never_leaves_pc0() {
        let mut soc = idle_soc(SimTime::ZERO);
        let mut apmu = Apmu::disabled();
        assert_eq!(apmu.on_all_cores_idle(&mut soc), None);
        assert_eq!(apmu.state(), ApmuState::Pc0);
        assert_eq!(apmu.package_state(false), PackageCState::PC0Idle);
        assert_eq!(apmu.package_state(true), PackageCState::PC0);
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
