//! Package controller: the firmware GPMU (PC6) under `Cdeep`, the APC APMU
//! (PC1A flows) under `CPC1A`, and nothing under `Cshallow`.
//!
//! Each node's controller is its [`ServerState::package`]. It records no
//! residency itself: after every node event the node records the package
//! state the controller's FSM implies (see [`ServerState::settle`]), and
//! the NIC, the cores and the scheduler ask the controller whether a
//! package event would do anything and whether the uncore is available.
//! Only the controller's own event handlers move its FSM, so every such
//! answer is current.
//!
//! [`ServerState::package`]: super::state::ServerState::package
//! [`ServerState::settle`]: super::state::ServerState::settle

use apc_core::apmu::{Apmu, ApmuState, ApmuStats, WakeCause, WakeOutcome};
use apc_pmu::config::PackagePolicy;
use apc_pmu::gpmu::{Gpmu, GpmuPhase};
use apc_sim::component::SimulationContext;
use apc_soc::cstate::PackageCState;
use apc_soc::topology::SkxSoc;

use super::ServerEvent;

/// One node's package C-state machinery: the FSM its platform's
/// [`PackagePolicy`] uses, and no other.
///
/// The gating queries (`wakeable`, `acc1_armed`, `wants_all_idle_check`)
/// let the parts that *emit* package events skip emissions the controller
/// would handle as pure no-ops. Skipping is bit-identical: every gated
/// event is emitted with `emit_now` (zero-length interval, so charging the
/// energy meter is a no-op) and its handler would leave every
/// package-state input untouched (so the residency update after it repeats
/// the previous state and is dropped by the same-state early return).
#[derive(Debug)]
pub enum PackageController {
    /// `PackagePolicy::None`: no package C-states (the `Cshallow`
    /// baseline).
    None,
    /// `PackagePolicy::Pc6`: the firmware GPMU's PC6 entry/exit flows, tens
    /// of microseconds each (`Cdeep`).
    Pc6 {
        /// The firmware FSM.
        gpmu: Gpmu,
        /// A wake arrived while the entry flow was still running; exit as
        /// soon as the entry completes.
        pending_wake: bool,
    },
    /// `PackagePolicy::Pc1a`: the APMU FSM (ACC1 on all-cores-idle, IO
    /// standby deadline, nanosecond-scale PC1A entry/abort/exit) of
    /// `CPC1A`.
    Pc1a(Apmu),
}

impl PackageController {
    /// The controller for `policy`, its FSM at its starting point.
    #[must_use]
    pub(crate) fn new(policy: PackagePolicy) -> Self {
        match policy {
            PackagePolicy::None => PackageController::None,
            PackagePolicy::Pc6 => PackageController::Pc6 {
                gpmu: Gpmu::new(),
                pending_wake: false,
            },
            PackagePolicy::Pc1a => PackageController::Pc1a(Apmu::new()),
        }
    }

    /// The APMU's statistics; all zero without an APMU.
    #[must_use]
    pub(crate) fn apmu_stats(&self) -> ApmuStats {
        match self {
            PackageController::Pc1a(apmu) => apmu.stats(),
            _ => ApmuStats::default(),
        }
    }

    /// Completed PC6 entries; zero without a GPMU.
    #[must_use]
    pub(crate) fn pc6_entries(&self) -> u64 {
        match self {
            PackageController::Pc6 { gpmu, .. } => gpmu.pc6_entries(),
            _ => 0,
        }
    }

    /// `true` when the shared uncore (LLC, memory path) is available for
    /// request execution. While it is not, queued work stays put; the
    /// controller emits a `Dispatch` the moment its exit flow completes.
    #[must_use]
    pub(crate) fn uncore_available(&self) -> bool {
        match self {
            PackageController::Pc1a(apmu) => {
                matches!(apmu.state(), ApmuState::Pc0 | ApmuState::Acc1)
            }
            PackageController::Pc6 { gpmu, .. } => gpmu.phase() == GpmuPhase::Active,
            PackageController::None => true,
        }
    }

    /// The package C-state the FSM implies while some core is active
    /// (`awake`), or while every core is idle.
    #[must_use]
    pub(crate) fn package_state(&self, awake: bool) -> PackageCState {
        match self {
            PackageController::Pc1a(apmu) => apmu.package_state(awake),
            PackageController::Pc6 { gpmu, .. } => gpmu.package_state(!awake),
            PackageController::None if awake => PackageCState::PC0,
            PackageController::None => PackageCState::PC0Idle,
        }
    }

    /// `true` when a `PackageWake` would do work: the package is in, or
    /// entering, a package C-state (PC1A: `Acc1`/`Entering`/`InPc1a`; PC6:
    /// `Entering`/`InPc6`).
    #[must_use]
    pub(crate) fn wakeable(&self) -> bool {
        match self {
            PackageController::Pc1a(apmu) => matches!(
                apmu.state(),
                ApmuState::Acc1 | ApmuState::Entering | ApmuState::InPc1a
            ),
            PackageController::Pc6 { gpmu, .. } => {
                matches!(gpmu.phase(), GpmuPhase::Entering | GpmuPhase::InPc6)
            }
            PackageController::None => false,
        }
    }

    /// `true` while the APMU sits in ACC1: the first core to run again must
    /// send `CoreActive` so the controller clears AllowL0s.
    #[must_use]
    pub(crate) fn acc1_armed(&self) -> bool {
        matches!(self, PackageController::Pc1a(apmu) if apmu.state() == ApmuState::Acc1)
    }

    /// Whether a core that finished entering idle sends `AllIdleCheck`:
    /// never without a package C-state, under PC1A only once every core is
    /// in CC1 or deeper (the controller would re-check and bail
    /// otherwise), and always under PC6.
    #[must_use]
    pub(crate) fn wants_all_idle_check(&self, soc: &SkxSoc) -> bool {
        match self {
            PackageController::None => false,
            PackageController::Pc1a(_) => soc.cores().all_in_cc1_or_deeper(),
            PackageController::Pc6 { .. } => true,
        }
    }

    /// The APMU; only a `CPC1A` controller emits the events that ask for
    /// it.
    fn apmu(&mut self) -> &mut Apmu {
        match self {
            PackageController::Pc1a(apmu) => apmu,
            other => unreachable!("APMU event reached {other:?}"),
        }
    }

    /// The GPMU and its pending-wake flag; only a `Cdeep` controller emits
    /// the events that ask for them.
    fn gpmu(&mut self) -> (&mut Gpmu, &mut bool) {
        match self {
            PackageController::Pc6 { gpmu, pending_wake } => (gpmu, pending_wake),
            other => unreachable!("GPMU event reached {other:?}"),
        }
    }

    pub(crate) fn on_package_wake(
        &mut self,
        cause: WakeCause,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        match self {
            PackageController::Pc1a(apmu) => match apmu.state() {
                ApmuState::InPc1a | ApmuState::Entering => {
                    if let WakeOutcome::Exiting { done_at, .. } = apmu.wakeup(soc, now, cause) {
                        ctx.emit_self_at(done_at, ServerEvent::ApmuExitDone);
                    }
                }
                ApmuState::Acc1 => {
                    let _ = apmu.wakeup(soc, now, cause);
                }
                ApmuState::Pc0 | ApmuState::Exiting => {}
            },
            PackageController::Pc6 { gpmu, pending_wake } => match gpmu.phase() {
                GpmuPhase::InPc6 => {
                    let exit = gpmu.begin_exit(soc, now);
                    ctx.emit_self(exit, ServerEvent::GpmuExitDone);
                }
                GpmuPhase::Entering => {
                    // Ready time unknown until the entry completes; the exit
                    // is started from on_gpmu_entry_done.
                    *pending_wake = true;
                }
                GpmuPhase::Active | GpmuPhase::Exiting => {}
            },
            PackageController::None => {}
        }
    }

    pub(crate) fn on_core_active(&mut self, soc: &mut SkxSoc) {
        // The ACC1 → PC0 edge: the first core to run again clears AllowL0s.
        // Any other state means the edge was already taken.
        let apmu = self.apmu();
        if apmu.state() == ApmuState::Acc1 {
            apmu.on_core_active(soc);
        }
    }

    pub(crate) fn on_all_idle_check(
        &mut self,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        match self {
            PackageController::Pc1a(apmu) => {
                if soc.cores().all_in_cc1_or_deeper() {
                    if let Some(deadline) = apmu.on_all_cores_idle(soc) {
                        ctx.emit_self_at(deadline, ServerEvent::StandbyDeadline);
                    }
                }
            }
            PackageController::Pc6 { gpmu, .. } => {
                if gpmu.can_enter_pc6(soc) {
                    let entry = gpmu.begin_entry(soc, now);
                    ctx.emit_self(entry, ServerEvent::GpmuEntryDone);
                }
            }
            PackageController::None => {}
        }
    }

    pub(crate) fn on_standby_deadline(
        &mut self,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        if let Some(done_at) = self.apmu().on_standby_deadline(soc, now) {
            ctx.emit_self_at(done_at, ServerEvent::ApmuEntryDone);
        }
    }

    pub(crate) fn on_apmu_entry_done(&mut self) {
        // A wakeup may have aborted the entry in the meantime; only a flow
        // still in flight completes.
        let apmu = self.apmu();
        if apmu.state() == ApmuState::Entering {
            apmu.on_entry_complete();
        }
    }

    pub(crate) fn on_apmu_exit_done(
        &mut self,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let apmu = self.apmu();
        if apmu.state() == ApmuState::Exiting {
            apmu.on_exit_complete(soc, ctx.now());
        }
        ctx.emit_now(ctx.id(), ServerEvent::Dispatch);
    }

    pub(crate) fn on_gpmu_entry_done(
        &mut self,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        let (gpmu, pending_wake) = self.gpmu();
        if gpmu.phase() == GpmuPhase::Entering {
            gpmu.complete_entry(soc, now);
        }
        if *pending_wake {
            *pending_wake = false;
            let exit = gpmu.begin_exit(soc, now);
            ctx.emit_self(exit, ServerEvent::GpmuExitDone);
        }
    }

    pub(crate) fn on_gpmu_exit_done(
        &mut self,
        soc: &mut SkxSoc,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let (gpmu, _) = self.gpmu();
        if gpmu.phase() == GpmuPhase::Exiting {
            gpmu.complete_exit(soc, ctx.now());
        }
        ctx.emit_now(ctx.id(), ServerEvent::Dispatch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_sim::SimTime;
    use apc_soc::cstate::CoreCState;

    /// A socket with every core in `state` and every link idle.
    fn idle_soc(state: CoreCState) -> SkxSoc {
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(state);
        for io in soc.ios_mut().iter_mut() {
            io.end_traffic(SimTime::ZERO);
        }
        soc
    }

    /// Without a package C-state the package reads PC0 or PC0idle, never
    /// blocks the uncore, and never asks for an all-idle check, however
    /// deep its cores sleep.
    #[test]
    fn without_package_cstates_the_package_stays_in_pc0() {
        let controller = PackageController::new(PackagePolicy::None);
        assert_eq!(controller.package_state(true), PackageCState::PC0);
        assert_eq!(controller.package_state(false), PackageCState::PC0Idle);
        assert!(controller.uncore_available());
        assert!(!controller.wakeable());
        assert!(!controller.acc1_armed());
        for state in [CoreCState::CC1, CoreCState::CC6] {
            assert!(!controller.wants_all_idle_check(&idle_soc(state)));
        }
        assert_eq!(controller.apmu_stats(), ApmuStats::default());
        assert_eq!(controller.pc6_entries(), 0);
    }

    /// A `CPC1A` controller's answers follow its APMU through ACC1, the
    /// entry flow and PC1A residency, and it counts no PC6 entry.
    #[test]
    fn pc1a_queries_follow_the_apmu() {
        let mut soc = idle_soc(CoreCState::CC1);
        let mut controller = PackageController::new(PackagePolicy::Pc1a);
        assert!(controller.uncore_available() && !controller.wakeable());
        assert!(!controller.wants_all_idle_check(&SkxSoc::xeon_silver_4114()));
        assert!(controller.wants_all_idle_check(&soc));

        let PackageController::Pc1a(apmu) = &mut controller else {
            panic!("CPC1A builds an APMU");
        };
        let deadline = apmu.on_all_cores_idle(&mut soc).expect("ACC1 entry");
        assert!(controller.acc1_armed() && controller.wakeable());
        assert!(controller.uncore_available(), "ACC1 keeps the uncore");

        let PackageController::Pc1a(apmu) = &mut controller else {
            unreachable!()
        };
        apmu.on_standby_deadline(&mut soc, deadline)
            .expect("PC1A entry");
        assert!(!controller.acc1_armed() && controller.wakeable());
        assert!(!controller.uncore_available(), "entry gates the uncore");

        controller.on_apmu_entry_done();
        assert_eq!(controller.package_state(false), PackageCState::PC1A);
        assert_eq!(controller.apmu_stats().pc1a_entries, 1);
        assert_eq!(controller.pc6_entries(), 0);
    }

    /// A `Cdeep` controller asks for the all-idle check whenever a core
    /// settles, its answers follow its GPMU into PC6, and it records no
    /// PC1A statistics.
    #[test]
    fn pc6_queries_follow_the_gpmu() {
        let mut soc = idle_soc(CoreCState::CC6);
        let mut controller = PackageController::new(PackagePolicy::Pc6);
        assert!(controller.wants_all_idle_check(&SkxSoc::xeon_silver_4114()));
        assert!(controller.uncore_available() && !controller.wakeable());
        assert_eq!(controller.package_state(false), PackageCState::PC0Idle);

        let (gpmu, pending_wake) = controller.gpmu();
        assert!(!*pending_wake);
        let entry = gpmu.begin_entry(&mut soc, SimTime::ZERO);
        assert!(controller.wakeable() && !controller.uncore_available());
        assert!(!controller.acc1_armed());

        let (gpmu, _) = controller.gpmu();
        gpmu.complete_entry(&mut soc, SimTime::ZERO + entry);
        assert_eq!(controller.package_state(false), PackageCState::PC6);
        assert!(controller.wakeable() && !controller.uncore_available());
        assert_eq!(controller.pc6_entries(), 1);
        assert_eq!(controller.apmu_stats(), ApmuStats::default());
    }
}
