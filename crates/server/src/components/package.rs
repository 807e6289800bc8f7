//! Package controller component: the firmware GPMU (PC6) and, under
//! `CPC1A`, the APC APMU (PC1A flows).
//!
//! The controller records no residency itself. After each of its events it
//! mirrors the package state its FSMs imply into
//! [`PackageMirror`](super::state::PackageMirror), and the node's
//! accounting wrapper records the residency from that mirror after every
//! node event (see [`ServerState::settle`]).

use apc_core::apmu::{Apmu, ApmuState, WakeCause, WakeOutcome};
use apc_pmu::config::PackagePolicy;
use apc_pmu::gpmu::{Gpmu, GpmuPhase};
use apc_sim::component::{EventHandler, SimulationContext};
use apc_soc::cstate::PackageCState;

use super::state::{ClusterState, ServerState};
use super::ServerEvent;

/// Drives the package C-state machinery for the configured policy:
///
/// * `PackagePolicy::Pc1a` — the APMU FSM: ACC1 on all-cores-idle, IO
///   standby deadline, nanosecond-scale PC1A entry/abort/exit;
/// * `PackagePolicy::Pc6` — the firmware GPMU's millisecond-scale PC6
///   entry/exit flows;
/// * `PackagePolicy::None` — no package states (the `Cshallow` baseline).
///
/// The controller owns both FSMs and mirrors uncore availability into
/// [`ServerState::uncore`], and the package state the FSMs imply into
/// [`ServerState::pkg`], after every event it handles. So the scheduler can
/// gate dispatch, and [`ServerState::settle`] can track package residency
/// after every node event, without reaching into controller internals.
pub struct PackageController {
    node: usize,
    policy: PackagePolicy,
    apmu: Apmu,
    gpmu: Gpmu,
    /// A wake arrived while the GPMU entry flow was still running; exit as
    /// soon as the entry completes.
    gpmu_pending_wake: bool,
}

impl PackageController {
    /// Creates the controller for node `node` under the platform policy in
    /// its config.
    #[must_use]
    pub fn new(node: usize, policy: PackagePolicy, package_limit: PackageCState) -> Self {
        let apmu = if policy == PackagePolicy::Pc1a {
            Apmu::new()
        } else {
            Apmu::disabled()
        };
        PackageController {
            node,
            policy,
            apmu,
            gpmu: Gpmu::new(package_limit),
            gpmu_pending_wake: false,
        }
    }

    /// The APMU (for stats extraction and tests).
    #[must_use]
    pub fn apmu(&self) -> &Apmu {
        &self.apmu
    }

    /// The GPMU (for stats extraction and tests).
    #[must_use]
    pub fn gpmu(&self) -> &Gpmu {
        &self.gpmu
    }

    /// `true` when the shared uncore (LLC, memory path) is available for
    /// request execution.
    #[must_use]
    pub fn uncore_available(&self) -> bool {
        match self.policy {
            PackagePolicy::Pc1a => matches!(self.apmu.state(), ApmuState::Pc0 | ApmuState::Acc1),
            PackagePolicy::Pc6 => self.gpmu.phase() == GpmuPhase::Active,
            PackagePolicy::None => true,
        }
    }

    /// Mirrors uncore availability, the package-event gating facts and the
    /// package state the FSMs imply into the shared state (see
    /// [`super::state::PackageMirror`]).
    fn sync_uncore(&self, shared: &mut ServerState) {
        shared.uncore.available = self.uncore_available();
        (shared.pkg.active_state, shared.pkg.idle_state) = match self.policy {
            PackagePolicy::Pc1a => (
                self.apmu.package_state(true),
                self.apmu.package_state(false),
            ),
            PackagePolicy::Pc6 => (
                self.gpmu.package_state(false),
                self.gpmu.package_state(true),
            ),
            PackagePolicy::None => (PackageCState::PC0, PackageCState::PC0Idle),
        };
        shared.pkg.acc1_armed = self.apmu.state() == ApmuState::Acc1;
        shared.pkg.wakeable = match self.policy {
            PackagePolicy::Pc1a => matches!(
                self.apmu.state(),
                ApmuState::Acc1 | ApmuState::Entering { .. } | ApmuState::InPc1a { .. }
            ),
            PackagePolicy::Pc6 => {
                matches!(self.gpmu.phase(), GpmuPhase::Entering | GpmuPhase::InPc6)
            }
            PackagePolicy::None => false,
        };
    }

    fn on_package_wake(
        &mut self,
        cause: WakeCause,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        match self.policy {
            PackagePolicy::Pc1a => match self.apmu.state() {
                ApmuState::InPc1a { .. } | ApmuState::Entering { .. } => {
                    if let WakeOutcome::Exiting { done_at, .. } =
                        self.apmu.wakeup(&mut shared.soc, now, cause)
                    {
                        ctx.emit_self_at(done_at, ServerEvent::ApmuExitDone);
                    }
                }
                ApmuState::Acc1 => {
                    let _ = self.apmu.wakeup(&mut shared.soc, now, cause);
                }
                ApmuState::Pc0 | ApmuState::Exiting { .. } => {}
            },
            PackagePolicy::Pc6 => match self.gpmu.phase() {
                GpmuPhase::InPc6 => {
                    let exit = self.gpmu.begin_exit(&mut shared.soc, now);
                    ctx.emit_self(exit, ServerEvent::GpmuExitDone);
                }
                GpmuPhase::Entering => {
                    // Ready time unknown until the entry completes; the exit
                    // is started from on_gpmu_entry_done.
                    self.gpmu_pending_wake = true;
                }
                GpmuPhase::Active | GpmuPhase::Exiting => {}
            },
            PackagePolicy::None => {}
        }
    }

    fn on_core_active(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        // The ACC1 → PC0 edge: the first core to run again clears AllowL0s.
        // Any other state means the edge was already taken (or never armed).
        if self.apmu.state() == ApmuState::Acc1 {
            self.apmu.on_core_active(&mut shared.soc, ctx.now());
        }
    }

    fn on_all_idle_check(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        match self.policy {
            PackagePolicy::Pc1a => {
                if shared.soc.cores().all_in_cc1_or_deeper() {
                    if let Some(deadline) = self.apmu.on_all_cores_idle(&mut shared.soc, now) {
                        ctx.emit_self_at(deadline, ServerEvent::StandbyDeadline);
                    }
                }
            }
            PackagePolicy::Pc6 => {
                if self.gpmu.can_enter_pc6(&shared.soc) {
                    let entry = self.gpmu.begin_entry(&mut shared.soc, now);
                    ctx.emit_self(entry, ServerEvent::GpmuEntryDone);
                }
            }
            PackagePolicy::None => {}
        }
    }

    fn on_standby_deadline(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        if let Some(done_at) = self.apmu.on_standby_deadline(&mut shared.soc, now) {
            ctx.emit_self_at(done_at, ServerEvent::ApmuEntryDone);
        }
    }

    fn on_apmu_entry_done(&mut self, ctx: &mut SimulationContext<'_, ServerEvent>) {
        // A wakeup may have aborted the entry in the meantime; only a flow
        // still in flight completes.
        if matches!(self.apmu.state(), ApmuState::Entering { .. }) {
            self.apmu.on_entry_complete(ctx.now());
        }
    }

    fn on_apmu_exit_done(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if matches!(self.apmu.state(), ApmuState::Exiting { .. }) {
            self.apmu.on_exit_complete(&mut shared.soc, ctx.now());
        }
        ctx.emit_now(shared.addrs.scheduler, ServerEvent::Dispatch);
    }

    fn on_gpmu_entry_done(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let now = ctx.now();
        if self.gpmu.phase() == GpmuPhase::Entering {
            self.gpmu.complete_entry(&mut shared.soc, now);
        }
        if self.gpmu_pending_wake {
            self.gpmu_pending_wake = false;
            let exit = self.gpmu.begin_exit(&mut shared.soc, now);
            ctx.emit_self(exit, ServerEvent::GpmuExitDone);
        }
    }

    fn on_gpmu_exit_done(
        &mut self,
        shared: &mut ServerState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        if self.gpmu.phase() == GpmuPhase::Exiting {
            self.gpmu.complete_exit(&mut shared.soc, ctx.now());
        }
        ctx.emit_now(shared.addrs.scheduler, ServerEvent::Dispatch);
    }
}

impl EventHandler<ServerEvent, ClusterState> for PackageController {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut ClusterState,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let shared = &mut shared.nodes[self.node];
        match event {
            ServerEvent::PackageWake { cause } => self.on_package_wake(cause, shared, ctx),
            ServerEvent::CoreActive => self.on_core_active(shared, ctx),
            ServerEvent::AllIdleCheck => self.on_all_idle_check(shared, ctx),
            ServerEvent::StandbyDeadline => self.on_standby_deadline(shared, ctx),
            ServerEvent::ApmuEntryDone => self.on_apmu_entry_done(ctx),
            ServerEvent::ApmuExitDone => self.on_apmu_exit_done(shared, ctx),
            ServerEvent::GpmuEntryDone => self.on_gpmu_entry_done(shared, ctx),
            ServerEvent::GpmuExitDone => self.on_gpmu_exit_done(shared, ctx),
            other => unreachable!("package controller received unexpected event {other:?}"),
        }
        self.sync_uncore(shared);
    }
}
