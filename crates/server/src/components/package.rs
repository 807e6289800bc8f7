//! Package controller component: the firmware GPMU (PC6) and, under
//! `CPC1A`, the APC APMU (PC1A flows).

use apc_core::apmu::{Apmu, ApmuState, WakeCause, WakeOutcome};
use apc_pmu::config::PackagePolicy;
use apc_pmu::gpmu::{Gpmu, GpmuPhase};
use apc_sim::component::{EventHandler, SimulationContext};
use apc_sim::SimTime;
use apc_soc::cstate::PackageCState;

use super::state::{HasNode, ServerState};
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
/// [`ServerState::uncore`] after every transition so the scheduler can gate
/// dispatch without reaching into controller internals. Its post-dispatch
/// hook tracks package C-state residency after every event addressed to the
/// node's components, the only events that can move the package state.
pub struct PackageController {
    node: usize,
    policy: PackagePolicy,
    apmu: Apmu,
    gpmu: Gpmu,
    /// A wake arrived while the GPMU entry flow was still running; exit as
    /// soon as the entry completes.
    gpmu_pending_wake: bool,
    /// [`ServerState::any_core_active`] as of the last post-dispatch
    /// residency update. The package state is a pure function of that bit
    /// and this controller's own FSMs; while the bit is unchanged *and* no
    /// event has run through this controller (which clears the cache), the
    /// state cannot have moved and the residency update — a same-state
    /// no-op — can be skipped outright.
    residency_cache: Option<bool>,
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
            residency_cache: None,
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

    /// Mirrors uncore availability and the package-event gating facts into
    /// the shared state (see
    /// [`super::state::PackageMirror`]).
    fn sync_uncore(&self, shared: &mut ServerState) {
        shared.uncore.available = self.uncore_available();
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

impl<S: HasNode> EventHandler<ServerEvent, S> for PackageController {
    fn on_event(
        &mut self,
        event: ServerEvent,
        shared: &mut S,
        ctx: &mut SimulationContext<'_, ServerEvent>,
    ) {
        let shared = shared.node_mut(self.node);
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
        // The handler may have moved the FSMs; the cached residency state is
        // no longer trustworthy (the activity bit alone cannot see FSM
        // moves).
        self.residency_cache = None;
    }

    fn observes_dispatch(&self) -> bool {
        true
    }

    fn observes_pre_dispatch(&self) -> bool {
        false
    }

    fn on_post_dispatch(&mut self, now: SimTime, shared: &mut S) {
        // Track the package C-state after every event addressed to one of
        // this node's components, whatever component handled it: state may
        // change through core activity alone. (The observer is scoped to the
        // node; other components' events at most deposit into the NIC
        // buffer, which none of the package-state inputs read.)
        let shared = shared.node_mut(self.node);
        // Same activity bit + no intervening event through this controller
        // (which clears the cache) ⇒ the derivation below would yield the
        // same state again and `transition` would early-return: skip both.
        let any_active = shared.any_core_active();
        if self.residency_cache == Some(any_active) {
            return;
        }
        let state = match self.policy {
            PackagePolicy::Pc1a => self.apmu.package_state(any_active),
            PackagePolicy::Pc6 => self.gpmu.package_state(!any_active),
            PackagePolicy::None => {
                if any_active {
                    PackageCState::PC0
                } else {
                    PackageCState::PC0Idle
                }
            }
        };
        shared.telemetry.package_residency.transition(now, state);
        self.residency_cache = Some(any_active);
    }
}
