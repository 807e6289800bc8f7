//! CPU core model and its power-management agent (PMA).
//!
//! Each core tile of the modelled SKX SoC contains a core, its private
//! caches, and a per-core power-management agent. The PMA knows the core's
//! current C-state and exposes it as the `InCC1` status signal the APMU
//! aggregates (paper Sec. 5.3).

use std::fmt;

use apc_sim::{SimDuration, SimTime};

use crate::cstate::CoreCState;

/// Identifier of a CPU core within the SoC (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// What a core is doing right now, from the scheduler's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreActivity {
    /// Executing a request (or OS work).
    Busy,
    /// Idle in some C-state, immediately schedulable after the C-state exit
    /// latency.
    Idle,
    /// In transition between C-states (entry or exit in progress); cannot
    /// execute until the transition completes.
    Transitioning,
}

/// A CPU core together with its power-management agent.
///
/// The core is a passive state machine: the surrounding simulation decides
/// *when* to request transitions, the core records the state and answers
/// questions about latency and status signals. Cores live in a [`CoreSet`],
/// the only way to mutate them.
///
/// # Examples
///
/// ```
/// use apc_soc::core::{CoreId, CoreSet};
/// use apc_soc::cstate::CoreCState;
/// use apc_sim::SimTime;
///
/// let mut cores = CoreSet::new(1);
/// let id = CoreId(0);
/// assert!(cores.core(id).cstate().is_active());
///
/// // The OS idles the core into CC1.
/// let t = SimTime::from_micros(10);
/// let entry = cores.begin_idle(id, t, CoreCState::CC1);
/// cores.complete_transition(id, t + entry);
/// assert!(cores.core(id).in_cc1_or_deeper());
/// ```
#[derive(Debug, Clone)]
pub struct Core {
    id: CoreId,
    cstate: CoreCState,
    activity: CoreActivity,
    /// Target of an in-flight transition, if any.
    pending: Option<CoreCState>,
    /// When the current state/activity was established.
    since: SimTime,
    /// Cumulative number of C-state transitions (entries into idle states).
    idle_entries: u64,
    /// Cumulative number of wakeups (returns to CC0).
    wakeups: u64,
}

impl Core {
    /// Creates a core in the active state (CC0, busy) at time zero.
    fn new(id: CoreId) -> Self {
        Core {
            id,
            cstate: CoreCState::CC0,
            activity: CoreActivity::Busy,
            pending: None,
            since: SimTime::ZERO,
            idle_entries: 0,
            wakeups: 0,
        }
    }

    /// The core's identifier.
    #[must_use]
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Current (established) core C-state.
    #[must_use]
    pub fn cstate(&self) -> CoreCState {
        self.cstate
    }

    /// Current activity classification.
    #[must_use]
    pub fn activity(&self) -> CoreActivity {
        self.activity
    }

    /// Timestamp at which the current state was established.
    #[must_use]
    pub fn since(&self) -> SimTime {
        self.since
    }

    /// Number of idle-state entries so far.
    #[must_use]
    pub fn idle_entries(&self) -> u64 {
        self.idle_entries
    }

    /// Number of wakeups (CC0 resumptions) so far.
    #[must_use]
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }

    /// The `InCC1` status signal exposed by the core's PMA: `true` when the
    /// core currently resides in CC1 or any deeper C-state (paper Sec. 5.3).
    ///
    /// A core that is *transitioning* does not assert the signal, matching
    /// hardware where the status flops update only once the state is
    /// established.
    #[must_use]
    pub fn in_cc1_or_deeper(&self) -> bool {
        self.pending.is_none()
            && self.activity != CoreActivity::Busy
            && self.cstate.at_least_as_deep_as(CoreCState::CC1)
    }

    /// See [`CoreSet::begin_idle`].
    fn begin_idle(&mut self, now: SimTime, target: CoreCState) -> SimDuration {
        assert!(target.is_idle(), "begin_idle requires an idle target state");
        assert_eq!(
            self.activity,
            CoreActivity::Busy,
            "{}: cannot enter {target} while {:?}",
            self.id,
            self.activity
        );
        self.pending = Some(target);
        self.activity = CoreActivity::Transitioning;
        self.since = now;
        self.idle_entries += 1;
        target.entry_latency()
    }

    /// See [`CoreSet::begin_wakeup`].
    fn begin_wakeup(&mut self, now: SimTime) -> SimDuration {
        assert_ne!(
            self.activity,
            CoreActivity::Busy,
            "{}: busy cores cannot be woken",
            self.id
        );
        let leaving = self.pending.take().unwrap_or(self.cstate);
        self.pending = Some(CoreCState::CC0);
        self.activity = CoreActivity::Transitioning;
        self.since = now;
        self.wakeups += 1;
        leaving.exit_latency()
    }

    /// See [`CoreSet::complete_transition`].
    fn complete_transition(&mut self, now: SimTime) {
        let target = self
            .pending
            .take()
            .unwrap_or_else(|| panic!("{}: no transition in flight", self.id));
        self.cstate = target;
        self.activity = if target.is_active() {
            CoreActivity::Busy
        } else {
            CoreActivity::Idle
        };
        self.since = now;
    }

    /// See [`CoreSet::force_state`].
    fn force_state(&mut self, now: SimTime, state: CoreCState) {
        self.pending = None;
        self.cstate = state;
        self.activity = if state.is_active() {
            CoreActivity::Busy
        } else {
            CoreActivity::Idle
        };
        self.since = now;
    }
}

/// The set of cores of a socket, with helpers for the all-core status signals
/// the package controllers consume.
///
/// The set is the only way to mutate its cores, so it maintains three facts
/// the per-event hot paths read in O(1): the number of busy cores (what
/// [`CoreSet::active_count`] and [`CoreSet::any_active`] report), the
/// number of cores established in each C-state (see
/// [`CoreSet::cstate_census`]) and the number of cores asserting `InCC1`
/// (see [`CoreSet::all_in_cc1_or_deeper`]).
#[derive(Debug, Clone)]
pub struct CoreSet {
    cores: Vec<Core>,
    /// Cores whose activity is [`CoreActivity::Busy`].
    busy: usize,
    /// Cores per established C-state, indexed like [`CoreCState::ALL`].
    census: [usize; 4],
    /// Cores for which [`Core::in_cc1_or_deeper`] holds.
    in_cc1: usize,
}

impl CoreSet {
    /// Creates `n` cores, all active.
    #[must_use]
    pub fn new(n: usize) -> Self {
        CoreSet {
            cores: (0..n).map(|i| Core::new(CoreId(i))).collect(),
            busy: n,
            census: [n, 0, 0, 0],
            in_cc1: 0,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// `true` when the socket has no cores (never the case in practice, but
    /// required for a well-behaved collection API).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Immutable access to a core.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn core(&self, id: CoreId) -> &Core {
        &self.cores[id.0]
    }

    /// Iterator over all cores.
    pub fn iter(&self) -> impl Iterator<Item = &Core> {
        self.cores.iter()
    }

    /// Applies `change` to core `id`, keeping the busy count, the C-state
    /// census and the `InCC1` count in step with it.
    fn update<R>(&mut self, id: CoreId, change: impl FnOnce(&mut Core) -> R) -> R {
        let core = &mut self.cores[id.0];
        let was_busy = core.activity == CoreActivity::Busy;
        let (was, was_in_cc1) = (core.cstate, core.in_cc1_or_deeper());
        let out = change(core);
        let is_busy = core.activity == CoreActivity::Busy;
        if core.cstate != was {
            self.census[was as usize] -= 1;
            self.census[core.cstate as usize] += 1;
        }
        if is_busy != was_busy {
            if is_busy {
                self.busy += 1;
            } else {
                self.busy -= 1;
            }
        }
        let is_in_cc1 = core.in_cc1_or_deeper();
        if is_in_cc1 != was_in_cc1 {
            if is_in_cc1 {
                self.in_cc1 += 1;
            } else {
                self.in_cc1 -= 1;
            }
        }
        out
    }

    /// Starts an idle transition of core `id` into `target` at time `now`.
    ///
    /// Returns the entry latency the caller should wait before calling
    /// [`CoreSet::complete_transition`].
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range, if `target` is `CC0` (use
    /// [`CoreSet::begin_wakeup`]) or if the core is already idle or
    /// transitioning.
    pub fn begin_idle(&mut self, id: CoreId, now: SimTime, target: CoreCState) -> SimDuration {
        self.update(id, |c| c.begin_idle(now, target))
    }

    /// Starts a wakeup of core `id` (a transition back to CC0) at time `now`.
    ///
    /// Returns the exit latency of the state the core is leaving. Waking a
    /// core that is still completing its idle entry is allowed (hardware
    /// aborts the entry); the exit latency is then the target state's exit
    /// latency, which is the conservative choice.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the core is already busy.
    pub fn begin_wakeup(&mut self, id: CoreId, now: SimTime) -> SimDuration {
        self.update(id, |c| c.begin_wakeup(now))
    }

    /// Completes core `id`'s in-flight transition at time `now`,
    /// establishing the pending state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or no transition is pending.
    pub fn complete_transition(&mut self, id: CoreId, now: SimTime) {
        self.update(id, |c| c.complete_transition(now));
    }

    /// Forces core `id` into an established state without modelling the
    /// transition latency. Used for initial conditions and by analytical
    /// (non-event-driven) experiments.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn force_state(&mut self, id: CoreId, now: SimTime, state: CoreCState) {
        self.update(id, |c| c.force_state(now, state));
    }

    /// The number of cores established in each C-state, indexed like
    /// [`CoreCState::ALL`] (a core keeps its established state while it
    /// transitions). O(1): the set maintains the census. The cores' power is
    /// a pure function of it.
    #[inline]
    #[must_use]
    pub fn cstate_census(&self) -> &[usize; 4] {
        debug_assert_eq!(
            self.census,
            CoreCState::ALL.map(|s| self.cores.iter().filter(|c| c.cstate == s).count()),
            "maintained C-state census out of sync"
        );
        &self.census
    }

    /// The aggregated `InCC1` signal: `true` when **all** cores assert their
    /// per-core `InCC1` (i.e. every core is established in CC1 or deeper).
    /// This is the AND-tree the APMU consumes (paper Fig. 3). O(1): the set
    /// maintains the number of asserting cores.
    #[must_use]
    pub fn all_in_cc1_or_deeper(&self) -> bool {
        debug_assert_eq!(
            self.in_cc1,
            self.cores.iter().filter(|c| c.in_cc1_or_deeper()).count(),
            "maintained InCC1 count out of sync"
        );
        !self.cores.is_empty() && self.in_cc1 == self.cores.len()
    }

    /// `true` when every core is established in a state at least as deep as
    /// `target` (the GPMU's condition for PC6 requires CC6 everywhere).
    #[must_use]
    pub fn all_at_least(&self, target: CoreCState) -> bool {
        !self.cores.is_empty()
            && self.cores.iter().all(|c| {
                c.activity() != CoreActivity::Busy
                    && c.activity() != CoreActivity::Transitioning
                    && c.cstate().at_least_as_deep_as(target)
            })
    }

    /// Number of cores currently active (CC0 established or transitioning to
    /// it). O(1): the set maintains the count.
    #[must_use]
    pub fn active_count(&self) -> usize {
        debug_assert_eq!(
            self.busy,
            self.cores
                .iter()
                .filter(|c| c.activity() == CoreActivity::Busy)
                .count(),
            "maintained busy-core count out of sync"
        );
        self.busy
    }

    /// `true` when at least one core is active: a nonzero
    /// [`CoreSet::active_count`].
    #[must_use]
    pub fn any_active(&self) -> bool {
        self.active_count() > 0
    }

    /// Number of cores established in exactly the given C-state.
    #[must_use]
    pub fn count_in(&self, state: CoreCState) -> usize {
        self.cores
            .iter()
            .filter(|c| c.activity() == CoreActivity::Idle && c.cstate() == state)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_core_is_active() {
        let c = Core::new(CoreId(3));
        assert_eq!(c.id(), CoreId(3));
        assert_eq!(c.cstate(), CoreCState::CC0);
        assert_eq!(c.activity(), CoreActivity::Busy);
        assert!(!c.in_cc1_or_deeper());
        assert_eq!(c.id().to_string(), "core3");
    }

    #[test]
    fn idle_entry_and_wakeup_cycle() {
        let mut c = Core::new(CoreId(0));
        let t0 = SimTime::from_micros(10);
        let entry = c.begin_idle(t0, CoreCState::CC1);
        assert_eq!(entry, CoreCState::CC1.entry_latency());
        assert_eq!(c.activity(), CoreActivity::Transitioning);
        assert!(!c.in_cc1_or_deeper(), "signal not asserted mid-transition");

        let t1 = t0 + entry;
        c.complete_transition(t1);
        assert!(c.in_cc1_or_deeper());
        assert_eq!(c.activity(), CoreActivity::Idle);
        assert_eq!(c.idle_entries(), 1);

        let exit = c.begin_wakeup(t1 + SimDuration::from_micros(50));
        assert_eq!(exit, CoreCState::CC1.exit_latency());
        c.complete_transition(t1 + SimDuration::from_micros(51));
        assert_eq!(c.cstate(), CoreCState::CC0);
        assert_eq!(c.wakeups(), 1);
    }

    #[test]
    fn wakeup_during_entry_uses_target_exit_latency() {
        let mut c = Core::new(CoreId(0));
        c.begin_idle(SimTime::ZERO, CoreCState::CC6);
        // Interrupt arrives before the entry completed.
        let exit = c.begin_wakeup(SimTime::from_micros(1));
        assert_eq!(exit, CoreCState::CC6.exit_latency());
        c.complete_transition(SimTime::from_micros(150));
        assert!(c.cstate().is_active());
    }

    #[test]
    #[should_panic(expected = "cannot enter")]
    fn cannot_idle_twice() {
        let mut c = Core::new(CoreId(0));
        c.begin_idle(SimTime::ZERO, CoreCState::CC1);
        c.complete_transition(SimTime::from_nanos(500));
        // Already idle: a second begin_idle is a protocol violation.
        let _ = c.begin_idle(SimTime::from_micros(1), CoreCState::CC6);
    }

    #[test]
    #[should_panic(expected = "busy cores cannot be woken")]
    fn cannot_wake_busy_core() {
        let mut c = Core::new(CoreId(0));
        let _ = c.begin_wakeup(SimTime::ZERO);
    }

    #[test]
    fn force_state_bypasses_latency() {
        let mut c = Core::new(CoreId(0));
        c.force_state(SimTime::ZERO, CoreCState::CC6);
        assert_eq!(c.cstate(), CoreCState::CC6);
        assert!(c.in_cc1_or_deeper());
        c.force_state(SimTime::ZERO, CoreCState::CC0);
        assert!(c.cstate().is_active());
    }

    #[test]
    fn coreset_aggregated_signals() {
        let mut set = CoreSet::new(4);
        assert_eq!(set.len(), 4);
        assert!(!set.all_in_cc1_or_deeper());
        assert_eq!(set.active_count(), 4);

        for i in 0..4 {
            set.force_state(CoreId(i), SimTime::ZERO, CoreCState::CC1);
        }
        assert!(set.all_in_cc1_or_deeper());
        assert!(set.all_at_least(CoreCState::CC1));
        assert!(!set.all_at_least(CoreCState::CC6));
        assert_eq!(set.count_in(CoreCState::CC1), 4);
        assert_eq!(set.active_count(), 0);

        set.force_state(CoreId(2), SimTime::ZERO, CoreCState::CC0);
        assert!(!set.all_in_cc1_or_deeper());
        assert_eq!(set.active_count(), 1);
    }

    /// Drives `cores` cores through `steps` SimRng-drawn legal mutations and
    /// checks the maintained facts against a scan after every step.
    fn check_maintained_counts(cores: usize, steps: usize, seed: u64) {
        use apc_sim::rng::SimRng;
        const STATES: [CoreCState; 4] = [
            CoreCState::CC0,
            CoreCState::CC1,
            CoreCState::CC1E,
            CoreCState::CC6,
        ];
        const IDLE: [CoreCState; 3] = [CoreCState::CC1, CoreCState::CC1E, CoreCState::CC6];
        let mut rng = SimRng::from_seed(seed);
        let mut set = CoreSet::new(cores);
        let mut now = SimTime::ZERO;
        for step in 0..steps {
            now += SimDuration::from_nanos(rng.index(2_000) as u64);
            let id = CoreId(rng.index(cores));
            if rng.chance(0.05) {
                set.force_state(id, now, STATES[rng.index(4)]);
            } else {
                match set.core(id).activity() {
                    CoreActivity::Busy => {
                        set.begin_idle(id, now, IDLE[rng.index(3)]);
                    }
                    CoreActivity::Idle => {
                        set.begin_wakeup(id, now);
                    }
                    // A transition either completes or (an interrupt during
                    // idle entry) turns into a wakeup.
                    CoreActivity::Transitioning if rng.chance(0.3) => {
                        set.begin_wakeup(id, now);
                    }
                    CoreActivity::Transitioning => set.complete_transition(id, now),
                }
            }
            let busy = set
                .iter()
                .filter(|c| c.activity() == CoreActivity::Busy)
                .count();
            assert_eq!(set.active_count(), busy, "step {step}: busy count");
            assert_eq!(set.any_active(), busy > 0, "step {step}: any_active");
            let census = STATES.map(|s| set.iter().filter(|c| c.cstate() == s).count());
            assert_eq!(set.cstate_census(), &census, "step {step}: C-state census");
            assert_eq!(
                set.all_in_cc1_or_deeper(),
                set.iter().all(Core::in_cc1_or_deeper),
                "step {step}: aggregated InCC1"
            );
        }
    }

    #[test]
    fn maintained_counts_match_a_scan_on_10_cores() {
        for seed in 0..20 {
            check_maintained_counts(10, 2_000, seed);
        }
    }

    #[test]
    fn maintained_counts_match_a_scan_on_3_cores() {
        // Few cores: every core asserting `InCC1` at once is common.
        for seed in 200..220 {
            check_maintained_counts(3, 2_000, seed);
        }
    }

    #[test]
    fn maintained_counts_match_a_scan_on_48_cores() {
        for seed in 100..110 {
            check_maintained_counts(48, 5_000, seed);
        }
    }

    #[test]
    fn empty_coreset_never_asserts_all_idle() {
        let set = CoreSet::new(0);
        assert!(set.is_empty());
        assert!(!set.all_in_cc1_or_deeper());
        assert!(!set.all_at_least(CoreCState::CC1));
    }
}
