//! C-state residency accounting.
//!
//! Reproduces what the paper obtains from the hardware residency-reporting
//! counters (Sec. 6): the fraction of time each core spends in each core
//! C-state and the fraction of time the package spends in each package
//! C-state. Figures 6(a), 6(b), 8(a) and 9(a) are direct reductions of these
//! counters.

use apc_sim::{SimDuration, SimTime};
use apc_soc::core::CoreId;
use apc_soc::cstate::{CoreCState, PackageCState};

/// A state of a machine [`StateResidency`] can track: each state owns one
/// fixed slot of the tracker's duration array.
pub trait ResidencyState: Copy + Eq {
    /// The state's slot: its position in the type's `ALL` list, below five.
    fn slot(self) -> usize;
}

/// The most states a tracked machine has: the five package C-states.
const MAX_STATES: usize = 5;

impl ResidencyState for CoreCState {
    /// The position in [`CoreCState::ALL`].
    #[inline]
    fn slot(self) -> usize {
        self as usize
    }
}

impl ResidencyState for PackageCState {
    /// The position in [`PackageCState::ALL`].
    #[inline]
    fn slot(self) -> usize {
        self as usize
    }
}

/// Tracks time spent per state for one state machine (a core or the package).
/// Each state's time is one slot of a fixed array, so a transition is O(1).
#[derive(Debug, Clone)]
pub struct StateResidency<S: ResidencyState> {
    current: S,
    since: SimTime,
    accumulated: [SimDuration; MAX_STATES],
}

impl<S: ResidencyState> StateResidency<S> {
    /// Creates a tracker starting in `initial` at time `start`.
    #[must_use]
    pub fn new(initial: S, start: SimTime) -> Self {
        StateResidency {
            current: initial,
            since: start,
            accumulated: [SimDuration::ZERO; MAX_STATES],
        }
    }

    /// The current state.
    #[must_use]
    pub fn current(&self) -> S {
        self.current
    }

    /// Records a transition to `next` at time `now`. Transitions to the same
    /// state are ignored.
    pub fn transition(&mut self, now: SimTime, next: S) {
        if next == self.current {
            return;
        }
        self.accumulated[self.current.slot()] += now.saturating_since(self.since);
        self.current = next;
        self.since = now;
    }

    /// Closes the accounting window at `now` without changing state (call at
    /// the end of a run before reading residencies).
    pub fn finish(&mut self, now: SimTime) {
        self.accumulated[self.current.slot()] += now.saturating_since(self.since);
        self.since = now;
    }

    /// Total time attributed to `state`.
    #[must_use]
    fn time_in(&self, state: S) -> SimDuration {
        self.accumulated[state.slot()]
    }

    /// Total time attributed to `state` *as of* `now`, including the still
    /// open dwell in the current state. Unlike [`StateResidency::finish`]
    /// this is a pure read: mid-run samplers use it to take residency
    /// snapshots without perturbing the accounting.
    #[must_use]
    pub fn time_in_at(&self, state: S, now: SimTime) -> SimDuration {
        let mut t = self.time_in(state);
        if state == self.current {
            t += now.saturating_since(self.since);
        }
        t
    }

    /// Total accounted time across all states.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.accumulated.iter().copied().sum()
    }

    /// Fraction of accounted time spent in `state` (0 when nothing has been
    /// accounted yet).
    #[must_use]
    pub fn fraction_in(&self, state: S) -> f64 {
        let total = self.total().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.time_in(state).as_nanos() as f64 / total as f64
    }
}

/// Per-core core-C-state residency for a whole socket.
#[derive(Debug, Clone)]
pub struct CoreResidencySet {
    cores: Vec<StateResidency<CoreCState>>,
}

impl CoreResidencySet {
    /// Creates trackers for `n` cores, all starting in CC0.
    #[must_use]
    pub fn new(n: usize, start: SimTime) -> Self {
        CoreResidencySet {
            cores: (0..n)
                .map(|_| StateResidency::new(CoreCState::CC0, start))
                .collect(),
        }
    }

    /// Number of cores tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// `true` when no cores are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Records a core's transition.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    pub fn transition(&mut self, core: CoreId, now: SimTime, next: CoreCState) {
        self.cores[core.0].transition(now, next);
    }

    /// Closes all windows at `now`.
    pub fn finish(&mut self, now: SimTime) {
        for c in &mut self.cores {
            c.finish(now);
        }
    }

    /// Residency tracker of one core.
    ///
    /// # Panics
    ///
    /// Panics if the core id is out of range.
    #[must_use]
    pub fn core(&self, core: CoreId) -> &StateResidency<CoreCState> {
        &self.cores[core.0]
    }

    /// The average (across cores) fraction of time spent in `state`
    /// — what Fig. 6(a) plots.
    #[must_use]
    pub fn average_fraction_in(&self, state: CoreCState) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(|c| c.fraction_in(state)).sum::<f64>() / self.cores.len() as f64
    }
}

/// Package C-state residency (Fig. 6(b)'s PC1A residency is
/// `fraction_in(PackageCState::PC1A)` under the `CPC1A` configuration, or the
/// fraction of time all cores are simultaneously idle under the baselines).
pub type PackageResidency = StateResidency<PackageCState>;

#[cfg(test)]
mod tests {
    use super::*;
    use apc_sim::rng::SimRng;
    use std::collections::BTreeMap;

    /// What a residency tracker must report, kept as a map from state to
    /// accumulated time.
    struct Model<S> {
        current: S,
        since: SimTime,
        accumulated: BTreeMap<S, SimDuration>,
    }

    impl<S: Ord + Copy> Model<S> {
        fn close_dwell(&mut self, now: SimTime) {
            *self.accumulated.entry(self.current).or_default() += now.saturating_since(self.since);
            self.since = now;
        }

        fn time_in(&self, state: S) -> SimDuration {
            self.accumulated.get(&state).copied().unwrap_or_default()
        }

        fn total(&self) -> SimDuration {
            self.accumulated.values().copied().sum()
        }
    }

    /// Drives a tracker and the model through the same drawn transitions
    /// (same-state ones included), zero-length dwells and mid-run
    /// `finish` calls, and compares every read after every step.
    fn check_against_model<S: ResidencyState + Ord + std::fmt::Debug>(
        states: &[S],
        steps: usize,
        seed: u64,
    ) {
        let mut rng = SimRng::from_seed(seed);
        let start = SimTime::from_nanos(rng.index(1_000) as u64);
        let initial = states[rng.index(states.len())];
        let mut tracker = StateResidency::new(initial, start);
        let mut model = Model {
            current: initial,
            since: start,
            accumulated: BTreeMap::new(),
        };
        let mut now = start;
        for step in 0..steps {
            now += SimDuration::from_nanos(rng.index(4) as u64 * rng.index(10_000) as u64);
            if rng.chance(0.1) {
                tracker.finish(now);
                model.close_dwell(now);
            } else {
                let next = states[rng.index(states.len())];
                tracker.transition(now, next);
                if next != model.current {
                    model.close_dwell(now);
                    model.current = next;
                }
            }
            let at = now + SimDuration::from_nanos(rng.index(5_000) as u64);
            let total = model.total();
            assert_eq!(
                tracker.current(),
                model.current,
                "step {step} (seed {seed})"
            );
            assert_eq!(tracker.total(), total, "step {step} (seed {seed})");
            for &state in states {
                let time = model.time_in(state);
                let open = if state == model.current {
                    at.saturating_since(model.since)
                } else {
                    SimDuration::ZERO
                };
                let fraction = if total.is_zero() {
                    0.0
                } else {
                    time.as_nanos() as f64 / total.as_nanos() as f64
                };
                let what = format!("{state:?} at step {step} (seed {seed})");
                assert_eq!(tracker.time_in(state), time, "{what}");
                assert_eq!(tracker.time_in_at(state, at), time + open, "{what}");
                assert_eq!(
                    tracker.fraction_in(state).to_bits(),
                    fraction.to_bits(),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn package_residency_matches_a_map_model() {
        for seed in 0..20 {
            check_against_model(&PackageCState::ALL, 2_000, seed);
        }
    }

    #[test]
    fn core_residency_matches_a_map_model() {
        for seed in 100..120 {
            check_against_model(&CoreCState::ALL, 2_000, seed);
        }
    }

    #[test]
    fn single_tracker_accumulates_dwell_times() {
        let mut r = StateResidency::new(CoreCState::CC0, SimTime::ZERO);
        r.transition(SimTime::from_micros(10), CoreCState::CC1);
        r.transition(SimTime::from_micros(30), CoreCState::CC0);
        r.finish(SimTime::from_micros(40));
        assert_eq!(r.time_in(CoreCState::CC0), SimDuration::from_micros(20));
        assert_eq!(r.time_in(CoreCState::CC1), SimDuration::from_micros(20));
        assert_eq!(r.total(), SimDuration::from_micros(40));
        assert!((r.fraction_in(CoreCState::CC1) - 0.5).abs() < 1e-12);
        assert_eq!(r.current(), CoreCState::CC0);
    }

    #[test]
    fn time_in_at_includes_the_open_dwell() {
        let mut r = StateResidency::new(CoreCState::CC0, SimTime::ZERO);
        r.transition(SimTime::from_micros(10), CoreCState::CC1);
        // 10 us closed in CC0; CC1 open since t = 10 us.
        let now = SimTime::from_micros(25);
        assert_eq!(
            r.time_in_at(CoreCState::CC0, now),
            SimDuration::from_micros(10)
        );
        assert_eq!(
            r.time_in_at(CoreCState::CC1, now),
            SimDuration::from_micros(15)
        );
        // The read is pure: closed accounting unchanged.
        assert_eq!(r.time_in(CoreCState::CC1), SimDuration::ZERO);
    }

    #[test]
    fn same_state_transitions_are_ignored() {
        let mut r = StateResidency::new(CoreCState::CC1, SimTime::ZERO);
        r.transition(SimTime::from_micros(5), CoreCState::CC1);
        assert_eq!(r.fraction_in(CoreCState::CC1), 0.0, "nothing accounted yet");
    }

    #[test]
    fn core_set_average_fraction() {
        let mut set = CoreResidencySet::new(2, SimTime::ZERO);
        // Core 0 idles the whole window; core 1 stays active.
        set.transition(CoreId(0), SimTime::ZERO, CoreCState::CC1);
        set.finish(SimTime::from_millis(1));
        assert!((set.average_fraction_in(CoreCState::CC1) - 0.5).abs() < 1e-9);
        assert!((set.average_fraction_in(CoreCState::CC0) - 0.5).abs() < 1e-9);
        assert_eq!(set.len(), 2);
        assert!(set.core(CoreId(0)).fraction_in(CoreCState::CC1) > 0.99);
    }

    #[test]
    fn package_residency_tracks_pc1a() {
        let mut p = PackageResidency::new(PackageCState::PC0, SimTime::ZERO);
        p.transition(SimTime::from_micros(100), PackageCState::PC0Idle);
        p.transition(SimTime::from_micros(110), PackageCState::PC1A);
        p.transition(SimTime::from_micros(210), PackageCState::PC0);
        p.finish(SimTime::from_micros(400));
        assert_eq!(
            p.time_in(PackageCState::PC1A),
            SimDuration::from_micros(100)
        );
        assert!((p.fraction_in(PackageCState::PC1A) - 0.25).abs() < 1e-9);
    }
}
