//! OS idle governor: selects a core C-state when a core goes idle.
//!
//! Modelled on the behaviour of the Linux `menu`/`teo` governors running on
//! top of the `intel_idle` driver: pick the deepest *enabled* C-state whose
//! target residency does not exceed the predicted idle duration. The
//! prediction here is supplied by the caller (the full-system simulation
//! knows the time until the next scheduled arrival; real governors estimate
//! it from history — the paper's evaluation only depends on which state is
//! chosen, not on the estimator internals).

use apc_sim::SimDuration;
use apc_soc::cstate::CoreCState;

use crate::config::PlatformConfig;

/// The idle governor.
#[derive(Debug, Clone)]
pub struct IdleGovernor {
    enabled: Vec<CoreCState>,
}

impl IdleGovernor {
    /// Creates a governor allowed to use the platform configuration's
    /// enabled core C-states.
    #[must_use]
    pub fn new(config: &PlatformConfig) -> Self {
        let mut enabled = config.enabled_core_cstates.clone();
        enabled.sort();
        enabled.dedup();
        IdleGovernor { enabled }
    }

    /// Selects the C-state for a core that just became idle, given the
    /// expected idle duration. Falls back to CC1 when nothing deeper
    /// qualifies (a halted core always at least clock-gates).
    #[must_use]
    pub fn select(&self, predicted_idle: SimDuration) -> CoreCState {
        let mut choice = CoreCState::CC1;
        for &state in &self.enabled {
            if state.is_idle() && state.target_residency() <= predicted_idle {
                choice = choice.max(state);
            }
        }
        choice
    }

    /// Selects the C-state when the idle duration is unknown (no pending
    /// timer): real governors use the deepest enabled state in that case,
    /// which is what makes `Cdeep` pay CC6 wakeups on unpredictable traffic.
    #[must_use]
    pub fn select_unbounded(&self) -> CoreCState {
        self.enabled
            .iter()
            .copied()
            .filter(|s| s.is_idle())
            .max()
            .unwrap_or(CoreCState::CC1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;

    #[test]
    fn cshallow_governor_only_uses_cc1() {
        let g = IdleGovernor::new(&PlatformConfig::c_shallow());
        assert_eq!(g.select(SimDuration::from_micros(1)), CoreCState::CC1);
        assert_eq!(g.select(SimDuration::from_millis(100)), CoreCState::CC1);
        assert_eq!(g.select_unbounded(), CoreCState::CC1);
    }

    #[test]
    fn cdeep_governor_picks_by_target_residency() {
        let g = IdleGovernor::new(&PlatformConfig::c_deep());
        // Very short idle: CC1 only.
        assert_eq!(g.select(SimDuration::from_micros(3)), CoreCState::CC1);
        // Medium idle: CC1E qualifies, CC6 does not.
        assert_eq!(g.select(SimDuration::from_micros(100)), CoreCState::CC1E);
        // Long idle: CC6.
        assert_eq!(g.select(SimDuration::from_millis(2)), CoreCState::CC6);
        // Unknown idle duration: deepest enabled.
        assert_eq!(g.select_unbounded(), CoreCState::CC6);
    }

    #[test]
    fn sub_target_idle_still_returns_cc1() {
        let g = IdleGovernor::new(&PlatformConfig::c_deep());
        assert_eq!(g.select(SimDuration::ZERO), CoreCState::CC1);
    }

    #[test]
    fn duplicate_states_are_deduplicated() {
        let mut cfg = PlatformConfig::c_shallow();
        cfg.enabled_core_cstates = vec![CoreCState::CC1, CoreCState::CC1, CoreCState::CC6];
        let g = IdleGovernor::new(&cfg);
        assert_eq!(g.enabled, [CoreCState::CC1, CoreCState::CC6]);
    }
}
