//! The paper's power-savings model (Sec. 2, Eq. 1).
//!
//! ```text
//! P_baseline  = R_PC0 · P_PC0 + R_PC0idle · P_PC0idle
//! %P_savings  = R_PC1A · (P_PC0idle − P_PC1A) / P_baseline
//! ```
//!
//! where the residencies `R` are fractions of time and `R_PC1A` is assumed
//! equal to the fraction of time the baseline spends with all cores idle in
//! CC1 (`R_PC0idle`).

use apc_power::budget::{PackageStatePower, StatePower};
use apc_power::units::Watts;
use apc_soc::cstate::PackageCState;

/// Inputs to Eq. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsInputs {
    /// Fraction of time at least one core is active.
    pub r_pc0: f64,
    /// Fraction of time all cores are idle in CC1 (and hence PC1A-eligible).
    pub r_pc0idle: f64,
    /// SoC + DRAM power while at least one core is active.
    pub p_pc0: Watts,
    /// SoC + DRAM power while all cores idle in CC1 without package savings.
    pub p_pc0idle: Watts,
    /// SoC + DRAM power in PC1A.
    pub p_pc1a: Watts,
}

impl SavingsInputs {
    /// Builds the inputs from residencies and the calibrated package-state
    /// budgets. `p_pc0` uses the *loaded* PC0 power scaled between idle and
    /// full load by `active_fraction_power_scale` (1.0 = fully loaded);
    /// the paper's model simply uses the measured average active power, which
    /// experiment harnesses can substitute through [`SavingsInputs::with_active_power`].
    #[must_use]
    pub fn from_budget(budget: &PackageStatePower, r_pc0idle: f64) -> Self {
        let r_pc0idle = r_pc0idle.clamp(0.0, 1.0);
        SavingsInputs {
            r_pc0: 1.0 - r_pc0idle,
            r_pc0idle,
            p_pc0: budget.pc0_power().total(),
            p_pc0idle: budget.state_power(PackageCState::PC0Idle).total(),
            p_pc1a: budget.state_power(PackageCState::PC1A).total(),
        }
    }

    /// Replaces the active-state power with a measured value.
    #[must_use]
    pub fn with_active_power(mut self, p_pc0: Watts) -> Self {
        self.p_pc0 = p_pc0;
        self
    }

    /// The baseline average power (denominator of Eq. 1).
    #[must_use]
    pub fn baseline_power(&self) -> Watts {
        Watts(self.r_pc0 * self.p_pc0.as_f64() + self.r_pc0idle * self.p_pc0idle.as_f64())
    }

    /// The Eq. 1 fractional power saving from adding PC1A
    /// (assuming `R_PC1A = R_PC0idle`).
    #[must_use]
    pub fn savings_fraction(&self) -> f64 {
        let baseline = self.baseline_power().as_f64();
        if baseline <= 0.0 {
            return 0.0;
        }
        self.r_pc0idle * (self.p_pc0idle.as_f64() - self.p_pc1a.as_f64()) / baseline
    }
}

/// Eq. 1 evaluated for an idle server (`R_PC0 = 0`, `R_PC0idle = 1`):
/// `1 − P_PC1A / P_PC0idle` (the paper's ~41 % headline).
#[must_use]
pub fn idle_savings(pc0idle: StatePower, pc1a: StatePower) -> f64 {
    let idle = pc0idle.total().as_f64();
    if idle <= 0.0 {
        return 0.0;
    }
    1.0 - pc1a.total().as_f64() / idle
}

/// A simple energy-proportionality score: the ratio of the power *actually*
/// saved at a given utilisation to the power an ideally proportional server
/// would save (linear between idle-power = 0 at 0 % and peak power at 100 %).
/// 1.0 means perfectly proportional; 0.0 means no proportionality at all.
#[must_use]
pub fn proportionality_score(power_at_util: Watts, peak_power: Watts, utilization: f64) -> f64 {
    let peak = peak_power.as_f64();
    if peak <= 0.0 {
        return 0.0;
    }
    let u = utilization.clamp(0.0, 1.0);
    let ideal = peak * u;
    let actual = power_at_util.as_f64();
    if actual <= ideal {
        return 1.0;
    }
    // Excess over ideal, normalised by how much excess a completely
    // non-proportional server (always at peak) would have.
    let worst_excess = peak - ideal;
    if worst_excess <= 0.0 {
        return 1.0;
    }
    1.0 - (actual - ideal) / worst_excess
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> PackageStatePower {
        PackageStatePower::skx_reference()
    }

    #[test]
    fn idle_server_saves_about_41_percent() {
        let b = budget();
        let s = idle_savings(
            b.state_power(PackageCState::PC0Idle),
            b.state_power(PackageCState::PC1A),
        );
        assert!((s - 0.41).abs() < 0.02, "idle saving {s}");
    }

    #[test]
    fn sec2_example_savings_at_5_and_10_percent_load() {
        // Paper Sec. 2: with ~57 % / ~39 % all-idle residency at 5 % / 10 %
        // load, PC1A saves about 23 % / 17 %.
        let b = budget();
        let five = SavingsInputs::from_budget(&b, 0.57)
            .with_active_power(Watts(60.0))
            .savings_fraction();
        assert!((five - 0.23).abs() < 0.05, "5% load saving {five}");
        let ten = SavingsInputs::from_budget(&b, 0.39)
            .with_active_power(Watts(62.0))
            .savings_fraction();
        assert!((ten - 0.17).abs() < 0.05, "10% load saving {ten}");
    }

    #[test]
    fn savings_grow_with_idle_residency() {
        let b = budget();
        let lo = SavingsInputs::from_budget(&b, 0.1).savings_fraction();
        let hi = SavingsInputs::from_budget(&b, 0.8).savings_fraction();
        assert!(hi > lo);
        assert!(lo >= 0.0 && hi <= 1.0);
    }

    #[test]
    fn baseline_power_is_residency_weighted() {
        let b = budget();
        let inputs = SavingsInputs::from_budget(&b, 0.5);
        let expected = 0.5 * inputs.p_pc0.as_f64() + 0.5 * inputs.p_pc0idle.as_f64();
        assert!((inputs.baseline_power().as_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn proportionality_score_bounds() {
        // Perfectly proportional.
        assert!((proportionality_score(Watts(9.2), Watts(92.0), 0.1) - 1.0).abs() < 1e-12);
        // Completely non-proportional: always at peak.
        assert!(proportionality_score(Watts(92.0), Watts(92.0), 0.1) < 0.01);
        // Somewhere in between.
        let s = proportionality_score(Watts(49.5), Watts(92.0), 0.1);
        assert!(s > 0.4 && s < 0.7, "score {s}");
        assert_eq!(proportionality_score(Watts(10.0), Watts(0.0), 0.5), 0.0);
    }
}
