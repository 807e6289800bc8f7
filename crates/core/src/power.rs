//! PC1A power estimation (paper Sec. 5.4, Eq. 2–3).
//!
//! The paper derives the PC1A power level it cannot measure directly (the
//! hardware does not exist) from quantities it *can* measure on a stock
//! server: the PC6 power plus the component deltas between the states PC1A
//! and PC6 keep different —
//!
//! ```text
//! Psoc_PC1A  = Psoc_PC6  + Pcores_diff + PIOs_diff + PPLLs_diff     (Eq. 2)
//! Pdram_PC1A = Pdram_PC6 + Pdram_diff                               (Eq. 3)
//! ```
//!
//! This module reproduces that derivation on top of the calibrated power
//! model; its tests check it against the direct composition of the PC1A
//! recipe.

use std::fmt;

use apc_power::budget::{ComponentDeltas, PackageStatePower, StatePower};
use apc_soc::cstate::PackageCState;

/// The Sec. 5.4 derivation: measured PC6 power, measured component deltas,
/// and the resulting PC1A estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pc1aPowerEstimate {
    /// The PC6 baseline (RAPL measurement in the paper).
    pub pc6: StatePower,
    /// The component deltas (cores, IOs, PLLs, DRAM).
    pub deltas: ComponentDeltas,
    /// The Eq. 2/3 result.
    pub pc1a: StatePower,
}

impl fmt::Display for Pc1aPowerEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Psoc_PC6 = {}  Pdram_PC6 = {}",
            self.pc6.soc, self.pc6.dram
        )?;
        writeln!(
            f,
            "Pcores_diff = {}  PIOs_diff = {}  PPLLs_diff = {}  Pdram_diff = {}",
            self.deltas.cores, self.deltas.ios, self.deltas.plls, self.deltas.dram
        )?;
        write!(
            f,
            "=> Psoc_PC1A = {}  Pdram_PC1A = {}  (total {})",
            self.pc1a.soc,
            self.pc1a.dram,
            self.pc1a.total()
        )
    }
}

/// Estimates PC1A power per the paper's methodology.
#[derive(Debug, Clone, Default)]
pub struct Pc1aPowerEstimator {
    budget: PackageStatePower,
}

impl Pc1aPowerEstimator {
    /// Creates an estimator over the reference calibration.
    #[must_use]
    pub fn new(budget: PackageStatePower) -> Self {
        Pc1aPowerEstimator { budget }
    }

    /// The estimator for the paper's reference system.
    #[must_use]
    pub fn skx_reference() -> Self {
        Pc1aPowerEstimator::new(PackageStatePower::skx_reference())
    }

    /// Runs the Eq. 2/3 derivation.
    #[must_use]
    pub fn estimate(&self) -> Pc1aPowerEstimate {
        let pc6 = self.budget.state_power(PackageCState::PC6);
        let deltas = self.budget.pc1a_component_deltas();
        let pc1a = deltas.apply_to(pc6);
        Pc1aPowerEstimate { pc6, deltas, pc1a }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_estimate_matches_paper_numbers() {
        let est = Pc1aPowerEstimator::skx_reference().estimate();
        assert!((est.pc6.soc.as_f64() - 11.9).abs() < 0.35);
        assert!(
            (est.pc1a.soc.as_f64() - 27.5).abs() < 0.4,
            "SoC {}",
            est.pc1a.soc
        );
        assert!(
            (est.pc1a.dram.as_f64() - 1.6).abs() < 0.1,
            "DRAM {}",
            est.pc1a.dram
        );
        assert!((est.pc1a.total().as_f64() - 29.1).abs() < 0.5);
    }

    #[test]
    fn derivation_agrees_with_direct_composition() {
        let estimator = Pc1aPowerEstimator::skx_reference();
        let derived = estimator.estimate().pc1a;
        let direct = estimator.budget.state_power(PackageCState::PC1A);
        assert!((derived.soc.as_f64() - direct.soc.as_f64()).abs() < 1e-9);
        assert!((derived.dram.as_f64() - direct.dram.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn display_shows_all_terms() {
        let s = Pc1aPowerEstimator::skx_reference().estimate().to_string();
        assert!(s.contains("Pcores_diff"));
        assert!(s.contains("Psoc_PC1A"));
    }
}
