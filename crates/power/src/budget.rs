//! Package-state power budgets (the Table 1 composition).
//!
//! [`PackageStatePower`] composes the per-domain [`PowerModel`] constants
//! into the SoC + DRAM power of each package operating point, reproducing
//! Table 1 of the paper without running a full simulation. The full-system
//! simulation arrives at the same numbers by integrating component states
//! over time; this module is the closed-form cross-check.

use std::fmt;

use apc_soc::clm::ClmState;
use apc_soc::cstate::{CoreCState, PackageCState};
use apc_soc::io::{IoKind, LinkPowerState};
use apc_soc::memory::DramPowerMode;
use apc_soc::topology::SocConfig;

use crate::model::PowerModel;
use crate::units::Watts;

/// The component configuration of one package operating point: which state
/// each class of component sits in (a row of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackageStateRecipe {
    /// The package C-state this recipe describes.
    pub package: PackageCState,
    /// The core C-state all cores reside in (for PC0 this is the state of
    /// the *active* cores; see [`PackageStatePower::pc0_power`]).
    pub cores: CoreCState,
    /// The CLM domain state.
    pub clm: ClmState,
    /// PCIe/DMI link state.
    pub pcie: LinkPowerState,
    /// UPI link state.
    pub upi: LinkPowerState,
    /// DRAM power mode.
    pub dram: DramPowerMode,
    /// Whether the uncore PLLs remain locked.
    pub plls_on: bool,
}

impl PackageStateRecipe {
    /// The recipe for a given package C-state, following Table 2.
    #[must_use]
    pub fn for_state(package: PackageCState) -> Self {
        match package {
            PackageCState::PC0 => PackageStateRecipe {
                package,
                cores: CoreCState::CC0,
                clm: ClmState::Operational,
                pcie: LinkPowerState::L0,
                upi: LinkPowerState::L0,
                dram: DramPowerMode::Active,
                plls_on: true,
            },
            PackageCState::PC0Idle | PackageCState::PC2 => PackageStateRecipe {
                package,
                cores: CoreCState::CC1,
                clm: ClmState::Operational,
                pcie: LinkPowerState::L0,
                upi: LinkPowerState::L0,
                dram: DramPowerMode::Active,
                plls_on: true,
            },
            PackageCState::PC6 => PackageStateRecipe {
                package,
                cores: CoreCState::CC6,
                clm: ClmState::Retention,
                pcie: LinkPowerState::L1,
                upi: LinkPowerState::L1,
                dram: DramPowerMode::SelfRefresh,
                plls_on: false,
            },
            PackageCState::PC1A => PackageStateRecipe {
                package,
                cores: CoreCState::CC1,
                clm: ClmState::Retention,
                pcie: LinkPowerState::L0s,
                upi: LinkPowerState::L0p,
                dram: DramPowerMode::PrechargePowerDown,
                plls_on: true,
            },
        }
    }
}

/// SoC and DRAM power of one package operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatePower {
    /// SoC (package) power.
    pub soc: Watts,
    /// DRAM device power.
    pub dram: Watts,
}

impl StatePower {
    /// SoC + DRAM.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.soc + self.dram
    }
}

impl fmt::Display for StatePower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {} = {}", self.soc, self.dram, self.total())
    }
}

/// Computes package-state power budgets for a socket configuration.
#[derive(Debug, Clone)]
pub struct PackageStatePower {
    model: PowerModel,
    config: SocConfig,
}

impl PackageStatePower {
    /// Creates the budget calculator.
    #[must_use]
    pub fn new(model: PowerModel, config: SocConfig) -> Self {
        PackageStatePower { model, config }
    }

    /// The calculator for the paper's reference system and calibration.
    #[must_use]
    pub fn skx_reference() -> Self {
        PackageStatePower::new(PowerModel::skx_calibrated(), SocConfig::xeon_silver_4114())
    }

    /// Power of the operating point where all cores execute (`PC0` row of
    /// Table 1: "`PC0 / ≥1 CC0`", reported at full utilisation).
    #[must_use]
    pub fn pc0_power(&self) -> StatePower {
        self.power_for(&PackageStateRecipe::for_state(PackageCState::PC0), 1.0)
    }

    /// Power of an arbitrary package state per its Table 2 recipe. DRAM
    /// utilisation is zero for every idle state.
    #[must_use]
    pub fn state_power(&self, state: PackageCState) -> StatePower {
        let util = if state == PackageCState::PC0 {
            1.0
        } else {
            0.0
        };
        self.power_for(&PackageStateRecipe::for_state(state), util)
    }

    /// Power for an explicit recipe (used by the Sec. 5.4 breakdown
    /// experiments which mix and match component states).
    #[must_use]
    fn power_for(&self, recipe: &PackageStateRecipe, dram_utilization: f64) -> StatePower {
        let m = &self.model;
        let n_cores = self.config.cores as f64;
        let cores = m.core_power(recipe.cores) * n_cores;

        let clm = m.clm_power(recipe.clm);

        let mut io = Watts::ZERO;
        for kind in &self.config.io_kinds {
            let state = match kind {
                IoKind::Pcie | IoKind::Dmi => recipe.pcie,
                IoKind::Upi => recipe.upi,
            };
            io += m.io_power(*kind, state);
        }
        let mcs = m.mc_power(recipe.dram) * self.config.memory_controllers as f64;

        let plls = if recipe.plls_on {
            // Uncore PLLs: one per IO controller, one for CLM/MC, one for the GPMU.
            Watts(m.pll_locked) * (self.config.io_kinds.len() as f64 + 2.0)
        } else {
            Watts::ZERO
        };

        let soc = cores + clm + io + mcs + plls + Watts(m.north_cap_base);
        let dram = m.dram_power(recipe.dram, dram_utilization);
        StatePower { soc, dram }
    }

    /// The Eq. 2 / Eq. 3 component deltas between PC1A and PC6
    /// (`Pcores_diff`, `PIOs_diff`, `PPLLs_diff`, `Pdram_diff`), in watts.
    #[must_use]
    pub fn pc1a_component_deltas(&self) -> ComponentDeltas {
        let m = &self.model;
        let n_cores = self.config.cores as f64;
        let cores_diff = n_cores * (m.core_cc1 - m.core_cc6);

        let pc1a = PackageStateRecipe::for_state(PackageCState::PC1A);
        let pc6 = PackageStateRecipe::for_state(PackageCState::PC6);
        let io_of = |r: &PackageStateRecipe| -> f64 {
            let mut total = 0.0;
            for kind in &self.config.io_kinds {
                let state = match kind {
                    IoKind::Pcie | IoKind::Dmi => r.pcie,
                    IoKind::Upi => r.upi,
                };
                total += m.io_power(*kind, state).as_f64();
            }
            total + m.mc_power(r.dram).as_f64() * self.config.memory_controllers as f64
        };
        let ios_diff = io_of(&pc1a) - io_of(&pc6);
        let plls_diff = m.pll_locked * (self.config.io_kinds.len() as f64 + 2.0);
        let dram_diff =
            m.dram_power(pc1a.dram, 0.0).as_f64() - m.dram_power(pc6.dram, 0.0).as_f64();

        ComponentDeltas {
            cores: Watts(cores_diff),
            ios: Watts(ios_diff),
            plls: Watts(plls_diff),
            dram: Watts(dram_diff),
        }
    }
}

impl Default for PackageStatePower {
    fn default() -> Self {
        PackageStatePower::skx_reference()
    }
}

/// The Sec. 5.4 component power deltas between PC1A and PC6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentDeltas {
    /// `Pcores_diff`: all cores in CC1 vs. CC6.
    pub cores: Watts,
    /// `PIOs_diff`: IOs + MCs in shallow vs. deep power states.
    pub ios: Watts,
    /// `PPLLs_diff`: uncore PLLs on vs. off.
    pub plls: Watts,
    /// `Pdram_diff`: DRAM in CKE-off vs. self-refresh.
    pub dram: Watts,
}

impl ComponentDeltas {
    /// Reconstructs PC1A power from PC6 power via Eq. 2 / Eq. 3.
    #[must_use]
    pub fn apply_to(&self, pc6: StatePower) -> StatePower {
        StatePower {
            soc: pc6.soc + self.cores + self.ios + self.plls,
            dram: pc6.dram + self.dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> PackageStatePower {
        PackageStatePower::skx_reference()
    }

    #[test]
    fn table1_pc0idle() {
        let p = budget().state_power(PackageCState::PC0Idle);
        assert!((p.soc.as_f64() - 44.0).abs() < 0.35, "SoC {}", p.soc);
        assert!((p.dram.as_f64() - 5.5).abs() < 0.1, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 49.5).abs() < 0.4);
    }

    #[test]
    fn table1_pc6() {
        let p = budget().state_power(PackageCState::PC6);
        assert!((p.soc.as_f64() - 11.9).abs() < 0.35, "SoC {}", p.soc);
        assert!((p.dram.as_f64() - 0.51).abs() < 0.05, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 12.5).abs() < 0.4);
    }

    #[test]
    fn table1_pc1a() {
        let p = budget().state_power(PackageCState::PC1A);
        assert!((p.soc.as_f64() - 27.5).abs() < 0.35, "SoC {}", p.soc);
        assert!((p.dram.as_f64() - 1.6).abs() < 0.1, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 29.1).abs() < 0.4);
    }

    #[test]
    fn table1_pc0_full_load() {
        let p = budget().pc0_power();
        assert!(p.soc.as_f64() <= 85.5, "SoC {}", p.soc);
        assert!(p.soc.as_f64() > 80.0);
        assert!((p.dram.as_f64() - 7.0).abs() < 0.1);
    }

    #[test]
    fn pc1a_sits_between_pc0idle_and_pc6() {
        let b = budget();
        let idle = b.state_power(PackageCState::PC0Idle).total().as_f64();
        let pc6 = b.state_power(PackageCState::PC6).total().as_f64();
        let pc1a = b.state_power(PackageCState::PC1A).total().as_f64();
        assert!(pc1a < idle);
        assert!(pc1a > pc6);
    }

    #[test]
    fn only_pc6_and_pc1a_close_the_uncore_and_save_power() {
        let b = budget();
        let idle = b.state_power(PackageCState::PC0Idle).total();
        for state in PackageCState::ALL {
            let deep = matches!(state, PackageCState::PC6 | PackageCState::PC1A);
            let r = PackageStateRecipe::for_state(state);
            let uncore_open = r.clm == ClmState::Operational
                && r.pcie == LinkPowerState::L0
                && r.upi == LinkPowerState::L0
                && r.dram == DramPowerMode::Active;
            assert_eq!(uncore_open, !deep, "{state}: uncore");
            assert_eq!(b.state_power(state).total() < idle, deep, "{state}: saving");
        }
    }

    #[test]
    fn idle_power_reduction_is_about_41_percent() {
        // Sec. 2: for an idle server PC1A reduces SoC+DRAM power by ~41 %.
        let b = budget();
        let idle = b.state_power(PackageCState::PC0Idle).total().as_f64();
        let pc1a = b.state_power(PackageCState::PC1A).total().as_f64();
        let saving = 1.0 - pc1a / idle;
        assert!(
            (saving - 0.41).abs() < 0.02,
            "idle saving {saving:.3} should be ~0.41"
        );
    }

    #[test]
    fn sec54_component_deltas() {
        let d = budget().pc1a_component_deltas();
        assert!((d.cores.as_f64() - 12.1).abs() < 0.1, "cores {}", d.cores);
        assert!((d.ios.as_f64() - 3.5).abs() < 0.15, "ios {}", d.ios);
        assert!((d.plls.as_f64() - 0.056).abs() < 1e-9, "plls {}", d.plls);
        assert!((d.dram.as_f64() - 1.1).abs() < 0.05, "dram {}", d.dram);
    }

    #[test]
    fn eq2_eq3_reconstruct_pc1a_from_pc6() {
        let b = budget();
        let pc6 = b.state_power(PackageCState::PC6);
        let reconstructed = b.pc1a_component_deltas().apply_to(pc6);
        let direct = b.state_power(PackageCState::PC1A);
        assert!((reconstructed.soc.as_f64() - direct.soc.as_f64()).abs() < 1e-9);
        assert!((reconstructed.dram.as_f64() - direct.dram.as_f64()).abs() < 1e-9);
        assert!(reconstructed.to_string().contains('='));
    }

    #[test]
    fn recipes_follow_table2() {
        let pc1a = PackageStateRecipe::for_state(PackageCState::PC1A);
        assert_eq!(pc1a.cores, CoreCState::CC1);
        assert_eq!(pc1a.pcie, LinkPowerState::L0s);
        assert_eq!(pc1a.upi, LinkPowerState::L0p);
        assert_eq!(pc1a.dram, DramPowerMode::PrechargePowerDown);
        assert!(pc1a.plls_on);

        let pc6 = PackageStateRecipe::for_state(PackageCState::PC6);
        assert_eq!(pc6.cores, CoreCState::CC6);
        assert_eq!(pc6.pcie, LinkPowerState::L1);
        assert_eq!(pc6.dram, DramPowerMode::SelfRefresh);
        assert!(!pc6.plls_on);

        let pc0 = PackageStateRecipe::for_state(PackageCState::PC0);
        assert_eq!(pc0.cores, CoreCState::CC0);
        assert!(pc0.plls_on);
    }
}
