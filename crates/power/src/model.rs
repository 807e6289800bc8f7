//! Per-domain power model calibrated against the paper's measurements.
//!
//! The paper reduces all of its RAPL measurements to a small number of
//! per-state power levels (Table 1 and Sec. 5.4). This module encodes those
//! levels as per-component constants chosen so that their composition
//! reproduces the paper's package-level numbers:
//!
//! | Operating point | SoC | DRAM |
//! |---|---|---|
//! | PC0, all cores active | ≈ 85 W | ≈ 7 W |
//! | PC0idle (all cores CC1) | ≈ 44 W | ≈ 5.5 W |
//! | PC6 | ≈ 11.9 W | ≈ 0.51 W |
//! | PC1A | ≈ 27.5 W | ≈ 1.6 W |
//!
//! and the Sec. 5.4 deltas: `Pcores_diff ≈ 12.1 W`, `PIOs_diff ≈ 3.5 W`,
//! `PPLLs_diff ≈ 56 mW`, `Pdram_diff ≈ 1.1 W`.

use std::fmt;

use apc_soc::clm::ClmState;
use apc_soc::cstate::CoreCState;
use apc_soc::io::{IoKind, LinkPowerState};
use apc_soc::memory::DramPowerMode;
use apc_soc::pll::PllState;
use apc_soc::topology::SkxSoc;

use crate::units::Watts;

/// Instantaneous power of a socket broken down by domain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// All CPU cores (including their private caches and per-core PLLs).
    pub cores: Watts,
    /// The CLM domain (CHA + LLC + mesh).
    pub clm: Watts,
    /// High-speed IO controllers, their PHYs and the memory controllers.
    pub io: Watts,
    /// Uncore (non-core) PLLs.
    pub plls: Watts,
    /// Always-on north-cap infrastructure (GPMU, fuses, reference clocks).
    pub uncore_misc: Watts,
    /// DRAM devices (reported separately, as RAPL does).
    pub dram: Watts,
}

impl PowerBreakdown {
    /// Total SoC (package) power: everything except DRAM devices.
    #[must_use]
    pub fn soc_total(&self) -> Watts {
        self.cores + self.clm + self.io + self.plls + self.uncore_misc
    }

    /// Total SoC + DRAM power.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.soc_total() + self.dram
    }

    /// Fraction of SoC + DRAM power consumed by the uncore and DRAM
    /// (everything except the cores). The paper's motivation (Sec. 2) is that
    /// this exceeds 65 % when all cores idle in CC1.
    #[must_use]
    pub fn uncore_and_dram_fraction(&self) -> f64 {
        let total = self.total().as_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (total - self.cores.as_f64()) / total
    }
}

impl fmt::Display for PowerBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cores {} | CLM {} | IO+MC {} | PLLs {} | misc {} | SoC {} | DRAM {}",
            self.cores,
            self.clm,
            self.io,
            self.plls,
            self.uncore_misc,
            self.soc_total(),
            self.dram
        )
    }
}

/// Memory-bandwidth utilisation (0–1) implied by `busy` of `cores` cores
/// executing work: the DRAM domain's activity input.
#[must_use]
pub fn memory_utilization(busy: usize, cores: usize) -> f64 {
    busy as f64 / cores.max(1) as f64
}

/// The calibrated per-domain power model.
///
/// All constants are in watts. The [`PowerModel::skx_calibrated`] constructor
/// returns the values used throughout the reproduction; experiments that want
/// to explore sensitivity can construct modified models.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Power of one core executing at nominal frequency (CC0).
    pub core_cc0: f64,
    /// Power of one core halted in CC1.
    pub core_cc1: f64,
    /// Power of one core in CC1E (reduced voltage/frequency halt).
    pub core_cc1e: f64,
    /// Power of one core power-gated in CC6.
    pub core_cc6: f64,
    /// CLM power with clocks running at nominal voltage.
    pub clm_nominal: f64,
    /// CLM power with the clock tree gated but voltage nominal.
    pub clm_clock_gated: f64,
    /// CLM power at retention voltage.
    pub clm_retention: f64,
    /// Per-link power of a PCIe/DMI controller + PHY in L0.
    pub pcie_l0: f64,
    /// Per-link power in L0s (~50 % saving, paper Sec. 3.1).
    pub pcie_l0s: f64,
    /// Per-link power of a UPI controller + PHY in L0.
    pub upi_l0: f64,
    /// Per-link UPI power in L0p (~25 % saving).
    pub upi_l0p: f64,
    /// Per-link power in L1 (link off, keep-alive only).
    pub link_l1: f64,
    /// Per-memory-controller power with CKE asserted (active standby).
    pub mc_active: f64,
    /// Per-memory-controller power with DRAM in CKE-off.
    pub mc_cke_off: f64,
    /// Per-memory-controller power with DRAM in self-refresh.
    pub mc_self_refresh: f64,
    /// Power of one uncore all-digital PLL while locked.
    pub pll_locked: f64,
    /// Always-on north-cap infrastructure power.
    pub north_cap_base: f64,
    /// DRAM device power when idle but clocked (active standby), whole system.
    pub dram_idle: f64,
    /// Additional DRAM device power at 100 % memory-bandwidth utilisation.
    pub dram_active_extra: f64,
    /// DRAM device power with all ranks in CKE-off.
    pub dram_cke_off: f64,
    /// DRAM device power in self-refresh.
    pub dram_self_refresh: f64,
}

impl PowerModel {
    /// The calibration used throughout the reproduction (see module docs).
    #[must_use]
    pub fn skx_calibrated() -> Self {
        PowerModel {
            core_cc0: 5.46,
            core_cc1: 1.36,
            core_cc1e: 0.95,
            core_cc6: 0.15,
            clm_nominal: 17.94,
            clm_clock_gated: 11.5,
            clm_retention: 7.0,
            pcie_l0: 1.3,
            pcie_l0s: 0.52,
            upi_l0: 1.3,
            upi_l0p: 0.85,
            link_l1: 0.10,
            mc_active: 1.1,
            mc_cke_off: 0.36,
            mc_self_refresh: 0.20,
            pll_locked: 0.007,
            north_cap_base: 2.4,
            dram_idle: 5.5,
            dram_active_extra: 1.5,
            dram_cke_off: 1.6,
            dram_self_refresh: 0.51,
        }
    }

    /// Power of one core in the given C-state.
    #[must_use]
    pub fn core_power(&self, state: CoreCState) -> Watts {
        Watts(match state {
            CoreCState::CC0 => self.core_cc0,
            CoreCState::CC1 => self.core_cc1,
            CoreCState::CC1E => self.core_cc1e,
            CoreCState::CC6 => self.core_cc6,
        })
    }

    /// Power of the CLM domain in the given state.
    #[must_use]
    pub fn clm_power(&self, state: ClmState) -> Watts {
        Watts(match state {
            ClmState::Operational => self.clm_nominal,
            ClmState::ClockGated => self.clm_clock_gated,
            ClmState::Retention => self.clm_retention,
        })
    }

    /// Power of one high-speed IO controller + PHY in the given link state.
    #[must_use]
    pub fn io_power(&self, kind: IoKind, state: LinkPowerState) -> Watts {
        let l0 = match kind {
            IoKind::Pcie | IoKind::Dmi => self.pcie_l0,
            IoKind::Upi => self.upi_l0,
        };
        Watts(match state {
            LinkPowerState::L0 => l0,
            LinkPowerState::L0s => self.pcie_l0s,
            LinkPowerState::L0p => self.upi_l0p,
            LinkPowerState::L1 => self.link_l1,
            LinkPowerState::Nda => 0.0,
        })
    }

    /// SoC-side power of one memory controller for the given DRAM mode.
    #[must_use]
    pub fn mc_power(&self, mode: DramPowerMode) -> Watts {
        Watts(match mode {
            DramPowerMode::Active => self.mc_active,
            DramPowerMode::ActivePowerDown | DramPowerMode::PrechargePowerDown => self.mc_cke_off,
            DramPowerMode::SelfRefresh => self.mc_self_refresh,
        })
    }

    /// DRAM device power for the given mode. `utilization` (0–1) scales the
    /// activity-proportional component and only applies in the active mode.
    #[must_use]
    pub fn dram_power(&self, mode: DramPowerMode, utilization: f64) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        Watts(match mode {
            DramPowerMode::Active => self.dram_idle + self.dram_active_extra * u,
            DramPowerMode::ActivePowerDown | DramPowerMode::PrechargePowerDown => self.dram_cke_off,
            DramPowerMode::SelfRefresh => self.dram_self_refresh,
        })
    }

    /// Power of one uncore PLL in the given state.
    #[must_use]
    pub fn pll_power(&self, state: PllState) -> Watts {
        Watts(match state {
            PllState::Locked | PllState::Relocking => self.pll_locked,
            PllState::Off => 0.0,
        })
    }

    /// Computes the instantaneous power breakdown of a socket: every core at
    /// its established C-state, the CLM, the IO links plus count × the
    /// memory-controller entry, count × the uncore-PLL entry, the north cap,
    /// and the DRAM devices in their one mode ([`PowerModel::dram_power`]).
    /// `memory_utilization` (0–1) scales the DRAM activity component (only
    /// meaningful when at least one core is active).
    #[must_use]
    pub fn snapshot(&self, soc: &SkxSoc, memory_utilization: f64) -> PowerBreakdown {
        let links: Watts = soc
            .ios()
            .iter()
            .map(|c| self.io_power(c.kind(), c.state()))
            .sum();
        let memory = soc.memory();
        let plls = soc.plls();
        PowerBreakdown {
            cores: soc
                .cores()
                .iter()
                .map(|c| self.core_power(c.cstate()))
                .sum(),
            clm: self.clm_power(soc.clm().state()),
            io: links + self.mc_power(memory.mode()) * memory.len() as f64,
            plls: self.pll_power(plls.uncore_state()) * plls.uncore_count() as f64,
            uncore_misc: Watts(self.north_cap_base),
            dram: self.dram_power(memory.mode(), memory_utilization),
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::skx_calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_soc::core::CoreId;

    const EPS: f64 = 0.35; // calibration tolerance in watts

    fn model() -> PowerModel {
        PowerModel::skx_calibrated()
    }

    #[test]
    fn pc0idle_soc_power_is_44w() {
        let m = model();
        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC1);
        let b = m.snapshot(&soc, 0.0);
        assert!(
            (b.soc_total().as_f64() - 44.0).abs() < EPS,
            "SoC idle power {}",
            b.soc_total()
        );
        assert!((b.dram.as_f64() - 5.5).abs() < EPS, "DRAM {}", b.dram);
        assert!(
            b.uncore_and_dram_fraction() > 0.65,
            "uncore+DRAM fraction {}",
            b.uncore_and_dram_fraction()
        );
    }

    #[test]
    fn pc0_full_load_soc_power_is_85w() {
        let m = model();
        let soc = SkxSoc::xeon_silver_4114(); // all cores CC0 by default
        let b = m.snapshot(&soc, 1.0);
        assert!(
            (b.soc_total().as_f64() - 85.0).abs() < EPS,
            "SoC loaded power {}",
            b.soc_total()
        );
        assert!((b.dram.as_f64() - 7.0).abs() < EPS, "DRAM {}", b.dram);
    }

    #[test]
    fn cores_diff_between_cc1_and_cc6_is_12w() {
        let m = model();
        let diff = 10.0 * (m.core_cc1 - m.core_cc6);
        assert!((diff - 12.1).abs() < 0.1, "Pcores_diff {diff}");
    }

    #[test]
    fn pll_diff_is_56mw() {
        let m = model();
        let plls = SkxSoc::xeon_silver_4114().plls().uncore_count();
        let on = m.pll_power(PllState::Locked) * plls as f64;
        assert!((on.as_f64() - 0.056).abs() < 1e-9);
        assert_eq!(m.pll_power(PllState::Off), Watts::ZERO);
    }

    #[test]
    fn io_shallow_vs_deep_diff_is_3_5w() {
        let m = model();
        // Shallow: 3 PCIe + 1 DMI in L0s, 2 UPI in L0p, 2 MCs in CKE-off.
        let shallow = 4.0 * m.pcie_l0s + 2.0 * m.upi_l0p + 2.0 * m.mc_cke_off;
        // Deep: all 6 links in L1, 2 MCs in self-refresh.
        let deep = 6.0 * m.link_l1 + 2.0 * m.mc_self_refresh;
        assert!(
            ((shallow - deep) - 3.5).abs() < 0.1,
            "PIOs_diff {}",
            shallow - deep
        );
    }

    #[test]
    fn dram_diff_is_1_1w() {
        let m = model();
        let diff = m.dram_cke_off - m.dram_self_refresh;
        assert!((diff - 1.1).abs() < 0.05, "Pdram_diff {diff}");
    }

    #[test]
    fn per_state_power_is_monotonic() {
        let m = model();
        assert!(m.core_power(CoreCState::CC0) > m.core_power(CoreCState::CC1));
        assert!(m.core_power(CoreCState::CC1) > m.core_power(CoreCState::CC1E));
        assert!(m.core_power(CoreCState::CC1E) > m.core_power(CoreCState::CC6));
        assert!(m.clm_power(ClmState::Operational) > m.clm_power(ClmState::ClockGated));
        assert!(m.clm_power(ClmState::ClockGated) > m.clm_power(ClmState::Retention));
        assert!(
            m.io_power(IoKind::Pcie, LinkPowerState::L0)
                > m.io_power(IoKind::Pcie, LinkPowerState::L0s)
        );
        assert!(
            m.io_power(IoKind::Upi, LinkPowerState::L0)
                > m.io_power(IoKind::Upi, LinkPowerState::L0p)
        );
        assert!(
            m.io_power(IoKind::Pcie, LinkPowerState::L0s)
                > m.io_power(IoKind::Pcie, LinkPowerState::L1)
        );
        assert!(m.mc_power(DramPowerMode::Active) > m.mc_power(DramPowerMode::PrechargePowerDown));
        assert!(
            m.dram_power(DramPowerMode::Active, 0.0)
                > m.dram_power(DramPowerMode::PrechargePowerDown, 0.0)
        );
        assert!(
            m.dram_power(DramPowerMode::PrechargePowerDown, 0.0)
                > m.dram_power(DramPowerMode::SelfRefresh, 0.0)
        );
    }

    #[test]
    fn l0s_saves_about_half_of_l0() {
        let m = model();
        let saving = 1.0 - m.pcie_l0s / m.pcie_l0;
        assert!((0.45..=0.65).contains(&saving), "L0s saving {saving}");
        let upi_saving = 1.0 - m.upi_l0p / m.upi_l0;
        assert!(
            (0.20..=0.40).contains(&upi_saving),
            "L0p saving {upi_saving}"
        );
    }

    #[test]
    fn dram_utilization_scales_only_active_mode() {
        let m = model();
        let idle = m.dram_power(DramPowerMode::Active, 0.0);
        let loaded = m.dram_power(DramPowerMode::Active, 1.0);
        assert!((loaded.as_f64() - idle.as_f64() - 1.5).abs() < 1e-9);
        assert_eq!(
            m.dram_power(DramPowerMode::SelfRefresh, 1.0),
            m.dram_power(DramPowerMode::SelfRefresh, 0.0)
        );
        // Clamp out-of-range utilization.
        assert_eq!(m.dram_power(DramPowerMode::Active, 2.0), loaded);
    }

    #[test]
    fn breakdown_display_and_partial_activity() {
        let m = model();
        let mut soc = SkxSoc::xeon_silver_4114();
        // 3 active cores, 7 in CC1.
        soc.force_all_cores(CoreCState::CC1);
        for i in 0..3 {
            soc.cores_mut().force_state(CoreId(i), CoreCState::CC0);
        }
        let b = m.snapshot(&soc, 0.3);
        let expected_cores = 3.0 * m.core_cc0 + 7.0 * m.core_cc1;
        assert!((b.cores.as_f64() - expected_cores).abs() < 1e-9);
        assert!(b.soc_total() > Watts(44.0));
        assert!(b.soc_total() < Watts(85.0));
        assert!(b.to_string().contains("SoC"));
    }
}
