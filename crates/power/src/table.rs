//! The power model as a table of whole-nanowatt constants.
//!
//! Energy accounting runs around every simulated event, so it reads the
//! model through a [`PowerTable`]: every per-state constant of a
//! [`PowerModel`] quantised once with [`nanowatts`], plus active DRAM for
//! every busy-core count. A level is then a sum of table entries, a group
//! of like components (the memory controllers, the uncore PLLs) counting
//! as count × entry, with no float arithmetic and no division per event.
//!
//! The table's levels equal [`PowerLevel::quantise`] of the float
//! [`PowerModel::snapshot`] bit for bit when every constant of the model is
//! a whole number of microwatts, as in the calibrated model: a float sum of
//! such constants then lies far closer than half a nanowatt to its whole
//! number of microwatts, so quantising the sum and summing the quantised
//! constants agree. The DRAM entries are quantised results of the very
//! float expression [`PowerModel::dram_power`] evaluates, so they agree
//! for any model.

use apc_soc::clm::ClmState;
use apc_soc::cstate::CoreCState;
use apc_soc::io::{IoKind, LinkPowerState};
use apc_soc::memory::DramPowerMode;
use apc_soc::pll::PllState;
use apc_soc::topology::SkxSoc;

use crate::energy::{nanowatts, PowerLevel};
use crate::model::{memory_utilization, PowerModel};

/// Every variant, in declaration order: the tables below are indexed by
/// `state as usize`.
const CLM_STATES: [ClmState; 3] = [
    ClmState::Operational,
    ClmState::ClockGated,
    ClmState::Retention,
];
const IO_KINDS: [IoKind; 3] = [IoKind::Pcie, IoKind::Dmi, IoKind::Upi];
const LINK_STATES: [LinkPowerState; 5] = [
    LinkPowerState::L0,
    LinkPowerState::L0p,
    LinkPowerState::L0s,
    LinkPowerState::L1,
    LinkPowerState::Nda,
];
const DRAM_MODES: [DramPowerMode; 4] = [
    DramPowerMode::Active,
    DramPowerMode::ActivePowerDown,
    DramPowerMode::PrechargePowerDown,
    DramPowerMode::SelfRefresh,
];
const PLL_STATES: [PllState; 3] = [PllState::Locked, PllState::Off, PllState::Relocking];

/// A [`PowerModel`] quantised for one SoC: per-state constants in whole
/// nanowatts and active DRAM per busy-core count. See the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use apc_power::energy::PowerLevel;
/// use apc_power::model::{memory_utilization, PowerModel};
/// use apc_power::table::PowerTable;
/// use apc_soc::topology::SkxSoc;
///
/// let model = PowerModel::skx_calibrated();
/// let soc = SkxSoc::xeon_silver_4114();
/// let table = PowerTable::new(&model, &soc);
/// let busy = 3;
/// let level = table.level(&soc, &table.uncore(&soc), busy);
/// let float = model.snapshot(&soc, memory_utilization(busy, soc.cores().len()));
/// assert_eq!(level, PowerLevel::quantise(&float));
/// ```
#[derive(Debug, Clone)]
pub struct PowerTable {
    /// Per-core power by [`CoreCState`].
    core: [u64; 4],
    /// CLM power by [`ClmState`].
    clm: [u64; 3],
    /// Per-link power by [`IoKind`] and [`LinkPowerState`].
    link: [[u64; 5]; 3],
    /// Per-memory-controller power by [`DramPowerMode`].
    mc: [u64; 4],
    /// Per-uncore-PLL power by [`PllState`].
    pll: [u64; 3],
    /// Always-on north-cap power.
    uncore_misc: u64,
    /// DRAM power by [`DramPowerMode`] at zero utilisation.
    dram: [u64; 4],
    /// Active DRAM power by busy-core count.
    dram_active: Vec<u64>,
}

/// The part of a [`PowerLevel`] that depends only on the uncore component
/// states: recompute it with [`PowerTable::uncore`] when
/// [`SkxSoc::uncore_change_epoch`] moves, and combine it with the cores and
/// the busy-core count in [`PowerTable::level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreLevel {
    clm: u64,
    io: u64,
    plls: u64,
    uncore_misc: u64,
    dram: DramLevel,
}

/// How the DRAM domain follows the DRAM mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DramLevel {
    /// DRAM is active: the level follows the busy-core count.
    Active,
    /// DRAM is in a fixed-power mode: this level, in nW.
    Fixed(u64),
}

impl PowerTable {
    /// Quantises `model` for `soc`'s core count.
    #[must_use]
    pub fn new(model: &PowerModel, soc: &SkxSoc) -> Self {
        let cores = soc.cores().len();
        PowerTable {
            core: CoreCState::ALL.map(|state| nanowatts(model.core_power(state))),
            clm: CLM_STATES.map(|state| nanowatts(model.clm_power(state))),
            link: IO_KINDS
                .map(|kind| LINK_STATES.map(|state| nanowatts(model.io_power(kind, state)))),
            mc: DRAM_MODES.map(|mode| nanowatts(model.mc_power(mode))),
            pll: PLL_STATES.map(|state| nanowatts(model.pll_power(state))),
            uncore_misc: nanowatts(crate::units::Watts(model.north_cap_base)),
            dram: DRAM_MODES.map(|mode| nanowatts(model.dram_power(mode, 0.0))),
            dram_active: (0..=cores)
                .map(|busy| {
                    let utilization = memory_utilization(busy, cores);
                    nanowatts(model.dram_power(DramPowerMode::Active, utilization))
                })
                .collect(),
        }
    }

    /// The uncore part of `soc`'s power level: table sums over the CLM and
    /// IO link states, the memory controllers' and uncore PLLs' group
    /// states times their counts, and the DRAM mode.
    #[must_use]
    pub fn uncore(&self, soc: &SkxSoc) -> UncoreLevel {
        let links: u64 = soc
            .ios()
            .iter()
            .map(|c| self.link[c.kind() as usize][c.state() as usize])
            .sum();
        let memory = soc.memory();
        let mode = memory.mode();
        let plls = soc.plls();
        UncoreLevel {
            clm: self.clm[soc.clm().state() as usize],
            io: links + memory.len() as u64 * self.mc[mode as usize],
            plls: plls.uncore_count() as u64 * self.pll[plls.uncore_state() as usize],
            uncore_misc: self.uncore_misc,
            dram: match mode {
                DramPowerMode::Active => DramLevel::Active,
                _ => DramLevel::Fixed(self.dram[mode as usize]),
            },
        }
    }

    /// `soc`'s power level with `busy` cores executing work, given its
    /// current [`PowerTable::uncore`] part: the cores from the core set's
    /// C-state census, DRAM from its busy-core entry.
    #[inline]
    #[must_use]
    pub fn level(&self, soc: &SkxSoc, uncore: &UncoreLevel, busy: usize) -> PowerLevel {
        let cores = soc
            .cores()
            .cstate_census()
            .iter()
            .zip(&self.core)
            .map(|(&count, &nw)| count as u64 * nw)
            .sum();
        let dram = match uncore.dram {
            DramLevel::Active => self.dram_active[busy],
            DramLevel::Fixed(nw) => nw,
        };
        PowerLevel {
            cores,
            clm: uncore.clm,
            io: uncore.io,
            plls: uncore.plls,
            uncore_misc: uncore.uncore_misc,
            dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Watts;
    use apc_soc::topology::SocConfig;

    #[test]
    fn state_lists_follow_declaration_order() {
        assert!(CoreCState::ALL
            .iter()
            .enumerate()
            .all(|(i, &s)| s as usize == i));
        assert!(CLM_STATES.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(IO_KINDS.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(LINK_STATES
            .iter()
            .enumerate()
            .all(|(i, &s)| s as usize == i));
        assert!(DRAM_MODES.iter().enumerate().all(|(i, &s)| s as usize == i));
        assert!(PLL_STATES.iter().enumerate().all(|(i, &s)| s as usize == i));
    }

    /// A group counts as count × entry in every state its flows reach: DRAM
    /// active, CKE off and in self-refresh, the uncore PLLs locked, off and
    /// re-locking, on the Xeon's 2 controllers and `small_test`'s one.
    #[test]
    fn every_group_state_matches_the_float_model() {
        let model = PowerModel::skx_calibrated();
        for config in [SocConfig::xeon_silver_4114(), SocConfig::small_test(7)] {
            let mut soc = config.build();
            let table = PowerTable::new(&model, &soc);
            let cores = soc.cores().len();
            soc.memory_mut().set_allow_self_refresh(true);
            for mode in [
                DramPowerMode::Active,
                DramPowerMode::PrechargePowerDown,
                DramPowerMode::SelfRefresh,
            ] {
                let memory = soc.memory_mut();
                match mode {
                    DramPowerMode::Active => {
                        memory.wake();
                    }
                    DramPowerMode::SelfRefresh => {
                        memory.enter_self_refresh();
                    }
                    _ => {
                        memory.set_allow_cke_off(true);
                    }
                }
                assert_eq!(soc.memory().mode(), mode);
                for state in [PllState::Locked, PllState::Off, PllState::Relocking] {
                    let plls = soc.plls_mut();
                    match state {
                        PllState::Locked => plls.complete_relock_uncore(),
                        PllState::Off => plls.power_off_uncore(),
                        PllState::Relocking => {
                            plls.begin_relock_uncore();
                        }
                    }
                    assert_eq!(soc.plls().uncore_state(), state);
                    let uncore = table.uncore(&soc);
                    for busy in 0..=cores {
                        let float = model.snapshot(&soc, memory_utilization(busy, cores));
                        assert_eq!(
                            table.level(&soc, &uncore, busy),
                            PowerLevel::quantise(&float),
                            "{mode}, PLLs {state:?}, {busy} of {cores} cores busy"
                        );
                    }
                }
            }
        }
    }

    /// The premise of the table's exactness (see the module docs).
    #[test]
    fn every_calibrated_constant_is_a_whole_number_of_microwatts() {
        let m = PowerModel::skx_calibrated();
        let constants = [
            m.core_cc0,
            m.core_cc1,
            m.core_cc1e,
            m.core_cc6,
            m.clm_nominal,
            m.clm_clock_gated,
            m.clm_retention,
            m.pcie_l0,
            m.pcie_l0s,
            m.upi_l0,
            m.upi_l0p,
            m.link_l1,
            m.mc_active,
            m.mc_cke_off,
            m.mc_self_refresh,
            m.pll_locked,
            m.north_cap_base,
            m.dram_idle,
            m.dram_active_extra,
            m.dram_cke_off,
            m.dram_self_refresh,
        ];
        for w in constants {
            let nw = nanowatts(Watts(w));
            assert_eq!(nw % 1_000, 0, "{w} W is not a whole number of µW");
            assert!(
                (nw as f64 / 1e9 - w).abs() < 1e-12,
                "{w} W quantised to {nw} nW"
            );
        }
    }
}
