//! Package power and latency from the SoC the package flows drive (paper
//! Table 1, Table 2, Sec. 5.4, Eq. 2–3, and Sec. 5.5).
//!
//! [`resident_soc`] brings the reference socket to rest in a Table 1
//! operating point through the flows the simulator runs: the APMU's PC1A
//! entry and the GPMU's PC6 entry. Its component states are that state's
//! Table 2 row, and `PowerModel::snapshot` of it is the state's power, so
//! which state each component takes is known only to the flows, and how
//! component power sums to package power only to the power model.
//! [`flow_latency`] times the same flows' entry and exit, so every
//! transition latency is the one the simulator waits.
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
//! [`Pc1aPowerEstimate`] reproduces that derivation: its deltas are the
//! differences of the resident PC1A and PC6 breakdowns, and its tests check
//! the result against the PC1A breakdown itself.

use std::fmt;

use apc_pmu::gpmu::Gpmu;
use apc_power::model::{PowerBreakdown, PowerModel};
use apc_power::units::Watts;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::{CoreCState, PackageCState};
use apc_soc::topology::SkxSoc;

use crate::apmu::{Apmu, WakeCause};

/// The Xeon Silver 4114 at rest in `state`, brought there by the flows the
/// simulator runs:
///
/// * PC0: every core in CC0, as built;
/// * PC0idle: every core in CC1;
/// * PC6: every core in CC6, then the GPMU's entry flow
///   ([`Gpmu::begin_entry`], [`Gpmu::complete_entry`]);
/// * PC1A: every core in CC1 and every link idle, then the APMU's entry
///   flow ([`Apmu::on_all_cores_idle`], [`Apmu::on_standby_deadline`],
///   [`Apmu::on_entry_complete`]).
///
/// # Panics
///
/// Panics on PC2: it is a transient of the GPMU's PC6 flow, and no SoC
/// rests in it.
#[must_use]
pub fn resident_soc(state: PackageCState) -> SkxSoc {
    Rest::in_state(state).soc
}

/// The entry and exit latency of the package flow that brings the
/// reference socket to rest in `state`, timed as [`resident_soc`] drives
/// it: PC1A's entry from ACC1 with every link in standby and its exit from
/// a settled PC1A, PC6's as [`Gpmu::begin_entry`] and [`Gpmu::begin_exit`]
/// return them, and zero for PC0 and PC0idle, which no flow enters.
///
/// # Panics
///
/// Panics on PC2, as [`resident_soc`] does.
#[must_use]
pub fn flow_latency(state: PackageCState) -> FlowLatency {
    let Rest {
        mut soc,
        flow,
        entry,
        rested_at,
    } = Rest::in_state(state);
    let wake_at = rested_at + Rest::RESIDENCY;
    let exit = match flow {
        Flow::None => SimDuration::ZERO,
        Flow::Pc6(mut gpmu) => gpmu.begin_exit(&mut soc, wake_at),
        Flow::Pc1a(mut apmu) => apmu
            .wakeup(&mut soc, wake_at, WakeCause::IoTraffic)
            .latency(),
    };
    FlowLatency { entry, exit }
}

/// How long a package flow takes to enter its state and to leave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowLatency {
    /// From the flow's start to residency.
    pub entry: SimDuration,
    /// From a wakeup to the uncore being available again.
    pub exit: SimDuration,
}

impl FlowLatency {
    /// Entry then exit: Table 1's transition latency.
    #[must_use]
    pub fn round_trip(&self) -> SimDuration {
        self.entry + self.exit
    }
}

/// The package FSM that brought a socket to rest.
enum Flow {
    /// PC0 and PC0idle: no package flow runs.
    None,
    Pc6(Gpmu),
    Pc1a(Apmu),
}

/// The reference socket at rest, the flow that brought it there, how long
/// that flow's entry took and when it ended.
struct Rest {
    soc: SkxSoc,
    flow: Flow,
    entry: SimDuration,
    rested_at: SimTime,
}

impl Rest {
    /// How long [`flow_latency`] lets a socket rest before waking it: far
    /// longer than the PC1A entry's non-blocking CLM ramp, so the exit
    /// starts from retention voltage.
    const RESIDENCY: SimDuration = SimDuration::from_micros(1);

    fn in_state(state: PackageCState) -> Rest {
        let mut soc = SkxSoc::xeon_silver_4114();
        let now = SimTime::ZERO;
        let (flow, started_at, rested_at) = match state {
            PackageCState::PC0 => (Flow::None, now, now),
            PackageCState::PC0Idle => {
                soc.force_all_cores(CoreCState::CC1);
                (Flow::None, now, now)
            }
            PackageCState::PC6 => {
                soc.force_all_cores(CoreCState::CC6);
                let mut gpmu = Gpmu::new();
                let rested_at = now + gpmu.begin_entry(&mut soc, now);
                gpmu.complete_entry(&mut soc, rested_at);
                (Flow::Pc6(gpmu), now, rested_at)
            }
            PackageCState::PC1A => {
                soc.force_all_cores(CoreCState::CC1);
                for link in soc.ios_mut().iter_mut() {
                    link.end_traffic(now);
                }
                let mut apmu = Apmu::new();
                let deadline = apmu
                    .on_all_cores_idle(&mut soc)
                    .expect("every link is idle");
                let rested_at = apmu
                    .on_standby_deadline(&mut soc, deadline)
                    .expect("every core is in CC1 and every link in standby");
                apmu.on_entry_complete();
                (Flow::Pc1a(apmu), deadline, rested_at)
            }
            PackageCState::PC2 => {
                panic!("PC2 is a transient of the GPMU's PC6 flow: no SoC rests in it")
            }
        };
        Rest {
            soc,
            flow,
            entry: rested_at - started_at,
            rested_at,
        }
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

/// The Sec. 5.4 derivation: the PC6 power, the component deltas, and the
/// Eq. 2/3 PC1A estimate built from them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pc1aPowerEstimate {
    /// The resident PC6 breakdown (a RAPL measurement in the paper).
    pub pc6: PowerBreakdown,
    /// The component deltas (cores, IOs, PLLs, DRAM).
    pub deltas: ComponentDeltas,
}

impl Pc1aPowerEstimate {
    /// Runs the derivation with `model` on the resident PC6 and PC1A SoCs,
    /// both with idle DRAM.
    #[must_use]
    pub fn of(model: &PowerModel) -> Self {
        let pc6 = model.snapshot(&resident_soc(PackageCState::PC6), 0.0);
        let pc1a = model.snapshot(&resident_soc(PackageCState::PC1A), 0.0);
        let deltas = ComponentDeltas {
            cores: pc1a.cores - pc6.cores,
            ios: pc1a.io - pc6.io,
            plls: pc1a.plls - pc6.plls,
            dram: pc1a.dram - pc6.dram,
        };
        Pc1aPowerEstimate { pc6, deltas }
    }

    /// Eq. 2: `Psoc_PC1A`.
    #[must_use]
    pub fn pc1a_soc(&self) -> Watts {
        self.pc6.soc_total() + self.deltas.cores + self.deltas.ios + self.deltas.plls
    }

    /// Eq. 3: `Pdram_PC1A`.
    #[must_use]
    pub fn pc1a_dram(&self) -> Watts {
        self.pc6.dram + self.deltas.dram
    }
}

impl fmt::Display for Pc1aPowerEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Psoc_PC6 = {}  Pdram_PC6 = {}",
            self.pc6.soc_total(),
            self.pc6.dram
        )?;
        writeln!(
            f,
            "Pcores_diff = {}  PIOs_diff = {}  PPLLs_diff = {}  Pdram_diff = {}",
            self.deltas.cores, self.deltas.ios, self.deltas.plls, self.deltas.dram
        )?;
        write!(
            f,
            "=> Psoc_PC1A = {}  Pdram_PC1A = {}  (total {})",
            self.pc1a_soc(),
            self.pc1a_dram(),
            self.pc1a_soc() + self.pc1a_dram()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_power::energy::PowerLevel;
    use apc_power::table::PowerTable;
    use apc_soc::clm::ClmState;
    use apc_soc::clock::PMU_CLOCK;
    use apc_soc::io::{IoKind, LinkPowerState};
    use apc_soc::memory::DramPowerMode;
    use apc_soc::pll::PllState;
    use apc_soc::vr::Fivr;

    /// The resident states: every package C-state but the PC2 transient.
    const RESIDENT: [PackageCState; 4] = [
        PackageCState::PC0,
        PackageCState::PC0Idle,
        PackageCState::PC6,
        PackageCState::PC1A,
    ];

    /// `PowerModel::snapshot` of the SoC resting in `state`: DRAM at full
    /// bandwidth in PC0 (Table 1's full-load row), idle otherwise.
    fn power(state: PackageCState) -> PowerBreakdown {
        let utilization = if state == PackageCState::PC0 {
            1.0
        } else {
            0.0
        };
        PowerModel::skx_calibrated().snapshot(&resident_soc(state), utilization)
    }

    fn estimate() -> Pc1aPowerEstimate {
        Pc1aPowerEstimate::of(&PowerModel::skx_calibrated())
    }

    #[test]
    fn table1_pc0idle() {
        let p = power(PackageCState::PC0Idle);
        assert!(
            (p.soc_total().as_f64() - 44.0).abs() < 0.35,
            "SoC {}",
            p.soc_total()
        );
        assert!((p.dram.as_f64() - 5.5).abs() < 0.1, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 49.5).abs() < 0.4);
    }

    #[test]
    fn table1_pc6() {
        let p = power(PackageCState::PC6);
        assert!(
            (p.soc_total().as_f64() - 11.9).abs() < 0.35,
            "SoC {}",
            p.soc_total()
        );
        assert!((p.dram.as_f64() - 0.51).abs() < 0.05, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 12.5).abs() < 0.4);
    }

    #[test]
    fn table1_pc1a() {
        let p = power(PackageCState::PC1A);
        assert!(
            (p.soc_total().as_f64() - 27.5).abs() < 0.35,
            "SoC {}",
            p.soc_total()
        );
        assert!((p.dram.as_f64() - 1.6).abs() < 0.1, "DRAM {}", p.dram);
        assert!((p.total().as_f64() - 29.1).abs() < 0.4);
    }

    #[test]
    fn table1_pc0_full_load() {
        let p = power(PackageCState::PC0);
        assert!(p.soc_total().as_f64() <= 85.5, "SoC {}", p.soc_total());
        assert!(p.soc_total().as_f64() > 80.0);
        assert!((p.dram.as_f64() - 7.0).abs() < 0.1);
    }

    #[test]
    fn pc1a_sits_between_pc0idle_and_pc6() {
        let idle = power(PackageCState::PC0Idle).total();
        let pc6 = power(PackageCState::PC6).total();
        let pc1a = power(PackageCState::PC1A).total();
        assert!(pc1a < idle);
        assert!(pc1a > pc6);
    }

    #[test]
    fn only_pc6_and_pc1a_close_the_uncore_and_save_power() {
        let idle = power(PackageCState::PC0Idle).total();
        for state in RESIDENT {
            let deep = matches!(state, PackageCState::PC6 | PackageCState::PC1A);
            let soc = resident_soc(state);
            let uncore_open = soc.clm().state() == ClmState::Operational
                && soc.ios().iter().all(|l| l.state() == LinkPowerState::L0)
                && soc.memory().mode() == DramPowerMode::Active;
            assert_eq!(uncore_open, !deep, "{state}: uncore");
            assert_eq!(power(state).total() < idle, deep, "{state}: saving");
        }
    }

    #[test]
    #[should_panic(expected = "no SoC rests in it")]
    fn no_soc_rests_in_pc2() {
        let _ = resident_soc(PackageCState::PC2);
    }

    #[test]
    fn idle_power_reduction_is_about_41_percent() {
        // Sec. 2: for an idle server PC1A reduces SoC+DRAM power by ~41 %.
        let idle = power(PackageCState::PC0Idle).total().as_f64();
        let pc1a = power(PackageCState::PC1A).total().as_f64();
        let saving = 1.0 - pc1a / idle;
        assert!(
            (saving - 0.41).abs() < 0.02,
            "idle saving {saving:.3} should be ~0.41"
        );
    }

    #[test]
    fn sec54_component_deltas() {
        let d = estimate().deltas;
        assert!((d.cores.as_f64() - 12.1).abs() < 0.1, "cores {}", d.cores);
        assert!((d.ios.as_f64() - 3.5).abs() < 0.15, "ios {}", d.ios);
        assert!((d.plls.as_f64() - 0.056).abs() < 1e-9, "plls {}", d.plls);
        assert!((d.dram.as_f64() - 1.1).abs() < 0.05, "dram {}", d.dram);
        // Eq. 2's premise: the CLM and the north cap draw the same in both.
        let (pc1a, pc6) = (power(PackageCState::PC1A), power(PackageCState::PC6));
        assert_eq!((pc1a.clm, pc1a.uncore_misc), (pc6.clm, pc6.uncore_misc));
    }

    #[test]
    fn eq2_eq3_reconstruct_pc1a_from_pc6() {
        let est = estimate();
        let direct = power(PackageCState::PC1A);
        assert!((est.pc1a_soc().as_f64() - direct.soc_total().as_f64()).abs() < 1e-9);
        assert!((est.pc1a_dram().as_f64() - direct.dram.as_f64()).abs() < 1e-9);
    }

    #[test]
    fn resident_socs_follow_table2() {
        let link_states = |soc: &SkxSoc, kind: IoKind| -> Vec<LinkPowerState> {
            let links = soc.ios().iter().filter(|l| l.kind() == kind);
            links.map(|l| l.state()).collect()
        };
        let all_cores_in =
            |soc: &SkxSoc, state: CoreCState| soc.cores().iter().all(|c| c.cstate() == state);

        let pc1a = resident_soc(PackageCState::PC1A);
        assert!(all_cores_in(&pc1a, CoreCState::CC1));
        assert_eq!(pc1a.clm().state(), ClmState::Retention);
        assert_eq!(link_states(&pc1a, IoKind::Pcie), [LinkPowerState::L0s; 3]);
        assert_eq!(link_states(&pc1a, IoKind::Dmi), [LinkPowerState::L0s]);
        assert_eq!(link_states(&pc1a, IoKind::Upi), [LinkPowerState::L0p; 2]);
        assert_eq!(pc1a.memory().mode(), DramPowerMode::PrechargePowerDown);
        assert_eq!(pc1a.plls().uncore_state(), PllState::Locked);

        let pc6 = resident_soc(PackageCState::PC6);
        assert!(all_cores_in(&pc6, CoreCState::CC6));
        assert_eq!(pc6.clm().state(), ClmState::Retention);
        assert!(pc6.ios().iter().all(|l| l.state() == LinkPowerState::L1));
        assert_eq!(pc6.memory().mode(), DramPowerMode::SelfRefresh);
        assert_eq!(pc6.plls().uncore_state(), PllState::Off);

        let pc0 = resident_soc(PackageCState::PC0);
        assert!(all_cores_in(&pc0, CoreCState::CC0));
        assert_eq!(pc0.plls().uncore_state(), PllState::Locked);
    }

    #[test]
    fn the_table_charges_each_resident_state_its_closed_form_power() {
        // The simulator charges through the quantised table; on each resting
        // socket it reads the snapshot the closed-form tables print.
        let model = PowerModel::skx_calibrated();
        for state in RESIDENT {
            let soc = resident_soc(state);
            let table = PowerTable::new(&model, &soc);
            let busy = if state == PackageCState::PC0 {
                soc.cores().len()
            } else {
                0
            };
            let level = table.level(&soc, &table.uncore(&soc), busy);
            assert_eq!(level, PowerLevel::quantise(&power(state)), "{state}");
        }
    }

    #[test]
    fn eq2_estimate_matches_paper_numbers() {
        let est = estimate();
        assert!((est.pc6.soc_total().as_f64() - 11.9).abs() < 0.35);
        assert!(
            (est.pc1a_soc().as_f64() - 27.5).abs() < 0.4,
            "SoC {}",
            est.pc1a_soc()
        );
        assert!(
            (est.pc1a_dram().as_f64() - 1.6).abs() < 0.1,
            "DRAM {}",
            est.pc1a_dram()
        );
        assert!(((est.pc1a_soc() + est.pc1a_dram()).as_f64() - 29.1).abs() < 0.5);
    }

    #[test]
    fn a_socket_mid_entry_draws_its_resident_power() {
        // Each entry flow moves the components at its first step, so the
        // power charged mid-entry is the resident state's, whatever the
        // FSM reports for residency.
        let model = PowerModel::skx_calibrated();
        let now = SimTime::ZERO;

        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC6);
        let _ = Gpmu::new().begin_entry(&mut soc, now);
        let mid_pc6 = model.snapshot(&soc, 0.0);
        assert_eq!(mid_pc6, power(PackageCState::PC6));
        assert_eq!(format!("{}", mid_pc6.total()), "12.41W");

        let mut soc = SkxSoc::xeon_silver_4114();
        soc.force_all_cores(CoreCState::CC1);
        for link in soc.ios_mut().iter_mut() {
            link.end_traffic(now);
        }
        let mut apmu = Apmu::new();
        let deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
        apmu.on_standby_deadline(&mut soc, deadline).unwrap();
        let mid_pc1a = model.snapshot(&soc, 0.0);
        assert_eq!(mid_pc1a, power(PackageCState::PC1A));
        assert_eq!(format!("{}", mid_pc1a.total()), "29.16W");
    }

    #[test]
    fn entry_is_about_18ns() {
        let pc1a = flow_latency(PackageCState::PC1A);
        assert_eq!(pc1a.entry, SimDuration::from_nanos(18));
    }

    #[test]
    fn settled_exit_is_154ns() {
        // The paper's ≤ 150 ns leaves out the 2-cycle ungate after `PwrOk`.
        let exit = flow_latency(PackageCState::PC1A).exit;
        assert_eq!(exit, SimDuration::from_nanos(154));
        // The ramp had settled: a 1 ms rest exits the same.
        let mut rest = Rest::in_state(PackageCState::PC1A);
        let Flow::Pc1a(apmu) = &mut rest.flow else {
            panic!("PC1A rests through the APMU");
        };
        let much_later = rest.rested_at + SimDuration::from_millis(1);
        let later = apmu.wakeup(&mut rest.soc, much_later, WakeCause::IoTraffic);
        assert_eq!(later.latency(), exit);
    }

    #[test]
    fn round_trip_is_under_200ns() {
        let round_trip = flow_latency(PackageCState::PC1A).round_trip();
        assert_eq!(round_trip, SimDuration::from_nanos(172));
        assert!(round_trip <= SimDuration::from_nanos(200));
    }

    #[test]
    fn speedup_vs_pc6_exceeds_250x() {
        let pc6 = flow_latency(PackageCState::PC6);
        assert_eq!(
            (pc6.entry, pc6.exit),
            (SimDuration::from_micros(22), SimDuration::from_micros(30))
        );
        let pc1a = flow_latency(PackageCState::PC1A);
        let speedup = pc6.round_trip().as_nanos() as f64 / pc1a.round_trip().as_nanos() as f64;
        assert!(speedup >= 250.0, "speedup {speedup}");
        for state in [PackageCState::PC0, PackageCState::PC0Idle] {
            assert_eq!(flow_latency(state).round_trip(), SimDuration::ZERO);
        }
    }

    #[test]
    fn voltage_ramp_matches_fivr_slew() {
        // The settled exit is the FIVRs' full swing back to nominal at
        // their slew rate, then the ungate.
        let swing = f64::from(Fivr::CLM_NOMINAL.0 - Fivr::CLM_RETENTION.0);
        let ramp = SimDuration::from_nanos((swing / Fivr::SLEW_MV_PER_NS).ceil() as u64);
        assert_eq!(ramp, SimDuration::from_nanos(150));
        let exit = flow_latency(PackageCState::PC1A).exit;
        assert_eq!(exit, ramp + PMU_CLOCK.cycles(2));
    }

    #[test]
    fn display_shows_all_terms() {
        let s = estimate().to_string();
        assert!(s.contains("Pcores_diff"));
        assert!(s.contains("Psoc_PC1A"));
    }
}
