//! # `apc-bench` — the paper's closed-form tables, and two benchmarks
//!
//! Each public function renders one closed-form table of the paper as
//! text: Table 1, Table 2, the Fig. 7(a) idle power, the Sec. 2 savings
//! model, the Sec. 5.4 power derivation, the Sec. 5.5 transition latency
//! and the Sec. 5.1–5.3 area overhead. None of them simulates: the power
//! tables are `PowerModel::snapshot`s, and Table 2 the component states, of
//! the socket that the PC1A and PC6 flows bring to rest
//! ([`resident_soc`]), and every latency is those flows' own, timed on
//! that socket ([`flow_latency`]). The `paper_tables` bench target prints
//! them all.
//!
//! The simulated figures (Figs. 5–9) are sweep specs under
//! `examples/specs/`, run by `apc-cli sweep`; `docs/REPRODUCING.md` maps
//! each figure to its spec and columns. The `event_core` and `result_path`
//! bench targets time the event queue and the result path and write their
//! `BENCH_*.json` files.

#![deny(rustdoc::broken_intra_doc_links)]

use apc_analysis::report::TextTable;
use apc_analysis::savings::SavingsInputs;
use apc_core::area::ApcAreaModel;
use apc_core::power::{flow_latency, resident_soc, Pc1aPowerEstimate};
use apc_power::model::{PowerBreakdown, PowerModel};
use apc_power::units::Watts;
use apc_soc::clm::ClmState;
use apc_soc::core::CoreId;
use apc_soc::cstate::PackageCState;
use apc_soc::io::IoKind;
use apc_soc::pll::PllState;

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// `PowerModel::snapshot` of the socket resting in `state`: DRAM at full
/// bandwidth in PC0 (Table 1's full-load row), idle otherwise.
fn resident_power(state: PackageCState) -> PowerBreakdown {
    let utilization = if state == PackageCState::PC0 {
        1.0
    } else {
        0.0
    };
    PowerModel::skx_calibrated().snapshot(&resident_soc(state), utilization)
}

/// Every closed-form table, in the order the `paper_tables` bench prints
/// them, separated by blank lines. `tests/golden/paper_tables.txt` pins
/// the result byte for byte.
#[must_use]
pub fn paper_tables() -> String {
    [
        table1_package_cstate_power(),
        table2_cstate_characteristics(),
        sec2_savings_model(),
        sec54_pc1a_power_breakdown(),
        sec55_pc1a_latency(),
        sec5_area_overhead(),
        fig7a_idle_power(),
    ]
    .join("\n")
}

/// **Table 1** — power and transition latency across package C-states.
#[must_use]
pub fn table1_package_cstate_power() -> String {
    let mut t = TextTable::new(
        "Table 1: package C-state power and transition latency",
        &["package / cores", "latency", "SoC", "DRAM", "SoC+DRAM"],
    );
    let rows = [
        ("PC0 / >=1 CC0", PackageCState::PC0),
        ("PC0idle / 10 CC1", PackageCState::PC0Idle),
        ("PC6 / 10 CC6", PackageCState::PC6),
        ("PC1A / 10 CC1", PackageCState::PC1A),
    ];
    for (label, state) in rows {
        let p = resident_power(state);
        t.add_row(&[
            label.to_owned(),
            format!("{}", flow_latency(state).round_trip()),
            format!("{:.1} W", p.soc_total().as_f64()),
            format!("{:.2} W", p.dram.as_f64()),
            format!("{:.1} W", p.total().as_f64()),
        ]);
    }
    t.render()
}

/// **Table 2** — package C-state characteristics (component states).
#[must_use]
pub fn table2_cstate_characteristics() -> String {
    let mut t = TextTable::new(
        "Table 2: package C-state characteristics",
        &[
            "PCx", "cores in", "L3 cache", "PLLs", "PCIe/DMI", "UPI", "DRAM",
        ],
    );
    for state in [PackageCState::PC0, PackageCState::PC6, PackageCState::PC1A] {
        let soc = resident_soc(state);
        let link = |kind| {
            let first = soc.ios().iter().find(|l| l.kind() == kind);
            first.expect("the socket has every link kind").state()
        };
        let l3 = match soc.clm().state() {
            ClmState::Operational => "accessible",
            ClmState::ClockGated => "clock-gated",
            ClmState::Retention => "retention",
        };
        let plls = match soc.plls().uncore_state() {
            PllState::Off => "off",
            PllState::Locked | PllState::Relocking => "on",
        };
        t.add_row(&[
            state.to_string(),
            soc.cores().core(CoreId(0)).cstate().to_string(),
            l3.to_owned(),
            plls.to_owned(),
            link(IoKind::Pcie).to_string(),
            link(IoKind::Upi).to_string(),
            soc.memory().mode().to_string(),
        ]);
    }
    t.render()
}

/// **Fig. 7(a)** — idle SoC+DRAM power under the three configurations.
#[must_use]
pub fn fig7a_idle_power() -> String {
    let shallow = resident_power(PackageCState::PC0Idle);
    let deep = resident_power(PackageCState::PC6);
    let apc = resident_power(PackageCState::PC1A);
    let mut t = TextTable::new(
        "Fig. 7a: idle SoC+DRAM power",
        &["configuration", "SoC", "DRAM", "total", "vs Cshallow"],
    );
    for (name, p) in [("Cshallow", shallow), ("Cdeep", deep), ("CPC1A", apc)] {
        t.add_row(&[
            name.to_owned(),
            format!("{:.1} W", p.soc_total().as_f64()),
            format!("{:.2} W", p.dram.as_f64()),
            format!("{:.1} W", p.total().as_f64()),
            pct(1.0 - p.total().as_f64() / shallow.total().as_f64()),
        ]);
    }
    t.render()
}

/// **Sec. 2** — the Eq. 1 analytical savings model at the paper's example
/// operating points.
#[must_use]
pub fn sec2_savings_model() -> String {
    let p_pc0idle = resident_power(PackageCState::PC0Idle).total();
    let p_pc1a = resident_power(PackageCState::PC1A).total();
    let mut t = TextTable::new(
        "Sec. 2: Eq. 1 savings model",
        &["all-idle residency", "baseline W", "savings"],
    );
    for (label, r_idle) in [
        ("57% (5% load)", 0.57),
        ("39% (10% load)", 0.39),
        ("100% (idle)", 1.0),
    ] {
        let inputs = SavingsInputs::new(r_idle, Watts(60.0), p_pc0idle, p_pc1a);
        t.add_row(&[
            label.to_owned(),
            format!("{:.1}", inputs.baseline_power().as_f64()),
            pct(inputs.savings_fraction()),
        ]);
    }
    t.render()
}

/// **Sec. 5.4** — the PC1A power breakdown (Eq. 2/3).
#[must_use]
pub fn sec54_pc1a_power_breakdown() -> String {
    format!(
        "== Sec. 5.4: PC1A power derivation ==\n{}\n",
        Pc1aPowerEstimate::of(&PowerModel::skx_calibrated())
    )
}

/// **Sec. 5.5** — the PC1A transition latency and the speedup vs PC6.
#[must_use]
pub fn sec55_pc1a_latency() -> String {
    let pc1a = flow_latency(PackageCState::PC1A);
    let pc6 = flow_latency(PackageCState::PC6).round_trip();
    let speedup = pc6.as_nanos() as f64 / pc1a.round_trip().as_nanos() as f64;
    format!(
        "== Sec. 5.5: PC1A latency ==\n\
         PC1A entry (from ACC1)   {}\n\
         PC1A exit (settled)      {}\n\
         round trip               {}\n\
         PC6 round trip: {pc6}\n\
         speedup vs PC6: {speedup:.0}x\n",
        pc1a.entry,
        pc1a.exit,
        pc1a.round_trip(),
    )
}

/// **Sec. 5.1–5.3** — APC area overhead.
#[must_use]
pub fn sec5_area_overhead() -> String {
    format!("{}\n", ApcAreaModel::skx().report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_harnesses_render() {
        for s in [
            table1_package_cstate_power(),
            table2_cstate_characteristics(),
            fig7a_idle_power(),
            sec2_savings_model(),
            sec54_pc1a_power_breakdown(),
            sec55_pc1a_latency(),
            sec5_area_overhead(),
        ] {
            assert!(!s.is_empty());
        }
        assert!(table1_package_cstate_power().contains("PC1A"));
        assert!(table2_cstate_characteristics().contains("retention"));
        assert!(sec55_pc1a_latency().contains("speedup"));
    }

    /// docs/REPRODUCING.md quotes these idle figures for Fig. 7a and the
    /// idle row of Fig. 7b.
    #[test]
    fn idle_power_tables_print_the_documented_figures() {
        let fig7a = fig7a_idle_power();
        let row = |platform: &str| {
            let cell = format!("| {platform} ");
            fig7a
                .lines()
                .find(|line| line.starts_with(&cell))
                .unwrap_or_else(|| panic!("no {platform} row in\n{fig7a}"))
                .to_owned()
        };
        assert!(row("Cshallow").contains("| 49.5 W |"), "{fig7a}");
        assert!(row("Cdeep").contains("| 12.4 W |"), "{fig7a}");
        let pc1a = row("CPC1A");
        assert!(
            pc1a.contains("| 29.2 W |") && pc1a.contains("| 41.1%"),
            "{fig7a}"
        );
        assert!(sec54_pc1a_power_breakdown().contains("(total 29.16W)"));
    }
}
