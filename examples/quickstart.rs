//! Quickstart: compare the datacenter baseline (`Cshallow`) against the
//! APC-enhanced server (`CPC1A`) on a light Memcached load and print the
//! paper's headline metrics.
//!
//! Run with: `cargo run --release --example quickstart`

use apc::prelude::*;

fn main() {
    let rate = 25_000.0; // ~5 % utilisation on the 10-core reference server
    let duration = SimDuration::from_millis(500);

    println!("AgilePkgC quickstart: Memcached at {rate:.0} QPS for {duration}\n");

    let baseline = run_experiment(
        ServerConfig::c_shallow().with_duration(duration),
        WorkloadSpec::memcached_etc(),
        rate,
    );
    let apc = run_experiment(
        ServerConfig::c_pc1a().with_duration(duration),
        WorkloadSpec::memcached_etc(),
        rate,
    );

    let mut table = TextTable::new("Cshallow vs CPC1A", &["metric", "Cshallow", "CPC1A"]);
    table.add_row(&[
        "SoC+DRAM power".into(),
        format!("{:.2} W", baseline.avg_total_power().as_f64()),
        format!("{:.2} W", apc.avg_total_power().as_f64()),
    ]);
    table.add_row(&[
        "mean latency".into(),
        format!("{:.1} us", baseline.latency.mean.as_micros_f64()),
        format!("{:.1} us", apc.latency.mean.as_micros_f64()),
    ]);
    table.add_row(&[
        "p99 latency".into(),
        format!("{:.1} us", baseline.latency.p99.as_micros_f64()),
        format!("{:.1} us", apc.latency.p99.as_micros_f64()),
    ]);
    table.add_row(&[
        "all-cores-idle residency".into(),
        format!("{:.1}%", baseline.all_idle_fraction * 100.0),
        format!("{:.1}%", apc.all_idle_fraction * 100.0),
    ]);
    table.add_row(&[
        "PC1A residency".into(),
        "-".into(),
        format!("{:.1}%", apc.pc1a_residency * 100.0),
    ]);
    table.add_row(&[
        "PC1A transitions".into(),
        "-".into(),
        format!("{}", apc.pc1a_transitions),
    ]);
    print!("{}", table.render());

    let saving = apc.power_saving_vs(&baseline);
    let impact = apc.latency_overhead_vs(&baseline);
    println!("\npower saving from PC1A : {:.1}%", saving * 100.0);
    println!("mean-latency impact    : {:+.3}%", impact * 100.0);
    let pc1a = flow_latency(PackageCState::PC1A);
    println!(
        "PC1A transition budget : {} (entry {} / exit {})",
        pc1a.round_trip(),
        pc1a.entry,
        pc1a.exit
    );
}
