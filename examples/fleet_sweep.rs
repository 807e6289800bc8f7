//! Multi-server fleet sweep: runs the same workload over a fleet of
//! independent servers per platform configuration and prints fleet-level
//! aggregates — the scenario the single-server figures cannot show.
//! Members execute in parallel on all available cores (`Fleet::run`);
//! the named fleet scenarios (`apc-cli list`) are the declarative variant.
//!
//! ```text
//! cargo run --release --example fleet_sweep
//! ```

use apc::prelude::*;
use apc::server::fleet::Fleet;

fn main() {
    let servers = 8;
    let rate = 20_000.0;
    let duration = SimDuration::from_millis(100);

    let mut table = TextTable::new(
        &format!("fleet of {servers} servers, memcached ETC @ {rate:.0} QPS each"),
        &[
            "config",
            "total QPS",
            "power",
            "vs Cshallow",
            "mean lat",
            "worst p99",
            "PC1A res",
        ],
    );
    let mut baseline_power: Option<f64> = None;
    for config in [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ] {
        let name = config.platform.name;
        let fleet = Fleet::homogeneous(
            &config.with_duration(duration),
            WorkloadSpec::memcached_etc,
            rate,
            servers,
        );
        let result = fleet.run();
        let power = result.total_power_w();
        let delta = baseline_power
            .map(|base| format!("{:+.1}%", (power / base - 1.0) * 100.0))
            .unwrap_or_else(|| "--".to_owned());
        baseline_power = baseline_power.or(Some(power));
        table.add_row(&[
            name.to_owned(),
            format!("{:.0}", result.aggregate_throughput()),
            format!("{:.1} W", power),
            delta,
            format!("{}", result.mean_latency()),
            format!("{}", result.worst_p99()),
            format!("{:.1}%", result.mean_pc1a_residency() * 100.0),
        ]);
    }
    println!("{}", table.render());
}
