//! Behavioural tests of the full-system simulation, carried over from the
//! pre-refactor monolithic event loop and extended with component-dispatch
//! checks. These pin the paper-level results (power savings, latency
//! impact, residency trends) that every figure depends on.

use apc_server::config::ServerConfig;
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

fn quick(config: ServerConfig, rate: f64) -> RunResult {
    run_experiment(
        config.with_duration(SimDuration::from_millis(200)),
        WorkloadSpec::memcached_etc(),
        rate,
    )
}

#[test]
fn cshallow_run_completes_requests_and_tracks_power() {
    let r = quick(ServerConfig::c_shallow(), 20_000.0);
    assert!(
        r.completed_requests > 3_000,
        "completed {}",
        r.completed_requests
    );
    assert!(r.latency.mean >= SimDuration::from_micros(117));
    assert!(r.latency.mean <= SimDuration::from_micros(400));
    // No package savings: power close to the 44 W idle floor plus some
    // core activity, never below it.
    assert!(
        r.avg_soc_power.as_f64() >= 43.0,
        "power {}",
        r.avg_soc_power
    );
    assert!(
        r.avg_soc_power.as_f64() <= 60.0,
        "power {}",
        r.avg_soc_power
    );
    assert_eq!(r.pc1a_transitions, 0);
    assert_eq!(r.pc6_transitions, 0);
    assert!(
        r.all_idle_fraction > 0.1,
        "all idle {}",
        r.all_idle_fraction
    );
    assert!(r.cpu_utilization > 0.01 && r.cpu_utilization < 0.2);
    assert_eq!(r.config_name, "Cshallow");
}

#[test]
fn cpc1a_enters_pc1a_and_saves_power() {
    let base = quick(ServerConfig::c_shallow(), 20_000.0);
    let apc = quick(ServerConfig::c_pc1a(), 20_000.0);
    assert!(
        apc.pc1a_transitions > 10,
        "transitions {}",
        apc.pc1a_transitions
    );
    assert!(
        apc.pc1a_residency > 0.05,
        "residency {}",
        apc.pc1a_residency
    );
    let saving = apc.power_saving_vs(&base);
    assert!(saving > 0.05, "saving {saving}");
    // Latency impact is tiny.
    let overhead = apc.latency_overhead_vs(&base);
    assert!(overhead.abs() < 0.02, "overhead {overhead}");
}

#[test]
fn idle_server_saves_about_41_percent_with_pc1a() {
    let mut shallow_cfg = ServerConfig::c_shallow().with_duration(SimDuration::from_millis(100));
    shallow_cfg.noise = None;
    let mut apc_cfg = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(100));
    apc_cfg.noise = None;
    // Effectively no load: 1 request per second.
    let base = run_experiment(shallow_cfg, WorkloadSpec::memcached_etc(), 1.0);
    let apc = run_experiment(apc_cfg, WorkloadSpec::memcached_etc(), 1.0);
    let saving = apc.power_saving_vs(&base);
    assert!(
        (saving - 0.41).abs() < 0.05,
        "idle saving {saving} should be ~0.41"
    );
    assert!(
        apc.pc1a_residency > 0.95,
        "residency {}",
        apc.pc1a_residency
    );
}

#[test]
fn cdeep_has_higher_latency_than_cshallow() {
    let shallow = quick(ServerConfig::c_shallow(), 20_000.0);
    let deep = quick(ServerConfig::c_deep(), 20_000.0);
    assert!(
        deep.latency.mean > shallow.latency.mean,
        "deep {} vs shallow {}",
        deep.latency.mean,
        shallow.latency.mean
    );
    // Deep C-states save power relative to the shallow baseline.
    assert!(deep.avg_soc_power < shallow.avg_soc_power);
}

#[test]
fn pc1a_residency_decreases_with_load() {
    let low = quick(ServerConfig::c_pc1a(), 4_000.0);
    let high = quick(ServerConfig::c_pc1a(), 100_000.0);
    assert!(
        low.pc1a_residency > high.pc1a_residency,
        "low {} high {}",
        low.pc1a_residency,
        high.pc1a_residency
    );
    assert!(
        low.pc1a_residency > 0.4,
        "low-load residency {}",
        low.pc1a_residency
    );
}

#[test]
fn throughput_tracks_offered_load() {
    let r = quick(ServerConfig::c_shallow(), 50_000.0);
    let achieved = r.throughput();
    assert!(
        (achieved - 50_000.0).abs() / 50_000.0 < 0.15,
        "achieved {achieved}"
    );
}

/// Golden pin: exact results for one seed/rate under every platform,
/// captured when the simulation was still one monolithic driver and kept
/// through every refactor since. The 1-node-cluster check in
/// `tests/cluster.rs` only proves the routing policies agree on the
/// *shared* node code path; these literals protect that path itself, so
/// any event-ordering or accounting change that shifts results — even
/// uniformly — fails loudly instead of silently breaking comparability
/// with previously published numbers. (If such a change is ever
/// intentional, re-capture these literals and say so in the commit.)
#[test]
fn golden_results_match_pre_refactor_capture() {
    // p99 literals re-captured when the latency recorder moved to the
    // quantile sketch: percentiles are sketch estimates now (<= 1 %
    // relative error, clamped to the exact min/max); completed counts and
    // means are exact and did not change. SoC W literals re-captured when
    // energy accounting became exact integer nW x ns: each moved by under
    // 1e-12 W (Cshallow +9.7e-13, Cdeep +4.4e-13, CPC1A +8.3e-13), the f64
    // rounding noise of the old per-interval float sums.
    let golden = [
        // (config, completed, mean ns, p99 ns, soc W, pc1a, pc6, idle periods, pc1a residency)
        (
            ServerConfig::c_shallow(),
            2792u64,
            160_938i64,
            226_468i64,
            50.18249155800001f64,
            0u64,
            0u64,
            478u64,
            0.0f64,
        ),
        // Cdeep re-captured when the idle governor's predicted-idle bound
        // gained the NIC's armed coalesced-delivery time: a core idling
        // inside the coalescing window no longer picks CC6 against a
        // known-imminent interrupt, so Cdeep serves with fewer CC6 wake
        // penalties (mean 199.2 -> 179.1 us, p99 328.6 -> 319.9 us) and
        // slightly lower SoC power (49.06 -> 47.70 W: the avoided wake
        // transitions and shorter busy tails outweigh the lost CC6
        // residency at this load). Cshallow/CPC1A (CC1-only governors) are
        // bit-identical to the pre-refactor capture.
        (
            ServerConfig::c_deep(),
            2791,
            179_053,
            318_180,
            47.701750616199995,
            0,
            2,
            175,
            0.0,
        ),
        (
            ServerConfig::c_pc1a(),
            2792,
            160_996,
            226_468,
            43.1933197912,
            632,
            0,
            478,
            0.42414232,
        ),
    ];
    for (config, completed, mean, p99, soc_w, pc1a, pc6, periods, residency) in golden {
        let r = run_experiment(
            config
                .with_duration(SimDuration::from_millis(50))
                .with_seed(7),
            WorkloadSpec::memcached_etc(),
            60_000.0,
        );
        let name = r.config_name;
        assert_eq!(r.completed_requests, completed, "{name}");
        assert_eq!(
            r.latency.mean,
            SimDuration::from_nanos(mean as u64),
            "{name}"
        );
        assert_eq!(r.latency.p99, SimDuration::from_nanos(p99 as u64), "{name}");
        assert_eq!(r.avg_soc_power.as_f64(), soc_w, "{name}");
        assert_eq!(r.pc1a_transitions, pc1a, "{name}");
        assert_eq!(r.pc6_transitions, pc6, "{name}");
        assert_eq!(r.idle_periods, periods, "{name}");
        assert_eq!(r.pc1a_residency, residency, "{name}");
    }
}
