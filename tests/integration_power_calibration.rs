//! Integration tests of the power calibration: the power model of the
//! socket the package flows bring to rest must reproduce Table 1 and
//! Sec. 5.4 of the paper, and the simulator's time-integrated power must
//! agree with it.

use apc::prelude::*;

/// SoC + DRAM power of the socket resting in `state`: DRAM at full
/// bandwidth in PC0 (Table 1's full-load row), idle otherwise.
fn resident_power(state: PackageCState) -> Watts {
    let utilization = if state == PackageCState::PC0 {
        1.0
    } else {
        0.0
    };
    PowerModel::skx_calibrated()
        .snapshot(&resident_soc(state), utilization)
        .total()
}

#[test]
fn table1_levels_are_reproduced() {
    let idle = resident_power(PackageCState::PC0Idle);
    let pc6 = resident_power(PackageCState::PC6);
    let pc1a = resident_power(PackageCState::PC1A);
    let pc0 = resident_power(PackageCState::PC0);

    assert!((idle.as_f64() - 49.5).abs() < 0.5, "PC0idle {idle}");
    assert!((pc6.as_f64() - 12.5).abs() < 0.5, "PC6 {pc6}");
    assert!((pc1a.as_f64() - 29.1).abs() < 0.5, "PC1A {pc1a}");
    assert!(pc0.as_f64() <= 92.5 && pc0.as_f64() > 85.0);
}

#[test]
fn transition_latencies_match_table1_scales() {
    let pc6 = flow_latency(PackageCState::PC6).round_trip();
    let pc1a = flow_latency(PackageCState::PC1A).round_trip();
    assert!(pc6 >= SimDuration::from_micros(50), "PC6 {pc6}");
    assert!(pc1a <= SimDuration::from_nanos(200), "PC1A {pc1a}");
    let ratio = pc6.as_nanos() as f64 / pc1a.as_nanos() as f64;
    assert!(ratio >= 250.0, "PC6/PC1A latency ratio {ratio}");
}

#[test]
fn eq2_eq3_derivation_matches_direct_model() {
    let model = PowerModel::skx_calibrated();
    let estimate = Pc1aPowerEstimate::of(&model);
    let direct = model.snapshot(&resident_soc(PackageCState::PC1A), 0.0);
    assert!((estimate.pc1a_soc().as_f64() - direct.soc_total().as_f64()).abs() < 1e-9);
    assert!((estimate.pc1a_dram().as_f64() - direct.dram.as_f64()).abs() < 1e-9);
    // Paper's component deltas.
    assert!((estimate.deltas.cores.as_f64() - 12.1).abs() < 0.2);
    assert!((estimate.deltas.ios.as_f64() - 3.5).abs() < 0.2);
    assert!((estimate.deltas.plls.as_f64() - 0.056).abs() < 0.01);
    assert!((estimate.deltas.dram.as_f64() - 1.1).abs() < 0.1);
}

#[test]
fn simulated_idle_power_matches_closed_form_budget() {
    // Run the simulator with no load and no background noise under each
    // configuration and compare against the resident socket's power.
    let cases = [
        (ServerConfig::c_shallow(), PackageCState::PC0Idle),
        (ServerConfig::c_pc1a(), PackageCState::PC1A),
    ];
    for (config, state) in cases {
        let mut config = config.with_duration(SimDuration::from_millis(100));
        config.noise = None;
        let result = run_experiment(config, WorkloadSpec::memcached_etc(), 1.0);
        let expected = resident_power(state).as_f64();
        let measured = result.avg_total_power().as_f64();
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "{state:?}: measured {measured} vs expected {expected}"
        );
    }
}

#[test]
fn uncore_and_dram_dominate_idle_power() {
    // Sec. 2: uncore + DRAM account for > 65 % of SoC+DRAM power when all
    // cores idle in CC1.
    let model = PowerModel::skx_calibrated();
    let mut soc = SkxSoc::xeon_silver_4114();
    soc.force_all_cores(CoreCState::CC1);
    let snapshot = model.snapshot(&soc, 0.0);
    assert!(snapshot.uncore_and_dram_fraction() > 0.65);
}

#[test]
fn area_overhead_stays_under_0_75_percent() {
    let report = ApcAreaModel::skx().report();
    assert!(report.total_percent() < 0.75);
    assert!(report.total_percent() > 0.01);
}
