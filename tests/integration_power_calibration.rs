//! Integration tests of the power calibration: the composed package-state
//! budgets must reproduce Table 1 and Sec. 5.4 of the paper, and the
//! simulator's time-integrated power must agree with the closed-form budgets.

use apc::power::budget::PackageStatePower;
use apc::prelude::*;
use apc::soc::cstate::PackageCState;

#[test]
fn table1_levels_are_reproduced() {
    let b = PackageStatePower::skx_reference();
    let idle = b.state_power(PackageCState::PC0Idle);
    let pc6 = b.state_power(PackageCState::PC6);
    let pc1a = b.state_power(PackageCState::PC1A);
    let pc0 = b.pc0_power();

    assert!(
        (idle.total().as_f64() - 49.5).abs() < 0.5,
        "PC0idle {}",
        idle.total()
    );
    assert!(
        (pc6.total().as_f64() - 12.5).abs() < 0.5,
        "PC6 {}",
        pc6.total()
    );
    assert!(
        (pc1a.total().as_f64() - 29.1).abs() < 0.5,
        "PC1A {}",
        pc1a.total()
    );
    assert!(pc0.total().as_f64() <= 92.5 && pc0.total().as_f64() > 85.0);
}

#[test]
fn transition_latencies_match_table1_scales() {
    assert!(PackageCState::PC6.transition_latency() >= SimDuration::from_micros(50));
    assert!(PackageCState::PC1A.transition_latency() <= SimDuration::from_nanos(200));
    let ratio = PackageCState::PC6.transition_latency().as_nanos() as f64
        / PackageCState::PC1A.transition_latency().as_nanos() as f64;
    assert!(ratio >= 250.0, "PC6/PC1A latency ratio {ratio}");
}

#[test]
fn eq2_eq3_derivation_matches_direct_model() {
    let estimate = Pc1aPowerEstimator::skx_reference().estimate();
    let direct = PackageStatePower::skx_reference().state_power(PackageCState::PC1A);
    assert!((estimate.pc1a.soc.as_f64() - direct.soc.as_f64()).abs() < 1e-9);
    assert!((estimate.pc1a.dram.as_f64() - direct.dram.as_f64()).abs() < 1e-9);
    // Paper's component deltas.
    assert!((estimate.deltas.cores.as_f64() - 12.1).abs() < 0.2);
    assert!((estimate.deltas.ios.as_f64() - 3.5).abs() < 0.2);
    assert!((estimate.deltas.plls.as_f64() - 0.056).abs() < 0.01);
    assert!((estimate.deltas.dram.as_f64() - 1.1).abs() < 0.1);
}

#[test]
fn simulated_idle_power_matches_closed_form_budget() {
    // Run the simulator with no load and no background noise under each
    // configuration and compare against the closed-form budget.
    let budget = PackageStatePower::skx_reference();
    let cases = [
        (ServerConfig::c_shallow(), PackageCState::PC0Idle),
        (ServerConfig::c_pc1a(), PackageCState::PC1A),
    ];
    for (config, state) in cases {
        let mut config = config.with_duration(SimDuration::from_millis(100));
        config.noise = None;
        let result = run_experiment(config, WorkloadSpec::memcached_etc(), 1.0);
        let expected = budget.state_power(state).total().as_f64();
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
