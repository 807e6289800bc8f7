//! Behavioural tests of the time-series telemetry sink.

use apc_server::config::ServerConfig;
use apc_server::sim::run_experiment;
use apc_sim::{SimDuration, SimTime};
use apc_workloads::spec::WorkloadSpec;

fn run(config: ServerConfig) -> apc_server::result::RunResult {
    run_experiment(
        config
            .with_duration(SimDuration::from_millis(5))
            .with_seed(7),
        WorkloadSpec::memcached_etc(),
        40_000.0,
    )
}

#[test]
fn sampler_records_one_sample_per_interval() {
    let every = SimDuration::from_micros(100);
    let result = run(ServerConfig::c_pc1a().with_timeseries(every));
    let ts = result.timeseries.as_ref().expect("series enabled");
    assert_eq!(ts.interval(), every);
    // Samples at 0, 100 us, ..., strictly below the 5 ms horizon.
    assert_eq!(ts.len(), 50, "got {} samples", ts.len());
    for (i, s) in ts.samples().iter().enumerate() {
        assert_eq!(s.at, SimTime::ZERO + every.mul_f64(i as f64));
        assert!(s.soc_power_w > 0.0);
    }
}

#[test]
fn soc_power_is_the_metered_level_in_whole_nanowatts() {
    // The sampler reports the integer level the energy meter integrates, so
    // every value is a whole number of nanowatts and prints with at most
    // nine decimals, whichever cores are busy (a float sum over the cores
    // printed one level as both 52.196 and 52.19599999999999).
    let result = run(ServerConfig::c_pc1a().with_timeseries(SimDuration::from_micros(20)));
    let ts = result.timeseries.expect("series enabled");
    for s in ts.samples() {
        let watts = s.soc_power_w;
        assert_eq!((watts * 1e9).round() / 1e9, watts, "at {}", s.at);
        let printed = watts.to_string();
        let decimals = printed.split_once('.').map_or(0, |(_, d)| d.len());
        assert!(decimals <= 9, "{printed} at {}", s.at);
    }
}

#[test]
fn residency_deltas_tile_the_sampling_interval() {
    let every = SimDuration::from_micros(200);
    let result = run(ServerConfig::c_pc1a().with_timeseries(every));
    let ts = result.timeseries.expect("series enabled");
    // Skip the t = 0 sample (its "interval" is empty); every later sample's
    // four deltas must sum exactly to the interval they cover.
    for s in &ts.samples()[1..] {
        let sum = s.pc0_delta + s.pc0_idle_delta + s.pc1a_delta + s.pc6_delta;
        assert_eq!(sum, every, "deltas at {} sum to {sum}", s.at);
    }
    // Under CPC1A at moderate load the node visits PC1A within the window.
    let pc1a_total: SimDuration = ts.samples().iter().map(|s| s.pc1a_delta).sum();
    assert!(pc1a_total > SimDuration::ZERO);
}

#[test]
fn sampler_never_perturbs_request_level_outcomes() {
    let plain = run(ServerConfig::c_pc1a());
    let sampled = run(ServerConfig::c_pc1a().with_timeseries(SimDuration::from_micros(100)));
    assert!(plain.timeseries.is_none());
    // The sampler only reads state: every discrete outcome is identical.
    assert_eq!(plain.completed_requests, sampled.completed_requests);
    assert_eq!(plain.latency, sampled.latency);
    assert_eq!(plain.pc1a_transitions, sampled.pc1a_transitions);
    assert_eq!(plain.pc6_transitions, sampled.pc6_transitions);
    assert_eq!(plain.idle_periods, sampled.idle_periods);
    assert_eq!(plain.pc1a_residency, sampled.pc1a_residency);
}

#[test]
fn queue_depth_tracks_load() {
    let result = run(ServerConfig::c_shallow().with_timeseries(SimDuration::from_micros(50)));
    let ts = result.timeseries.expect("series enabled");
    // At 40 K QPS some samples must catch requests in flight.
    assert!(ts.samples().iter().any(|s| s.queue_depth > 0));
    assert!(ts.samples().iter().any(|s| s.busy_cores > 0));
}

#[test]
fn zero_interval_disables_the_series() {
    let result = run(ServerConfig::c_pc1a().with_timeseries(SimDuration::ZERO));
    assert!(result.timeseries.is_none());
}
