//! Sketch-vs-exact differential suite: for every fixed-seed golden config,
//! re-derive the *exact* latency sample set and pin the sketch summary
//! against it, percentile by percentile.
//!
//! The latency recorder no longer retains samples, so the exact distribution
//! has to come from somewhere else: tracing. With `TraceConfig::new(1)`
//! every arriving request is head-sampled, and on a single server every
//! completed client-visible request closes exactly one [`SpanKind::Root`]
//! span covering its server-side time `(arrival, completion)`. The recorded
//! latency for that request is server-side time plus the workload's constant
//! client RTT, so `root.duration() + spec.network_rtt` reconstructs the
//! recorded sample *exactly* — the memcached mix has no background class, so
//! the root-span set and the recorded-sample multiset are the same multiset
//! (asserted via `completed_requests`).
//!
//! Those sorted samples give the exact statistics and a lower nearest-rank
//! quantile. The suite then checks, per config:
//!
//! - `count`, `max` and `mean` are exact (the sketch's headline guarantee);
//! - each of p50/p95/p99/p999 is within the sketch's 1 % relative-error
//!   contract of the exact lower nearest-rank quantile;
//! - the exact and sketch values both equal pinned literals, so the
//!   per-percentile deltas themselves are golden — any drift in either the
//!   simulation or the sketch shows up as a changed literal, not as silent
//!   movement inside the error band.

use apc_server::config::ServerConfig;
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_trace::{SpanKind, TraceConfig};
use apc_workloads::spec::WorkloadSpec;

const QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// One golden config: duration (ms), offered rate, and the pinned
/// `[p50, p95, p99, p999]` pairs — exact lower nearest-rank on the left,
/// sketch estimate on the right.
struct Golden {
    config: fn() -> ServerConfig,
    duration_ms: u64,
    rate: f64,
    exact: [u64; 4],
    sketch: [u64; 4],
}

/// Captured with seed 7. The 50 ms points are the `simulation.rs` golden
/// trio; the 2 ms point is the `export_golden.rs` spec. Re-capture together
/// with those suites if a behavioural change is intentional.
const GOLDENS: [Golden; 4] = [
    Golden {
        config: ServerConfig::c_shallow,
        duration_ms: 50,
        rate: 60_000.0,
        exact: [158_882, 192_897, 226_197, 316_901],
        sketch: [158_000, 192_983, 226_468, 318_180],
    },
    Golden {
        config: ServerConfig::c_deep,
        duration_ms: 50,
        rate: 60_000.0,
        exact: [163_451, 294_907, 319_775, 413_667],
        sketch: [164_448, 293_716, 318_180, 412_661],
    },
    Golden {
        config: ServerConfig::c_pc1a,
        duration_ms: 50,
        rate: 60_000.0,
        exact: [158_905, 192_917, 226_197, 317_055],
        sketch: [158_000, 192_983, 226_468, 318_180],
    },
    Golden {
        config: ServerConfig::c_pc1a,
        duration_ms: 2,
        rate: 20_000.0,
        exact: [161_398, 202_717, 207_018, 207_018],
        sketch: [161_192, 200_859, 209_056, 209_056],
    },
];

/// Runs `golden`'s experiment with every request traced and reconstructs the
/// exact recorded-latency multiset from the root spans, sorted ascending.
fn run_with_exact_samples(golden: &Golden) -> (RunResult, Vec<u64>) {
    let spec = WorkloadSpec::memcached_etc();
    let rtt = spec.network_rtt;
    let r = run_experiment(
        (golden.config)()
            .with_duration(SimDuration::from_millis(golden.duration_ms))
            .with_seed(7)
            .with_trace(TraceConfig::new(1)),
        spec,
        golden.rate,
    );
    let trace = r.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.dropped(), 0, "span log must hold the whole run");
    let mut samples: Vec<u64> = trace
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Root)
        .map(|s| (s.duration() + rtt).as_nanos())
        .collect();
    samples.sort_unstable();
    (r, samples)
}

/// Lower nearest-rank quantile, the sketch's reference convention.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[(q * (sorted.len() - 1) as f64).floor() as usize]
}

#[test]
fn sketch_summary_matches_exact_samples_on_every_golden_config() {
    for golden in &GOLDENS {
        let (r, samples) = run_with_exact_samples(golden);
        let name = r.config_name;
        let label = format!("{name} @{} for {} ms", golden.rate, golden.duration_ms);

        // The root-span multiset IS the recorded-sample multiset.
        assert_eq!(samples.len() as u64, r.completed_requests, "{label}: count");
        assert_eq!(r.latency.count, samples.len(), "{label}: summary count");

        // Exact statistics: max bit-exact, mean to the same rounding the
        // summary applies (sum and count are carried exactly).
        assert_eq!(
            r.latency.max,
            SimDuration::from_nanos(*samples.last().unwrap()),
            "{label}: max"
        );
        let sum: u128 = samples.iter().map(|&v| u128::from(v)).sum();
        let mean = (sum as f64 / samples.len() as f64).round() as u64;
        assert_eq!(
            r.latency.mean,
            SimDuration::from_nanos(mean),
            "{label}: mean"
        );

        // Per-percentile: contract bound AND pinned literals on both sides.
        let summary = [r.latency.p50, r.latency.p95, r.latency.p99, r.latency.p999];
        for (i, q) in QUANTILES.into_iter().enumerate() {
            let exact = exact_quantile(&samples, q);
            let estimate = summary[i].as_nanos();
            let delta = estimate.abs_diff(exact) as f64;
            assert!(
                delta <= 0.01 * exact as f64 + 1.0,
                "{label}: q={q} exact={exact} sketch={estimate} (delta {delta})"
            );
            assert_eq!(exact, golden.exact[i], "{label}: exact q={q}");
            assert_eq!(estimate, golden.sketch[i], "{label}: sketch q={q}");
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_result() {
    // The differential route only proves anything if turning tracing on
    // leaves the simulated behaviour untouched: same seed with and without
    // tracing must produce identical summaries.
    let run = |trace: bool| {
        let mut config = ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(2))
            .with_seed(7);
        if trace {
            config = config.with_trace(TraceConfig::new(1));
        }
        run_experiment(config, WorkloadSpec::memcached_etc(), 20_000.0)
    };
    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.latency, traced.latency);
    assert_eq!(plain.completed_requests, traced.completed_requests);
    assert_eq!(plain.avg_soc_power, traced.avg_soc_power);
}
