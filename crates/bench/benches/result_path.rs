//! Result-path benchmarks: the bounded-memory quantile sketch against the
//! retained-samples baseline it replaced, plus the end-to-end cluster
//! record path the sketch now sits on.
//!
//! Like `event_core`, this harness writes a machine-readable result file,
//! `BENCH_result_path.json` at the repository root:
//!
//! ```text
//! cargo bench -p apc-bench --bench result_path            # full run, writes JSON
//! cargo bench -p apc-bench --bench result_path -- --smoke # CI smoke: seconds, no JSON
//! ```
//!
//! Sections:
//!
//! * `recorder_micro` — record throughput and summary cost for 10^4..10^7
//!   latency samples, sketch vs a retained `Vec<u64>` (push then sort at
//!   summary time, the shape of the pre-sketch recorder), with the payload
//!   bytes each holds at the end. The sample stream is the lognormal-ish
//!   mixture the simulator produces; both recorders see identical values.
//! * `cluster_record_path` — wall-clock per 20 ms of simulated time for an
//!   8-node cluster (`event_core`'s `cluster_scale` configuration): every
//!   completed request crosses the latency recorder, so a regression in
//!   the sketch's record path shows up directly in this row.
//!
//! Wall-clock numbers take the minimum over several repeats: the minimum is
//! the least noise-contaminated estimate on a shared container.

#![allow(missing_docs)]

use std::time::Instant;

use apc_server::balancer::RoutingPolicyKind;
use apc_server::cluster::{run_cluster_experiment, ClusterResult};
use apc_server::config::ServerConfig;
use apc_sim::{SimDuration, SimRng};
use apc_telemetry::sketch::QuantileSketch;
use apc_workloads::spec::WorkloadSpec;

/// Simulated window per cluster iteration (matches `event_core`).
const WINDOW: SimDuration = SimDuration::from_millis(20);
/// Offered load per cluster node (matches `event_core`).
const RATE_PER_NODE: f64 = 20_000.0;
const CLUSTER_NODES: usize = 8;

/// A latency-shaped sample stream: body around 100 us with a heavy tail,
/// the same mixture the simulator's completed requests produce.
fn samples(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SimRng::from_seed(seed);
    (0..n)
        .map(|_| {
            let ln = rng.standard_normal() * 0.8 + (120_000.0f64).ln();
            (ln.exp() as u64).max(1)
        })
        .collect()
}

struct RecorderMeasure {
    /// Nanoseconds per `record` call.
    record_ns: f64,
    /// Nanoseconds for one summary (quantile queries; sort for retained).
    summary_ns: f64,
    /// Payload bytes held once all samples are recorded.
    payload_bytes: usize,
    /// The p999 estimate, kept so the optimizer cannot drop the work.
    p999: u64,
}

/// Runs `f` `repeats` times and keeps the run with the fastest record phase.
fn fastest(repeats: usize, mut f: impl FnMut() -> RecorderMeasure) -> RecorderMeasure {
    let mut best: Option<RecorderMeasure> = None;
    for _ in 0..repeats {
        let m = f();
        if best.as_ref().map_or(true, |b| m.record_ns < b.record_ns) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn sketch_measure(values: &[u64]) -> RecorderMeasure {
    let mut sketch = QuantileSketch::new();
    let start = Instant::now();
    for &v in values {
        sketch.record(v);
    }
    let record_ns = start.elapsed().as_nanos() as f64 / values.len() as f64;
    let start = Instant::now();
    let p999 = sketch.quantile(0.999).expect("non-empty");
    let summary_ns = start.elapsed().as_nanos() as f64;
    // One occupied bucket is an (i32 index, u64 count) entry.
    let payload_bytes = sketch.bucket_len() * (4 + 8);
    RecorderMeasure {
        record_ns,
        summary_ns,
        payload_bytes,
        p999,
    }
}

fn retained_measure(values: &[u64]) -> RecorderMeasure {
    let mut retained: Vec<u64> = Vec::new();
    let start = Instant::now();
    for &v in values {
        retained.push(v);
    }
    let record_ns = start.elapsed().as_nanos() as f64 / values.len() as f64;
    let start = Instant::now();
    retained.sort_unstable();
    let p999 = retained[(0.999 * (retained.len() - 1) as f64).floor() as usize];
    let summary_ns = start.elapsed().as_nanos() as f64;
    let payload_bytes = retained.capacity() * std::mem::size_of::<u64>();
    RecorderMeasure {
        record_ns,
        summary_ns,
        payload_bytes,
        p999,
    }
}

/// One timed cluster run; the result carries the completed-request census.
fn cluster_run() -> (f64, ClusterResult) {
    let base = ServerConfig::c_pc1a().with_duration(WINDOW);
    let start = Instant::now();
    let result = run_cluster_experiment(
        &base,
        CLUSTER_NODES,
        RoutingPolicyKind::JoinShortestQueue,
        WorkloadSpec::memcached_etc(),
        RATE_PER_NODE * CLUSTER_NODES as f64,
    );
    (start.elapsed().as_secs_f64(), result)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let (sizes, repeats, cluster_repeats): (&[usize], usize, usize) = if smoke {
        (&[10_000], 2, 2)
    } else {
        (&[10_000, 100_000, 1_000_000, 10_000_000], 5, 10)
    };

    let mut micro_json = Vec::new();
    println!("recorder micro ({repeats} repeats, min):");
    for &n in sizes {
        let values = samples(n, 0x5e7 + n as u64);
        let sketch = fastest(repeats, || sketch_measure(&values));
        let retained = fastest(repeats, || retained_measure(&values));
        // The sketch's contract against the exact stream, kept honest even
        // here: within 1 % of the retained recorder's exact p999.
        let delta = sketch.p999.abs_diff(retained.p999) as f64;
        assert!(
            delta <= 0.01 * retained.p999 as f64 + 1.0,
            "sketch p999 {} vs exact {} at n={n}",
            sketch.p999,
            retained.p999
        );
        println!(
            "  {n:>9} samples: sketch {:>5.1} ns/record, {:>8} B   \
             retained {:>5.1} ns/record, {:>10} B   ({:.0}x smaller)",
            sketch.record_ns,
            sketch.payload_bytes,
            retained.record_ns,
            retained.payload_bytes,
            retained.payload_bytes as f64 / sketch.payload_bytes as f64,
        );
        micro_json.push(format!(
            concat!(
                "    {{\"samples\": {}, ",
                "\"sketch_record_ns\": {:.2}, \"sketch_summary_ns\": {:.0}, ",
                "\"sketch_payload_bytes\": {}, ",
                "\"retained_record_ns\": {:.2}, \"retained_summary_ns\": {:.0}, ",
                "\"retained_payload_bytes\": {}, ",
                "\"memory_ratio\": {:.1}}}"
            ),
            n,
            sketch.record_ns,
            sketch.summary_ns,
            sketch.payload_bytes,
            retained.record_ns,
            retained.summary_ns,
            retained.payload_bytes,
            retained.payload_bytes as f64 / sketch.payload_bytes as f64,
        ));
    }

    println!(
        "cluster_record_path ({cluster_repeats} repeats, min; 20 ms simulated, 8 nodes, JSQ):"
    );
    let mut walls = Vec::with_capacity(cluster_repeats);
    let mut completed = 0u64;
    let mut p99 = SimDuration::ZERO;
    for _ in 0..cluster_repeats {
        let (secs, result) = cluster_run();
        walls.push(secs);
        completed = result.nodes.total_completed_requests();
        p99 = result.nodes.combined_latency().p99;
    }
    let min = walls.iter().copied().fold(f64::MAX, f64::min);
    let ms_per_20ms = min * 1e3;
    println!(
        "  {CLUSTER_NODES} nodes: {ms_per_20ms:>7.3} ms per 20 ms sim   \
         {completed} completed   p99 {p99}"
    );
    let cluster_json = format!(
        concat!(
            "    {{\"nodes\": {}, \"ms_per_20ms_sim\": {:.3}, ",
            "\"completed_requests\": {}, \"p99_ns\": {}}}"
        ),
        CLUSTER_NODES,
        ms_per_20ms,
        completed,
        p99.as_nanos(),
    );

    if smoke {
        println!("smoke mode: skipping BENCH_result_path.json");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"result_path\",\n",
            "  \"methodology\": \"min over repeats on a shared container; ",
            "micro: {} repeats over identical xoshiro-seeded lognormal samples ",
            "for both recorders; retained baseline is Vec<u64> push + ",
            "sort-at-summary, the pre-sketch recorder shape; cluster row is ",
            "the tier-1 cluster_scale configuration, every completed request ",
            "crossing the sketch record path\",\n",
            "  \"recorder_micro\": [\n{}\n  ],\n",
            "  \"cluster_record_path\": [\n{}\n  ]\n",
            "}}\n"
        ),
        repeats,
        micro_json.join(",\n"),
        cluster_json,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_result_path.json");
    std::fs::write(path, &json).expect("write BENCH_result_path.json");
    println!("wrote {path}");
}
