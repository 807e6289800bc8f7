//! Event-core benchmarks: the calendar [`EventQueue`] in isolation, plus
//! the end-to-end cluster simulation whose event loop it powers.
//!
//! Unlike the figure benches this harness writes a machine-readable result
//! file, `BENCH_event_core.json` at the repository root, so the measured
//! numbers ride along with the code that produced them:
//!
//! ```text
//! cargo bench -p apc-bench --bench event_core            # full run, writes JSON
//! cargo bench -p apc-bench --bench event_core -- --smoke # CI smoke: seconds, no JSON
//! ```
//!
//! Sections:
//!
//! * `event_queue` micro — steady-state churn (pop one, schedule one) at
//!   16, 512 and 4,096 pending events: from a single server's run to a
//!   256-node cluster's boot. Delays follow the mix recorded from the
//!   simulator's own queue traffic: 44 % at the current instant, 4 % under
//!   64 ns, 28 % under 4.1 µs, 19 % under 262 µs and 5 % under 16.8 ms,
//!   drawn from the crate's deterministic xoshiro streams, so every run
//!   sees the identical operation sequence. Beside it, a `burst`: 100,000
//!   ties scheduled into one future calendar slot, then popped out. The
//!   calendar keeps each slot's list in delivery order and appends ties
//!   through the slot's tail; an insert that walked the list instead would
//!   make this row quadratic, and the smoke run with it.
//! * `cluster_scale` — wall-clock per 20 ms of simulated time for
//!   1/4/8/16/32/64 server nodes in one event loop (JSQ, 20k req/s per
//!   node), with the dispatched-event count from
//!   [`ClusterResult::events_dispatched`] turned into an end-to-end
//!   events/second figure. Flat events/s from 1 to 64 nodes means the
//!   per-event cost does not grow with the cluster.
//!
//! Wall-clock numbers take the minimum over several repeats: the minimum is
//! the least noise-contaminated estimate on a shared container.

#![allow(missing_docs)]

use std::time::Instant;

use apc_server::balancer::RoutingPolicyKind;
use apc_server::cluster::{run_cluster_experiment, ClusterResult};
use apc_server::config::ServerConfig;
use apc_sim::engine::{EventQueue, QueueCounters};
use apc_sim::{SimDuration, SimRng, SimTime};
use apc_workloads::spec::WorkloadSpec;

/// Simulated window per cluster iteration.
const WINDOW: SimDuration = SimDuration::from_millis(20);
/// Offered load per cluster node.
const RATE_PER_NODE: f64 = 20_000.0;

/// One micro-benchmark measurement: `ops` queue operations in `secs`.
struct Measure {
    ops: u64,
    secs: f64,
}

impl Measure {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.secs
    }
}

/// Runs `f` `repeats` times and keeps the fastest run.
fn fastest(repeats: usize, mut f: impl FnMut() -> Measure) -> Measure {
    let mut best: Option<Measure> = None;
    for _ in 0..repeats {
        let m = f();
        if best.as_ref().map_or(true, |b| m.secs < b.secs) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

/// A timestamp drawn from the delay mix of the simulator's queue traffic
/// (percent of schedules per delay band).
fn next_time(rng: &mut SimRng, now: SimTime) -> SimTime {
    let (low, high) = match rng.index(100) {
        0..=43 => return now,
        44..=47 => (1, 64),
        48..=75 => (64, 4_096),
        76..=94 => (4_096, 262_144),
        _ => (262_144, 16_777_216),
    };
    SimTime::from_nanos(now.as_nanos() + low + rng.next_u64() % (high - low))
}

/// Steady-state churn at `depth` pending events: `pops` pop-one /
/// schedule-one pairs after an untimed fill.
fn churn(depth: u64, pops: u64, seed: u64) -> Measure {
    let mut rng = SimRng::from_seed(seed);
    let mut q = EventQueue::new();
    for i in 0..depth {
        let at = next_time(&mut rng, q.now());
        q.schedule(at, i);
    }
    let start = Instant::now();
    for i in 0..pops {
        let (_, _) = q.pop().expect("the queue holds `depth` events");
        let at = next_time(&mut rng, q.now());
        q.schedule(at, i);
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(q.len() as u64, depth);
    Measure {
        ops: 2 * pops,
        secs,
    }
}

/// `ties` events scheduled at one instant in a future calendar slot, then
/// popped out: one operation per schedule and per pop.
fn burst(ties: u64) -> Measure {
    let mut q = EventQueue::new();
    let at = SimTime::from_nanos(5_000);
    let start = Instant::now();
    for i in 0..ties {
        q.schedule(at, i);
    }
    let mut popped = 0;
    while let Some((_, i)) = q.pop() {
        assert_eq!(i, popped, "ties come back in scheduling order");
        popped += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(popped, ties);
    Measure {
        ops: 2 * ties,
        secs,
    }
}

/// One timed cluster run; the result carries the dispatched-event census.
fn cluster_run(nodes: usize) -> (f64, ClusterResult) {
    let base = ServerConfig::c_pc1a().with_duration(WINDOW);
    let start = Instant::now();
    let result = run_cluster_experiment(
        &base,
        nodes,
        RoutingPolicyKind::JoinShortestQueue,
        WorkloadSpec::memcached_etc(),
        RATE_PER_NODE * nodes as f64,
    );
    (start.elapsed().as_secs_f64(), result)
}

/// One untimed profiled run of the same configuration: the self-profiler's
/// engine counters (dispatch batches, overflow hits) for the row. Kept
/// out of the timed runs so the report never contaminates the wall clock.
fn cluster_profile(nodes: usize) -> QueueCounters {
    let base = ServerConfig::c_pc1a().with_duration(WINDOW).with_profile();
    let result = run_cluster_experiment(
        &base,
        nodes,
        RoutingPolicyKind::JoinShortestQueue,
        WorkloadSpec::memcached_etc(),
        RATE_PER_NODE * nodes as f64,
    );
    result
        .profile
        .expect("profiled run carries a report")
        .engine
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `cargo bench` forwards `--bench`; a figure-style filter is not
    // supported here, everything always runs.
    let (depths, pops, repeats, cluster_nodes, cluster_repeats): (
        &[u64],
        u64,
        usize,
        &[usize],
        usize,
    ) = if smoke {
        (&[512], 200_000, 2, &[8], 2)
    } else {
        (&[16, 512, 4_096], 2_000_000, 5, &[1, 4, 8, 16, 32, 64], 10)
    };

    let mut micro_json = Vec::new();
    println!("event_queue micro ({repeats} repeats, min; {pops} pop/schedule pairs):");
    for &depth in depths {
        let m = fastest(repeats, || churn(depth, pops, 0xec0 + depth));
        println!(
            "  {depth:>5} pending, churn {:>6.1} Mops/s",
            m.ops_per_sec() / 1e6,
        );
        micro_json.push(format!(
            "    {{\"pending_events\": {depth}, \"pattern\": \"churn\", \"ops_per_sec\": {:.0}}}",
            m.ops_per_sec(),
        ));
    }
    let ties = 100_000;
    let m = fastest(repeats, || burst(ties));
    println!(
        "  {ties:>5} ties in one slot, burst {:>6.1} Mops/s",
        m.ops_per_sec() / 1e6,
    );
    micro_json.push(format!(
        "    {{\"pending_events\": {ties}, \"pattern\": \"burst\", \"ops_per_sec\": {:.0}}}",
        m.ops_per_sec(),
    ));

    let mut cluster_json = Vec::new();
    println!(
        "cluster_scale ({} repeats, min; 20 ms simulated, JSQ, memcached_etc):",
        cluster_repeats
    );
    for &nodes in cluster_nodes {
        let mut walls = Vec::with_capacity(cluster_repeats);
        let mut events = 0u64;
        for _ in 0..cluster_repeats {
            let (secs, result) = cluster_run(nodes);
            walls.push(secs);
            events = result.events_dispatched;
        }
        let min = walls.iter().copied().fold(f64::MAX, f64::min);
        let ms_per_20ms = min * 1e3;
        let events_per_sec = events as f64 / min;
        let engine = cluster_profile(nodes);
        assert_eq!(
            engine.dispatched, events,
            "the self-profiler must not perturb the dispatched-event census"
        );
        println!(
            "  {nodes:>2} nodes: {ms_per_20ms:>7.3} ms per 20 ms sim   {events:>6} events   \
             {:>6.2} M events/s   {:>5} batches (max {:>3})   {:>4} overflow",
            events_per_sec / 1e6,
            engine.level0_batches,
            engine.max_batch,
            engine.overflow_hits,
        );
        cluster_json.push(format!(
            concat!(
                "    {{\"nodes\": {}, \"ms_per_20ms_sim\": {:.3}, ",
                "\"events_dispatched\": {}, \"events_per_sec\": {:.0}, ",
                "\"events_scheduled\": {}, ",
                "\"level0_batches\": {}, \"max_batch\": {}, \"overflow_hits\": {}}}"
            ),
            nodes,
            ms_per_20ms,
            events,
            events_per_sec,
            engine.scheduled,
            engine.level0_batches,
            engine.max_batch,
            engine.overflow_hits,
        ));
    }

    if smoke {
        println!("smoke mode: skipping BENCH_event_core.json");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"event_core\",\n",
            "  \"host_cores\": {},\n",
            "  \"methodology\": \"min over repeats on a shared container; ",
            "micro: {} repeats of {} pop/schedule pairs after an untimed fill, ",
            "delays from the traced mix (44% now, 4% <64 ns, 28% <4.1 us, ",
            "19% <262 us, 5% <16.8 ms), and a burst of 100000 ties scheduled ",
            "into one future slot, then popped; cluster: {} repeats; ",
            "xoshiro-seeded operation sequences; ",
            "batch/overflow counters from one untimed ",
            "self-profiled run per row\",\n",
            "  \"event_queue_micro\": [\n{}\n  ],\n",
            "  \"cluster_scale\": [\n{}\n  ]\n",
            "}}\n"
        ),
        std::thread::available_parallelism().map_or(1, usize::from),
        repeats,
        pops,
        cluster_repeats,
        micro_json.join(",\n"),
        cluster_json.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_event_core.json");
    std::fs::write(path, &json).expect("write BENCH_event_core.json");
    println!("wrote {path}");
}
