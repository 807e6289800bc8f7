//! Observability-layer tests: request tracing and the engine self-profiler
//! must never perturb a simulation. Every shape (single, cluster, chain,
//! and both over a network fabric) is run twice — observability on and
//! off — and the results, stripped of the trace log and profile report
//! themselves, must be **bit-identical**. A second group checks the span
//! trees: the pipeline spans of every traced request are contiguous and
//! sum exactly to its end-to-end latency, with wake spans named after the
//! C-state they exit.

use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{run_chain_experiment, ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{run_cluster_experiment, ClusterFleet, ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_trace::{Span, SpanKind, TraceConfig, TraceLog};
use apc_workloads::chain::TierService;
use apc_workloads::spec::WorkloadSpec;

/// Trace every root request, with profiling on.
fn observed(config: &ServerConfig) -> ServerConfig {
    config
        .clone()
        .with_trace(TraceConfig::new(1))
        .with_profile()
}

fn strip_run(mut r: RunResult) -> RunResult {
    r.trace = None;
    r.profile = None;
    r
}

fn strip_cluster(mut c: ClusterResult) -> ClusterResult {
    c.trace = None;
    c.profile = None;
    c
}

fn strip_chain(mut c: ChainResult) -> ChainResult {
    c.trace = None;
    c.profile = None;
    c
}

fn platforms() -> [ServerConfig; 3] {
    [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ]
}

#[test]
fn tracing_never_perturbs_single_runs() {
    for base in platforms() {
        let config = base
            .with_duration(SimDuration::from_millis(30))
            .with_seed(5);
        let plain = run_experiment(config.clone(), WorkloadSpec::memcached_etc(), 40_000.0);
        let traced = run_experiment(observed(&config), WorkloadSpec::memcached_etc(), 40_000.0);
        assert!(
            !traced
                .trace
                .as_ref()
                .expect("trace log collected")
                .is_empty(),
            "tracing every request on {} collected nothing",
            plain.config_name
        );
        assert!(traced.profile.is_some(), "profiling produced no report");
        assert!(plain.trace.is_none() && plain.profile.is_none());
        assert_eq!(
            strip_run(traced),
            plain,
            "tracing perturbed a single run on {}",
            plain.config_name
        );
    }
}

#[test]
fn tracing_never_perturbs_cluster_runs() {
    for base in platforms() {
        let config = base
            .with_duration(SimDuration::from_millis(20))
            .with_seed(11);
        for policy in RoutingPolicyKind::all() {
            let run = |c: &ServerConfig| {
                run_cluster_experiment(c, 3, policy, WorkloadSpec::memcached_etc(), 45_000.0)
            };
            let plain = run(&config);
            let traced = run(&observed(&config));
            assert!(!traced.trace.as_ref().expect("trace log").is_empty());
            assert!(traced.profile.is_some());
            assert_eq!(
                strip_cluster(traced),
                plain,
                "tracing perturbed a {} cluster",
                policy.name()
            );
        }
    }
}

#[test]
fn tracing_never_perturbs_chain_runs() {
    let graph = RequestGraph::fanout(TierService::frontend(), TierService::memcached_leaf(), 4);
    for base in platforms() {
        let config = base
            .with_duration(SimDuration::from_millis(20))
            .with_seed(3);
        for policy in RoutingPolicyKind::all() {
            let run = |c: &ServerConfig| run_chain_experiment(c, 3, policy, graph.clone(), 8_000.0);
            let plain = run(&config);
            let traced = run(&observed(&config));
            assert!(!traced.trace.as_ref().expect("trace log").is_empty());
            assert!(traced.profile.is_some());
            assert_eq!(
                strip_chain(traced),
                plain,
                "tracing perturbed a {} chain",
                policy.name()
            );
        }
    }
}

/// The zero-perturbation check with nonzero wire delay: over a two-tier
/// fabric with 5 us links every routed RPC and every leaf report is a
/// scheduled wire delivery, and the traced spans include the wire hops.
#[test]
fn tracing_never_perturbs_fabric_runs() {
    let base = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(20))
        .with_seed(23);
    let net = NetworkConfig::two_tier(SimDuration::from_micros(5), 4);

    let cluster = |c: &ServerConfig| {
        ClusterMember::homogeneous(
            c,
            4,
            RoutingPolicyKind::RoundRobin,
            WorkloadSpec::memcached_etc(),
            60_000.0,
        )
        .with_network(net)
        .run()
    };
    let plain = cluster(&base);
    let traced = cluster(&observed(&base));
    assert!(!traced.trace.as_ref().expect("trace log").is_empty());
    assert!(traced.profile.is_some());
    assert_eq!(
        strip_cluster(traced),
        plain,
        "tracing perturbed a fabric cluster run"
    );

    let graph = RequestGraph::fanout(TierService::frontend(), TierService::memcached_leaf(), 4);
    let chain = |c: &ServerConfig| {
        ChainMember::homogeneous(
            c,
            4,
            RoutingPolicyKind::JoinShortestQueue,
            graph.clone(),
            8_000.0,
        )
        .with_network(net)
        .run()
    };
    let plain = chain(&base);
    let traced = chain(&observed(&base));
    assert!(!traced.trace.as_ref().expect("trace log").is_empty());
    assert!(traced.profile.is_some());
    assert_eq!(
        strip_chain(traced),
        plain,
        "tracing perturbed a fabric chain run"
    );
}

/// Traced and plain members side by side on one worker pool: observability
/// state belongs to each member's own simulation, so a traced member's log
/// and profile come out exactly as when it runs alone, and its neighbours
/// stay unperturbed.
#[test]
fn tracing_never_perturbs_pool_runs() {
    let net = NetworkConfig::two_tier(SimDuration::from_micros(5), 4);
    let member = |seed: u64, traced: bool| {
        let base = ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(10))
            .with_seed(seed);
        let config = if traced { observed(&base) } else { base };
        ClusterMember::homogeneous(
            &config,
            4,
            RoutingPolicyKind::JoinShortestQueue,
            WorkloadSpec::memcached_etc(),
            50_000.0,
        )
        .with_network(net)
    };
    let shape = [(31, false), (31, true), (32, true), (32, false)];
    let mut fleet = ClusterFleet::new();
    for (seed, traced) in shape {
        fleet.push(member(seed, traced));
    }
    let pooled = fleet.with_parallelism(2).run();
    for (result, (seed, traced)) in pooled.iter().zip(shape) {
        assert_eq!(
            result,
            &member(seed, traced).run(),
            "pooled member (seed {seed}, traced {traced}) differs from its lone run"
        );
        assert_eq!(result.trace.is_some(), traced);
    }
    assert_eq!(strip_cluster(pooled[1].clone()), pooled[0]);
    assert_eq!(strip_cluster(pooled[2].clone()), pooled[3]);
}

/// A pool never merges profiles: each profiled member reports the engine
/// counters of its own event loop, whichever worker ran it.
#[test]
fn pooled_profiles_count_only_their_own_member() {
    let graph = RequestGraph::fanout(TierService::frontend(), TierService::memcached_leaf(), 4);
    let base = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(10))
        .with_seed(19)
        .with_profile();
    let mut fleet = ChainFleet::new();
    for rate in [2_000.0, 4_000.0, 8_000.0] {
        fleet.push(ChainMember::homogeneous(
            &base,
            4,
            RoutingPolicyKind::RoundRobin,
            graph.clone(),
            rate,
        ));
    }
    let dispatched: Vec<u64> = fleet
        .with_parallelism(3)
        .run()
        .iter()
        .map(|c| {
            let profile = c.profile.as_ref().expect("profile report");
            assert_eq!(profile.engine.dispatched, c.events_dispatched);
            assert!(!profile.events.is_empty(), "per-kind census retained");
            c.events_dispatched
        })
        .collect();
    assert!(
        dispatched[0] < dispatched[1] && dispatched[1] < dispatched[2],
        "{dispatched:?}"
    );
}

/// Finds the spans of `trace_id`, keyed by kind.
fn spans_of(log: &TraceLog, trace_id: u64) -> Vec<&Span> {
    log.spans().iter().filter(|s| s.trace == trace_id).collect()
}

/// Every traced request's pipeline spans {wire-out, coalesce, queue, wake,
/// service} are contiguous and sum exactly to the root span — the recorded
/// end-to-end latency is fully attributed, never double-counted.
#[test]
fn span_chains_partition_end_to_end_latency() {
    let config = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(30))
        .with_seed(7);
    let result = run_experiment(observed(&config), WorkloadSpec::memcached_etc(), 40_000.0);
    let log = result.trace.expect("trace log");
    assert_eq!(log.dropped(), 0, "log bound hit in a short run");
    let roots: Vec<&Span> = log
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Root)
        .collect();
    assert!(!roots.is_empty(), "no root spans collected");
    let mut saw_wake_exit = false;
    for root in &roots {
        let spans = spans_of(&log, root.trace);
        let by_kind = |kind: SpanKind| -> &Span {
            spans
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("trace {} missing a {kind:?} span", root.trace))
        };
        let wire = by_kind(SpanKind::WireOut);
        let coalesce = by_kind(SpanKind::Coalesce);
        let queue = by_kind(SpanKind::Queue);
        let wake = by_kind(SpanKind::Wake);
        let service = by_kind(SpanKind::Service);
        // Contiguity: each stage starts where the previous one ended.
        assert_eq!(wire.start, root.start);
        assert_eq!(coalesce.start, wire.end);
        assert_eq!(queue.start, coalesce.end);
        assert_eq!(wake.start, queue.end);
        assert_eq!(service.start, wake.end);
        assert_eq!(service.end, root.end);
        // And therefore the stage durations partition the e2e latency.
        let total = [wire, coalesce, queue, wake, service]
            .iter()
            .map(|s| s.duration().as_nanos())
            .sum::<u64>();
        assert_eq!(total, root.duration().as_nanos(), "trace {}", root.trace);
        // Wake spans are named after the C-state the core exited.
        assert!(
            ["CC0", "CC1", "CC1E", "CC6"].contains(&wake.label),
            "unexpected wake label `{}`",
            wake.label
        );
        if wake.label != "CC0" && !wake.duration().is_zero() {
            saw_wake_exit = true;
        }
        // Service runs on a core lane, never the node's transport lane 0.
        assert!(service.lane >= 1);
        assert_eq!(root.lane, 0);
    }
    assert!(
        saw_wake_exit,
        "no request ever paid a C-state exit at trough load"
    );
}

/// Chain traces add coordinator-side tier/join/root spans: the root span
/// covers the whole chain, every tier span nests inside it, and the join
/// span accounts the straggler wait after the first leaf finished.
#[test]
fn chain_traces_carry_tier_and_join_spans() {
    let base = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(25))
        .with_seed(13);
    let graph = RequestGraph::fanout(TierService::frontend(), TierService::memcached_leaf(), 4);
    let result = run_chain_experiment(
        &observed(&base),
        3,
        RoutingPolicyKind::JoinShortestQueue,
        graph,
        8_000.0,
    );
    let log = result.trace.expect("trace log");
    let roots: Vec<&Span> = log
        .spans()
        .iter()
        .filter(|s| s.kind == SpanKind::Root && s.node == 3)
        .collect();
    assert!(!roots.is_empty(), "no coordinator root spans");
    for root in &roots {
        let spans = spans_of(&log, root.trace);
        let tiers: Vec<&&Span> = spans.iter().filter(|s| s.kind == SpanKind::Tier).collect();
        assert!(!tiers.is_empty(), "trace {} has no tier spans", root.trace);
        for tier in &tiers {
            assert!(tier.start >= root.start && tier.end <= root.end);
        }
        for join in spans.iter().filter(|s| s.kind == SpanKind::Join) {
            assert!(join.start >= root.start && join.end <= root.end);
        }
        // The per-request pipeline spans on worker nodes joined this trace.
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Service && s.node < 3),
            "trace {} has no worker-node service span",
            root.trace
        );
    }
}

/// Head sampling honours the 1-in-N rate statistically and draws from a
/// dedicated RNG fork: two sampled runs of the same seed agree exactly.
#[test]
fn head_sampling_is_deterministic_and_thins_the_log() {
    let config = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(30))
        .with_seed(7);
    let all = run_experiment(
        config.clone().with_trace(TraceConfig::new(1)),
        WorkloadSpec::memcached_etc(),
        40_000.0,
    );
    let sampled = || {
        run_experiment(
            config.clone().with_trace(TraceConfig::new(4)),
            WorkloadSpec::memcached_etc(),
            40_000.0,
        )
    };
    let a = sampled();
    let b = sampled();
    assert_eq!(a.trace, b.trace, "head sampling is not deterministic");
    let full = all.trace.as_ref().expect("full log").spans().len();
    let thin = a.trace.as_ref().expect("thinned log").spans().len();
    assert!(
        thin < full,
        "1-in-4 sampling did not thin the log ({thin} vs {full})"
    );
    assert!(thin > 0, "1-in-4 sampling kept nothing");
    // Sampling only changes the trace log, nothing else.
    assert_eq!(strip_run(a), strip_run(all));
}

/// The retained-span bound is enforced, counting what it sheds.
#[test]
fn trace_log_bound_counts_dropped_spans() {
    let config = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(30))
        .with_seed(7)
        .with_trace(TraceConfig::new(1).with_max_spans(8));
    let result = run_experiment(config, WorkloadSpec::memcached_etc(), 40_000.0);
    let log = result.trace.expect("trace log");
    assert_eq!(log.spans().len(), 8, "bound not enforced");
    assert!(log.dropped() > 0, "shed spans not counted");
}
