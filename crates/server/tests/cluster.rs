//! Cluster-layer tests: single servers as 1-node clusters, bit-identical
//! determinism, parallel/sequential cluster-fleet equality and
//! routing-policy behaviour.

use apc_network::NetworkConfig;
use apc_server::balancer::{Balancer, RoutingPolicy, RoutingPolicyKind};
use apc_server::chain::{ChainCoordinator, RequestGraph};
use apc_server::cluster::{run_cluster_experiment, ClusterFleet, ClusterMember, ClusterSimulation};
use apc_server::components::state::ClusterState;
use apc_server::config::ServerConfig;
use apc_server::fleet::Fleet;
use apc_server::sim::run_experiment;
use apc_sim::component::ComponentId;
use apc_sim::rng::SimRng;
use apc_sim::{SimDuration, SimTime};
use apc_trace::TraceConfig;
use apc_workloads::loadgen::LoadGenerator;
use apc_workloads::spec::WorkloadSpec;

/// A single server is a 1-node cluster, and with one node every routing
/// policy routes alike: under every policy and on every platform, a 1-node
/// cluster whose loop-level dispatch count, span log and profile move into
/// its node's result equals `run_experiment` **bit-for-bit**. Tracing and
/// profiling are on, so the moved fields are compared too.
#[test]
fn one_node_cluster_reproduces_server_simulation_exactly() {
    for base in [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ] {
        let config = base
            .with_duration(SimDuration::from_millis(50))
            .with_seed(9)
            .with_trace(TraceConfig::new(16))
            .with_profile();
        let rate = 30_000.0;
        let single = run_experiment(config.clone(), WorkloadSpec::memcached_etc(), rate);
        assert!(single.events_dispatched > 0);
        assert!(single.trace.as_ref().is_some_and(|t| !t.is_empty()));
        assert!(single.profile.is_some());
        for policy in RoutingPolicyKind::all() {
            let loadgen = LoadGenerator::new(WorkloadSpec::memcached_etc(), rate, config.seed);
            let balancer = Balancer::new(loadgen, policy.build(), 1);
            let cluster =
                ClusterSimulation::new(config.seed, vec![config.clone()], balancer, None).run();
            assert_eq!(cluster.total_routed(), cluster.routed[0]);
            let [mut node] = <[_; 1]>::try_from(cluster.nodes.runs).expect("one node");
            assert_eq!((node.events_dispatched, &node.trace), (0, &None));
            node.events_dispatched = cluster.events_dispatched;
            node.trace = cluster.trace;
            node.profile = cluster.profile;
            assert_eq!(
                node,
                single,
                "1-node cluster under {} diverged from run_experiment on {}",
                policy.name(),
                single.config_name,
            );
        }
    }
}

/// Same seed ⇒ bit-identical `ClusterResult`, for every built-in policy.
#[test]
fn identical_seeds_give_bit_identical_cluster_results() {
    let base = ServerConfig::c_pc1a()
        .with_duration(SimDuration::from_millis(25))
        .with_seed(17);
    for policy in RoutingPolicyKind::all() {
        let run =
            || run_cluster_experiment(&base, 4, policy, WorkloadSpec::memcached_etc(), 60_000.0);
        assert_eq!(
            run(),
            run(),
            "policy {} is not deterministic",
            policy.name()
        );
    }
}

#[test]
fn different_cluster_seeds_diverge() {
    let run = |seed: u64| {
        let base = ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(25))
            .with_seed(seed);
        run_cluster_experiment(
            &base,
            3,
            RoutingPolicyKind::Random,
            WorkloadSpec::memcached_etc(),
            45_000.0,
        )
    };
    assert_ne!(
        run(1),
        run(2),
        "two different seeds produced identical runs"
    );
}

/// A parallel cluster fleet must be bit-identical to the sequential path,
/// with results in member order.
#[test]
fn cluster_fleet_parallel_matches_sequential() {
    let build = || {
        let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(20));
        let mut fleet = ClusterFleet::new();
        for policy in RoutingPolicyKind::all() {
            fleet.push(ClusterMember::homogeneous(
                &base,
                3,
                policy,
                WorkloadSpec::memcached_etc(),
                45_000.0,
            ));
        }
        fleet
    };
    let parallel = build().with_parallelism(4).run();
    let sequential = build().with_parallelism(1).run();
    assert_eq!(parallel, sequential);
    let policies: Vec<&str> = parallel.iter().map(|r| r.policy).collect();
    assert_eq!(
        policies,
        [
            "random",
            "round-robin",
            "join-shortest-queue",
            "power-aware"
        ]
    );
}

/// A one-member fleet is the member's own run whatever the worker budget:
/// the pool never runs more workers than it has members, fabric or not.
#[test]
fn single_member_cluster_fleet_is_the_member_run() {
    let member = || {
        ClusterMember::homogeneous(
            &ServerConfig::c_pc1a()
                .with_duration(SimDuration::from_millis(10))
                .with_seed(5),
            4,
            RoutingPolicyKind::JoinShortestQueue,
            WorkloadSpec::memcached_etc(),
            60_000.0,
        )
        .with_network(NetworkConfig::two_tier(SimDuration::from_micros(5), 2))
    };
    let alone = member().run();
    for workers in [1, 4] {
        let mut fleet = ClusterFleet::new();
        fleet.push(member());
        assert_eq!(
            fleet.with_parallelism(workers).run(),
            std::slice::from_ref(&alone)
        );
    }
}

/// Node seeds follow the canonical `Fleet::member_seed` fork, so cluster
/// nodes are pairwise independent (they genuinely differ).
#[test]
fn cluster_nodes_run_distinct_streams() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(25));
    let result = run_cluster_experiment(
        &base,
        4,
        RoutingPolicyKind::RoundRobin,
        WorkloadSpec::memcached_etc(),
        80_000.0,
    );
    let first = &result.nodes.runs[0];
    assert!(
        result.nodes.runs[1..].iter().any(|r| r != first),
        "all nodes produced identical results despite distinct seeds"
    );
    // Round-robin spreads exactly evenly (total divisible or off by < n).
    let max = result.routed.iter().copied().max().unwrap();
    let min = result.routed.iter().copied().min().unwrap();
    assert!(
        max - min <= 1,
        "round-robin routed unevenly: {:?}",
        result.routed
    );
}

/// Policy behaviour at the routing level: spreading policies stay balanced,
/// the packing policy concentrates load.
#[test]
fn power_aware_packs_while_spreaders_balance() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(30));
    let run =
        |policy| run_cluster_experiment(&base, 4, policy, WorkloadSpec::memcached_etc(), 20_000.0);
    let rr = run(RoutingPolicyKind::RoundRobin);
    let packed = run(RoutingPolicyKind::PowerAware);
    assert!(
        packed.routing_imbalance() > rr.routing_imbalance() + 0.5,
        "power-aware imbalance {:.2} not above round-robin {:.2}",
        packed.routing_imbalance(),
        rr.routing_imbalance()
    );
    // Both serve the whole offered stream.
    assert!(rr.nodes.total_completed_requests() > 0);
    assert!(packed.nodes.total_completed_requests() > 0);
}

/// JSQ keeps every routed request accounted for and yields finite stats.
#[test]
fn join_shortest_queue_is_plausible() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(25));
    let result = run_cluster_experiment(
        &base,
        4,
        RoutingPolicyKind::JoinShortestQueue,
        WorkloadSpec::memcached_etc(),
        100_000.0,
    );
    assert_eq!(result.policy, "join-shortest-queue");
    assert!(result.total_routed() >= result.nodes.total_completed_requests());
    assert!(result.nodes.total_power_w() > 0.0);
    let idle_band = result.idle_periods_20_200us();
    assert!((0.0..=1.0).contains(&idle_band));
    assert!(result.total_idle_periods() > 0);
    // The summary row renders and names the policy.
    let rendered = format!("{result}");
    assert!(rendered.contains("join-shortest-queue"), "{rendered}");
    assert!(rendered.contains("node   0"), "{rendered}");
}

fn node_configs(n: usize) -> Vec<ServerConfig> {
    let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(10));
    (0..n)
        .map(|i| config.clone().with_seed(Fleet::member_seed(config.seed, i)))
        .collect()
}

fn balancer(nodes: usize) -> Balancer {
    let loadgen = LoadGenerator::new(WorkloadSpec::memcached_etc(), 10_000.0, 1);
    Balancer::new(loadgen, RoutingPolicyKind::RoundRobin.build(), nodes)
}

/// The cluster registry hosts N complete servers plus the front component
/// (balancer or chain coordinator) and the fabric: one component per node,
/// named `node {i}`, so N + 2 in all. `n = 1` is the layout every
/// single-server run has.
#[test]
fn cluster_registry_has_expected_layout() {
    for n in [1, 3] {
        let coordinator = ChainCoordinator::new(
            RequestGraph::memcached_fanout(2),
            1_000.0,
            RoutingPolicyKind::RoundRobin.build(),
            n,
            1,
        );
        let balanced = ClusterSimulation::new(1, node_configs(n), balancer(n), None);
        let chained = ClusterSimulation::new(1, node_configs(n), coordinator, None);
        for (inner, front, absent) in [
            (balanced.simulation(), "balancer", "chain-coordinator"),
            (chained.simulation(), "chain-coordinator", "balancer"),
        ] {
            assert_eq!(inner.shared().nodes.len(), n);
            // N nodes + the front + the (always-registered) fabric.
            assert_eq!(inner.component_count(), n + 2);
            for node in 0..n {
                let id = inner.lookup(&format!("node {node}"));
                assert_eq!(id, Some(ComponentId::from_raw(node)), "node {node}");
            }
            assert_eq!(inner.lookup(front), Some(ComponentId::from_raw(n)));
            assert_eq!(inner.lookup("fabric"), Some(ComponentId::from_raw(n + 1)));
            assert!(inner.lookup(absent).is_none());
            assert!(inner.lookup("node 0 nic").is_none());
            assert_eq!(inner.now(), SimTime::ZERO);
        }
    }
}

/// A node draws from streams forked off its own seed, never off its index
/// or registration name: two nodes with one config, in a cluster where no
/// request arrives before the horizon, see only their own background
/// noise and so return equal results.
#[test]
fn a_node_draws_from_its_seed_not_its_index() {
    let config = ServerConfig::c_deep().with_duration(SimDuration::from_millis(20));
    let loadgen = LoadGenerator::new(WorkloadSpec::memcached_etc(), 1e-3, 1);
    let balancer = Balancer::new(loadgen, RoutingPolicyKind::RoundRobin.build(), 2);
    let result = ClusterSimulation::new(1, vec![config.clone(), config], balancer, None).run();
    assert_eq!(
        result.total_routed(),
        0,
        "a request arrived before the horizon"
    );
    let [first, second] = &result.nodes.runs[..] else {
        panic!("two nodes");
    };
    assert!(first.idle_periods > 0, "no background noise drawn");
    assert_eq!(first, second);
}

#[test]
#[should_panic(expected = "at least one node")]
fn cluster_without_nodes_is_rejected() {
    let _ = ClusterSimulation::new(1, Vec::new(), balancer(0), None);
}

#[test]
#[should_panic(expected = "share one measurement duration")]
fn cluster_nodes_with_different_durations_are_rejected() {
    let mut configs = node_configs(2);
    configs[1] = configs[1]
        .clone()
        .with_duration(SimDuration::from_millis(20));
    let _ = ClusterSimulation::new(1, configs, balancer(2), None);
}

/// At trough load, the packing policy deepens package idle on the spared
/// nodes: its *maximum* per-node PC1A residency beats the spreading
/// policy's, while the spreading policy fragments idle across all nodes.
#[test]
fn packing_deepens_idle_on_spared_nodes() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(40));
    let run =
        |policy| run_cluster_experiment(&base, 4, policy, WorkloadSpec::memcached_etc(), 12_000.0);
    let spread = run(RoutingPolicyKind::Random);
    let packed = run(RoutingPolicyKind::PowerAware);
    let max_res = |r: &apc_server::cluster::ClusterResult| {
        r.nodes
            .runs
            .iter()
            .map(|n| n.pc1a_residency)
            .fold(0.0f64, f64::max)
    };
    assert!(
        max_res(&packed) > max_res(&spread),
        "packing max residency {:.3} not above spreading {:.3}",
        max_res(&packed),
        max_res(&spread)
    );
}

/// Power-aware and JSQ routing by a scan of every node's `ServerState`: the
/// reference the routing index must reproduce.
struct ScanPolicy(RoutingPolicyKind);

impl RoutingPolicy for ScanPolicy {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn route(&mut self, cluster: &ClusterState, _rng: &mut SimRng) -> usize {
        let nodes = &cluster.nodes;
        let load = |i: &usize| nodes[*i].outstanding_requests();
        let awake = (0..nodes.len())
            .filter(|&i| self.0 == RoutingPolicyKind::PowerAware && nodes[i].any_core_active())
            .min_by_key(load);
        awake.unwrap_or_else(|| (0..nodes.len()).min_by_key(load).expect("a node"))
    }
}

/// Runs `nodes` nodes at 20k req/s each for 1 ms behind a balancer and
/// behind a 1 → 4 fan-out chain front (five RPCs a chain, so chains arrive
/// at a fifth of the rate), under `policy`; returns each front's per-node
/// routing census after checking that the run equals, bit for bit, the same
/// run under the scan `ScanPolicy` makes.
fn routed_as_by_a_scan(nodes: usize, policy: RoutingPolicyKind) -> [Vec<u64>; 2] {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(1));
    let configs: Vec<_> = (0..nodes)
        .map(|i| base.clone().with_seed(Fleet::member_seed(base.seed, i)))
        .collect();
    let rate = 20_000.0 * nodes as f64;
    let balanced = |policy: Box<dyn RoutingPolicy>| {
        let loadgen = LoadGenerator::new(WorkloadSpec::memcached_etc(), rate, base.seed);
        let balancer = Balancer::new(loadgen, policy, nodes);
        ClusterSimulation::new(base.seed, configs.clone(), balancer, None).run()
    };
    let chained = |policy: Box<dyn RoutingPolicy>| {
        let graph = RequestGraph::memcached_fanout(4);
        let front = ChainCoordinator::new(graph, rate / 5.0, policy, nodes, base.seed);
        ClusterSimulation::new(base.seed, configs.clone(), front, None).run()
    };
    let cluster = balanced(policy.build());
    assert_eq!(
        cluster,
        balanced(Box::new(ScanPolicy(policy))),
        "{nodes} nodes"
    );
    let chain = chained(policy.build());
    assert_eq!(
        chain,
        chained(Box::new(ScanPolicy(policy))),
        "{nodes} nodes"
    );
    [cluster.routed, chain.routed]
}

/// The routing index picks what a scan of the nodes picks, across the awake
/// bitset's 64-bit word boundaries: at 1, 7, 64, 65 and 130 nodes, power-aware
/// and JSQ runs behind either front equal the scanning policy's runs (debug
/// builds also check every pick inside the built-in policies). Past 64 nodes
/// both policies route to nodes of the second and third word.
#[test]
fn routing_index_picks_what_a_scan_picks() {
    for nodes in [1, 7, 64, 65, 130] {
        for policy in [
            RoutingPolicyKind::PowerAware,
            RoutingPolicyKind::JoinShortestQueue,
        ] {
            for routed in routed_as_by_a_scan(nodes, policy) {
                assert!(routed.iter().sum::<u64>() > 0);
                for word_start in [64, 128] {
                    if nodes > word_start {
                        assert!(
                            routed[word_start..].iter().any(|&r| r > 0),
                            "{} routed nothing past node {word_start} of {nodes}: {routed:?}",
                            policy.name()
                        );
                    }
                }
            }
        }
    }
}
