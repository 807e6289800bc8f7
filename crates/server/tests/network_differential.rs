//! Differential conformance suite for the network fabric.
//!
//! The load-bearing contract of `apc-network`: a fabric whose every
//! transmission takes zero wire time — [`NetworkConfig::ideal`] (flat, zero
//! latency, infinite bandwidth), or any topology whose links are free — is
//! **bit-identical** to running with no fabric at all. Not statistically
//! close: the same event sequence, the same RNG draws, the same FIFO order,
//! and therefore exactly equal results op for op — request outcomes
//! (latency summaries, completion counts), power and energy, package
//! residency, and the routing census.
//!
//! Every comparison here strips only the `network` stats field (the one
//! field the fabric-less run cannot have) and then uses the results' exact
//! `PartialEq` — the same equality the determinism suites pin — across all
//! three platform configurations, every routing policy, and the two named
//! fan-out meshes. No golden was re-captured for the fabric: the
//! pre-existing pinned exports in `crates/analysis/tests/` run fabric-less
//! and still pass unchanged.

use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

fn platforms() -> [ServerConfig; 3] {
    [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ]
}

/// Drops the fabric's stats (present on fabric runs only, by construction)
/// after asserting the fabric really ran, so the remaining fields compare
/// exactly against the fabric-less baseline.
fn strip_cluster(mut result: ClusterResult) -> ClusterResult {
    let stats = result.network.take().expect("fabric run must export stats");
    assert!(stats.messages > 0, "fabric saw no traffic");
    assert!(
        stats.total_wire_delay_ns == 0,
        "instantaneous fabric accumulated wire delay"
    );
    result
}

fn strip_chain(mut result: ChainResult) -> ChainResult {
    let stats = result.network.take().expect("fabric run must export stats");
    assert!(stats.messages > 0, "fabric saw no traffic");
    assert!(
        stats.total_wire_delay_ns == 0,
        "instantaneous fabric accumulated wire delay"
    );
    result
}

/// The headline contract: the ideal fabric replays the fabric-less cluster
/// bit-for-bit under every platform x routing-policy combination.
#[test]
fn ideal_fabric_matches_fabricless_cluster_on_every_platform_and_policy() {
    for platform in platforms() {
        let base = platform.with_duration(SimDuration::from_millis(2));
        for policy in RoutingPolicyKind::all() {
            let member = || {
                ClusterMember::homogeneous(
                    &base,
                    4,
                    policy,
                    WorkloadSpec::memcached_etc(),
                    40_000.0,
                )
            };
            let baseline = member().run();
            let fabric = member().with_network(NetworkConfig::ideal()).run();
            let stats = fabric.network.clone().expect("fabric stats");
            assert_eq!(
                stats.messages,
                baseline.total_routed(),
                "every routed request crosses the fabric exactly once"
            );
            assert_eq!(
                strip_cluster(fabric),
                baseline,
                "platform {} policy {policy:?} diverged under the ideal fabric",
                base.platform.name,
            );
        }
    }
}

/// Zero wire time is what matters, not the flat shape: zero-latency
/// two-tier and fat-tree fabrics (infinite bandwidth) are instantaneous
/// too, and must also be bit-identical.
#[test]
fn zero_latency_nonflat_topologies_match_fabricless_cluster() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(2));
    let member = || {
        ClusterMember::homogeneous(
            &base,
            4,
            RoutingPolicyKind::JoinShortestQueue,
            WorkloadSpec::memcached_etc(),
            40_000.0,
        )
    };
    let baseline = member().run();
    for config in [
        NetworkConfig::two_tier(SimDuration::ZERO, 2),
        NetworkConfig::fat_tree(SimDuration::ZERO, 2, 2, 4.0),
        // Finite bandwidth with an empty payload serializes in zero time.
        NetworkConfig::flat(SimDuration::ZERO).with_bandwidth(1),
    ] {
        assert!(config.is_instantaneous());
        let fabric = member().with_network(config).run();
        assert_eq!(strip_cluster(fabric), baseline, "{config:?} diverged");
    }
}

/// The chain meshes of the named `mesh-8-fanout4` and `mesh-16-memcached`
/// scenarios: fan-out RPCs *and* leaf-completion reports both cross the
/// fabric, so the chain path exercises both transmission directions.
/// Bit-identical on every platform for both the spreading and the packing
/// policy.
#[test]
fn ideal_fabric_matches_fabricless_chain_scenarios() {
    for (name, nodes, fanout, chains_per_sec) in [
        ("mesh-8-fanout4", 8, 4, 8_000.0),
        ("mesh-16-memcached", 16, 8, 6_000.0),
    ] {
        for platform in platforms() {
            for policy in [
                RoutingPolicyKind::JoinShortestQueue,
                RoutingPolicyKind::PowerAware,
            ] {
                let base = platform
                    .clone()
                    .with_duration(SimDuration::from_millis(2))
                    .with_seed(0x5ce0);
                let member = || {
                    ChainMember::homogeneous(
                        &base,
                        nodes,
                        policy,
                        RequestGraph::memcached_fanout(fanout),
                        chains_per_sec,
                    )
                };
                let baseline = member().run();
                let fabric = member().with_network(NetworkConfig::ideal()).run();
                let stats = fabric.network.clone().expect("fabric stats");
                assert!(
                    stats.messages >= baseline.total_routed(),
                    "every RPC crosses the fabric, plus one report per join"
                );
                assert_eq!(
                    strip_chain(fabric),
                    baseline,
                    "scenario {name} platform {} policy {policy:?} diverged",
                    base.platform.name,
                );
            }
        }
    }
}

/// Sanity in the other direction: a fabric with real wire latency is *not*
/// a no-op — end-to-end chain latency grows and the stats record the
/// traffic — so the suite cannot pass vacuously.
#[test]
fn nonzero_latency_fabric_actually_delays_chains() {
    let base = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(2));
    let member = || {
        ChainMember::homogeneous(
            &base,
            4,
            RoutingPolicyKind::JoinShortestQueue,
            RequestGraph::memcached_fanout(4),
            4_000.0,
        )
    };
    let baseline = member().run();
    let config = NetworkConfig::two_tier(SimDuration::from_micros(5), 2);
    assert!(!config.is_instantaneous());
    let wired = member().with_network(config).run();
    let stats = wired.network.clone().expect("fabric stats");
    assert!(stats.messages > 0);
    assert!(stats.total_wire_delay_ns > 0);
    assert!(!stats.max_wire_delay.is_zero());
    assert!(
        wired.chain_latency.p50 > baseline.chain_latency.p50,
        "5us links must lift the median chain latency ({} vs {})",
        wired.chain_latency.p50,
        baseline.chain_latency.p50
    );
}
