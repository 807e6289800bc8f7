//! Differential conformance suite for the worker pool on networked cluster
//! and chain members: a [`Pool`] run at any forced worker count must be
//! **bit-identical** (exact `PartialEq`, no tolerances) to running each
//! member alone on the calling thread — the sequential event loop that
//! produced all existing goldens — across platforms, routing policies,
//! cluster and chain drivers, and two-tier and fat-tree topologies.
//!
//! Every member's simulation runs on one thread; the pool only decides
//! which thread and when. Cross-node wire traffic stays inside a member, so
//! a fabric must not make a member's bytes depend on its neighbours in the
//! pool or on the worker count.

use std::fmt::Debug;

use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{ChainMember, RequestGraph};
use apc_server::cluster::ClusterMember;
use apc_server::config::ServerConfig;
use apc_server::fleet::{Pool, PoolMember};
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

/// Forced worker counts: fewer workers than members (each worker claims
/// several, in completion-dependent order) and more (the pool clamps to one
/// worker per member, more than a 1-CPU CI host has cores).
const WORKERS: [usize; 2] = [2, 8];

fn two_tier() -> NetworkConfig {
    NetworkConfig::two_tier(SimDuration::from_micros(2), 4)
}

fn fat_tree() -> NetworkConfig {
    NetworkConfig::fat_tree(SimDuration::from_micros(1), 4, 2, 3.0)
}

fn base(platform: fn() -> ServerConfig, seed: u64) -> ServerConfig {
    platform()
        .with_duration(SimDuration::from_millis(10))
        .with_seed(seed)
}

/// Runs every member of `members()` alone, then the whole set through the
/// pool at every forced worker count, asserting the pooled results match
/// member for member, bit for bit.
fn assert_pool_identical<M, R>(label: &str, members: impl Fn() -> Vec<M>)
where
    M: PoolMember<Output = R, Results = Vec<R>>,
    R: PartialEq + Debug,
{
    let alone: Vec<R> = members().into_iter().map(PoolMember::run).collect();
    assert!(
        alone.len() >= 2,
        "{label}: a pool needs two members to fan out"
    );
    for workers in WORKERS {
        let mut pool = Pool::new();
        for member in members() {
            pool.push(member);
        }
        let pooled = pool.with_parallelism(workers).run();
        assert_eq!(
            pooled, alone,
            "{label}: pooled run diverged at {workers} workers"
        );
    }
}

#[test]
fn cluster_two_tier_is_bit_identical_under_every_routing_policy() {
    assert_pool_identical("two-tier/policies", || {
        RoutingPolicyKind::all()
            .into_iter()
            .map(|policy| {
                ClusterMember::homogeneous(
                    &base(ServerConfig::c_pc1a, 17),
                    8,
                    policy,
                    WorkloadSpec::memcached_etc(),
                    60_000.0,
                )
                .with_network(two_tier())
            })
            .collect()
    });
}

#[test]
fn cluster_fat_tree_is_bit_identical_across_platforms() {
    assert_pool_identical("fat-tree/platforms", || {
        [
            ServerConfig::c_shallow as fn() -> ServerConfig,
            ServerConfig::c_deep,
            ServerConfig::c_pc1a,
        ]
        .into_iter()
        .map(|platform| {
            ClusterMember::homogeneous(
                &base(platform, 23),
                8,
                RoutingPolicyKind::JoinShortestQueue,
                WorkloadSpec::memcached_etc(),
                80_000.0,
            )
            .with_network(fat_tree())
        })
        .collect()
    });
}

#[test]
fn cluster_survives_uneven_partitions_and_kafka_tails() {
    // Three members over two workers: one worker runs two of them, and
    // which one depends on how long the first members take.
    assert_pool_identical("two-tier/kafka-6-nodes", || {
        [41, 42, 43]
            .into_iter()
            .map(|seed| {
                ClusterMember::homogeneous(
                    &base(ServerConfig::c_deep, seed),
                    6,
                    RoutingPolicyKind::PowerAware,
                    WorkloadSpec::kafka(),
                    9_000.0,
                )
                .with_network(two_tier())
            })
            .collect()
    });
}

#[test]
fn cluster_high_load_same_nanosecond_ties_stay_bit_identical() {
    // At 20k req/s per node over 20 ms, service completions routinely
    // collide with routing instants on the same integer nanosecond. The
    // event queue breaks those ties by scheduling order (a completion
    // scheduled before the arrival dispatches first, so JSQ sees the
    // decremented queue depth), and that order must not depend on which
    // thread runs the cluster.
    assert_pool_identical("two-tier/jsq-high-load", || {
        [0, 1]
            .into_iter()
            .map(|seed| {
                ClusterMember::homogeneous(
                    &ServerConfig::c_pc1a()
                        .with_duration(SimDuration::from_millis(20))
                        .with_seed(seed),
                    8,
                    RoutingPolicyKind::JoinShortestQueue,
                    WorkloadSpec::memcached_etc(),
                    160_000.0,
                )
                .with_network(two_tier())
            })
            .collect()
    });
}

#[test]
fn chain_two_tier_is_bit_identical_under_routing_policies() {
    assert_pool_identical("chain/two-tier/policies", || {
        [
            RoutingPolicyKind::Random,
            RoutingPolicyKind::JoinShortestQueue,
            RoutingPolicyKind::PowerAware,
        ]
        .into_iter()
        .map(|policy| {
            ChainMember::homogeneous(
                &base(ServerConfig::c_pc1a, 29),
                8,
                policy,
                RequestGraph::memcached_fanout(4),
                4_000.0,
            )
            .with_network(two_tier())
        })
        .collect()
    });
}

#[test]
fn chain_fat_tree_linear_is_bit_identical() {
    assert_pool_identical("chain/fat-tree/linear", || {
        [31, 37]
            .into_iter()
            .map(|seed| {
                ChainMember::homogeneous(
                    &base(ServerConfig::c_shallow, seed),
                    8,
                    RoutingPolicyKind::RoundRobin,
                    RequestGraph::memcached_fanout(8),
                    2_500.0,
                )
                .with_network(fat_tree())
            })
            .collect()
    });
}
