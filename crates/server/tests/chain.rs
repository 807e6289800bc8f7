//! Behavioural and determinism tests of the request-chain layer: fan-out
//! accounting, wait-for-all join semantics, bit-identical results across
//! worker-pool configurations, and the predicted-idle regression the
//! fan-out traffic class exposed.

use apc_network::NetworkConfig;
use apc_pmu::governor::IdleGovernor;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{run_chain_experiment, ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::components::nic::NIC_COALESCING;
use apc_server::components::state::ServerState;
use apc_server::config::ServerConfig;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::CoreCState;
use apc_workloads::chain::TierService;

fn quick_base(platform: ServerConfig) -> ServerConfig {
    platform.with_duration(SimDuration::from_millis(20))
}

/// The chain of the named `mesh-8-fanout4` scenario (8 nodes, memcached
/// fan-out 4 at 8k chains/s, seed `0x5ce0`) on `platform` under JSQ.
fn mesh_8_fanout4(platform: ServerConfig, duration: SimDuration) -> ChainResult {
    ChainMember::homogeneous(
        &platform.with_duration(duration).with_seed(0x5ce0),
        8,
        RoutingPolicyKind::JoinShortestQueue,
        RequestGraph::memcached_fanout(4),
        8_000.0,
    )
    .run()
}

#[test]
fn fanout_chains_complete_and_account_exactly() {
    let result = run_chain_experiment(
        &quick_base(ServerConfig::c_pc1a()),
        4,
        RoutingPolicyKind::JoinShortestQueue,
        RequestGraph::memcached_fanout(4),
        5_000.0,
    );
    assert_eq!(result.nodes.servers(), 4);
    assert!(result.chains_completed > 20, "{}", result.chains_completed);
    assert!(result.chains_started >= result.chains_completed);
    // Routed-RPC census: completed chains issued all 5 RPCs; chains still in
    // flight at the horizon issued at least the frontend.
    let total = result.total_routed();
    assert!(total >= result.chains_completed * 5, "routed {total}");
    assert!(total <= result.chains_started * 5, "routed {total}");
    // The join waits for the slowest leaf: end-to-end dominates the
    // straggler gap, and percentiles are ordered.
    assert!(result.chain_latency.p999 >= result.chain_latency.p99);
    assert!(result.chain_latency.p99 >= result.chain_latency.p50);
    assert!(result.chain_latency.p99 >= result.straggler.p99);
    assert_eq!(result.straggler.count as u64, {
        // One straggler sample per joined fan-out tier (the graph has one).
        result.chains_completed
    });
    // Per-node telemetry saw the chain RPCs as ordinary client requests.
    let completed_rpcs: u64 = result.nodes.runs.iter().map(|r| r.completed_requests).sum();
    assert!(completed_rpcs >= result.chains_completed * 5);
    assert!(result.nodes.total_power_w() > 0.0);
}

#[test]
fn linear_chains_have_no_straggler_samples() {
    let graph = RequestGraph::linear(vec![
        TierService::frontend(),
        TierService::memcached_leaf(),
        TierService::memcached_leaf(),
    ]);
    let result = run_chain_experiment(
        &quick_base(ServerConfig::c_pc1a()),
        2,
        RoutingPolicyKind::RoundRobin,
        graph,
        2_000.0,
    );
    assert!(result.chains_completed > 0);
    assert_eq!(result.straggler.count, 0, "linear chains never fan out");
    assert_eq!(result.straggler.p999, SimDuration::ZERO);
}

#[test]
fn chain_runs_are_exactly_reproducible() {
    let member = || {
        ChainMember::homogeneous(
            &quick_base(ServerConfig::c_pc1a()).with_seed(11),
            4,
            RoutingPolicyKind::PowerAware,
            RequestGraph::memcached_fanout(4),
            4_000.0,
        )
    };
    let a = member().run();
    let b = member().run();
    assert_eq!(a, b, "same seed must be bit-identical");
    let reseeded = ChainMember {
        seed: 12,
        ..member()
    }
    .run();
    assert_ne!(a, reseeded, "different cluster seeds diverge");
}

#[test]
fn chain_fleet_parallel_matches_sequential_bit_for_bit() {
    let build = || {
        let mut fleet = ChainFleet::new();
        for (platform, rate) in [
            (ServerConfig::c_shallow(), 3_000.0),
            (ServerConfig::c_deep(), 3_000.0),
            (ServerConfig::c_pc1a(), 5_000.0),
        ] {
            fleet.push(ChainMember::homogeneous(
                &quick_base(platform),
                4,
                RoutingPolicyKind::JoinShortestQueue,
                RequestGraph::memcached_fanout(4),
                rate,
            ));
        }
        fleet
    };
    // Exercise the pool even on single-core hosts by forcing 8 workers.
    let parallel = build().with_parallelism(8).run();
    let sequential = build().with_parallelism(1).run();
    assert_eq!(parallel, sequential);
}

/// A one-member fleet is the member's own run whatever the worker budget:
/// the pool never runs more workers than it has members, fabric or not.
#[test]
fn single_member_chain_fleet_is_the_member_run() {
    let member = || {
        ChainMember::homogeneous(
            &quick_base(ServerConfig::c_pc1a()).with_seed(5),
            4,
            RoutingPolicyKind::JoinShortestQueue,
            RequestGraph::memcached_fanout(4),
            4_000.0,
        )
        .with_network(NetworkConfig::two_tier(SimDuration::from_micros(5), 2))
    };
    let alone = member().run();
    for workers in [1, 4] {
        let mut fleet = ChainFleet::new();
        fleet.push(member());
        assert_eq!(
            fleet.with_parallelism(workers).run(),
            std::slice::from_ref(&alone)
        );
    }
}

#[test]
fn chain_scenarios_run_under_every_platform() {
    for platform in [
        ServerConfig::c_shallow(),
        ServerConfig::c_deep(),
        ServerConfig::c_pc1a(),
    ] {
        let name = platform.platform.name;
        let result = mesh_8_fanout4(platform, SimDuration::from_millis(10));
        assert_eq!(result.nodes.servers(), 8);
        assert!(result.chains_completed > 0, "{name}");
    }
}

/// Regression (predicted-idle plumbing): a core going idle while a fan-out
/// sibling's request sits in the NIC coalescing buffer must not pick CC6 —
/// the delivery interrupt is armed and known-imminent, so the governor's
/// predicted-idle bound has to cap at the delivery time. Before the shared
/// bound, `Cdeep` paid a CC6 wake on exactly this pattern (the arrival path
/// deposited without informing the governor).
#[test]
fn armed_nic_delivery_bounds_the_predicted_idle() {
    let config = ServerConfig::c_deep();
    let governor = IdleGovernor::new(&config.platform);
    let mut state = ServerState::new(config);
    let now = SimTime::from_micros(100);
    // No pending background timer: without the NIC bound the prediction is
    // unbounded and a Cdeep governor would take the deepest state.
    state.sched.next_background_at[0] = SimTime::MAX;
    assert_eq!(
        governor.select(state.predicted_idle_bound(0, now)),
        governor.select_unbounded(),
        "no known events: unbounded choice (CC6 under Cdeep)"
    );
    assert_eq!(governor.select_unbounded(), CoreCState::CC6);
    // A sibling's request was just deposited: delivery fires one coalescing
    // window (30 us) out, far below CC6's target residency.
    state.nic.next_deliver_at = now + NIC_COALESCING;
    let bounded = governor.select(state.predicted_idle_bound(0, now));
    assert_ne!(
        bounded,
        CoreCState::CC6,
        "a known-imminent delivery must veto CC6"
    );
    // The bound is the min over every known event: an earlier background
    // timer still wins.
    state.sched.next_background_at[0] = now + SimDuration::from_micros(4);
    assert_eq!(
        state.predicted_idle_bound(0, now),
        SimDuration::from_micros(4)
    );
    // Delivery fired and nothing is armed: the bound relaxes again.
    state.nic.next_deliver_at = SimTime::MAX;
    state.sched.next_background_at[0] = SimTime::MAX;
    assert_eq!(
        governor.select(state.predicted_idle_bound(0, now)),
        CoreCState::CC6
    );
}

/// The tail-latency story the chain layer exists to show: under fan-out,
/// `Cdeep`'s wake latency compounds at the join and widens the end-to-end
/// tail, while `CPC1A` holds a `Cshallow`-class tail at lower power.
#[test]
fn cdeep_widens_the_fanout_tail_cpc1a_holds_it() {
    let window = SimDuration::from_millis(50);
    let shallow = mesh_8_fanout4(ServerConfig::c_shallow(), window);
    let deep = mesh_8_fanout4(ServerConfig::c_deep(), window);
    let pc1a = mesh_8_fanout4(ServerConfig::c_pc1a(), window);
    assert!(
        deep.chain_latency.p999 > shallow.chain_latency.p999,
        "deep {} vs shallow {}",
        deep.chain_latency.p999,
        shallow.chain_latency.p999
    );
    // CPC1A: tail comparable to Cshallow (within 10 %), power strictly lower.
    let shallow_p999 = shallow.chain_latency.p999.as_nanos() as f64;
    let pc1a_p999 = pc1a.chain_latency.p999.as_nanos() as f64;
    assert!(
        pc1a_p999 <= shallow_p999 * 1.10,
        "pc1a p999 {} vs shallow {}",
        pc1a.chain_latency.p999,
        shallow.chain_latency.p999
    );
    assert!(
        pc1a.nodes.total_power_w() < shallow.nodes.total_power_w(),
        "pc1a {} W vs shallow {} W",
        pc1a.nodes.total_power_w(),
        shallow.nodes.total_power_w()
    );
}
