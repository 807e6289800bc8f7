//! Golden-file tests of the chain exporters: the exact JSON and CSV bytes
//! one fixed-seed fan-out run produces.
//!
//! Captured from `chain_result_json` / `chain_results_csv` on the pinned
//! run (CPC1A, 2 nodes, `1x frontend -> 2x kv-get`, 4 K chains/s, 2 ms
//! window, seed 7). Like `export_golden.rs`, these pin the exporters' field
//! order / float formatting *and* the chain simulation's determinism on the
//! export path — if a behavioural change is intentional, re-capture and say
//! so in the commit.
//!
//! Re-captured when the latency path moved to the quantile sketch (the
//! percentile fields are sketch estimates now, ≤ 1 % relative error;
//! count, mean and max stayed exact) and the `nodes` object was
//! restructured runs-first
//! with a `combined_latency` aggregate for the streaming exporters.
//!
//! Re-captured when energy accounting became exact integer nW × ns: the
//! per-node `avg_soc_power_w` / `avg_dram_power_w` and the fleet's
//! `total_power_w` / `mean_soc_power_w` / `fleet_power_w` lost their
//! float-summation noise and moved by at most 2.8e-14 W; every other byte
//! is unchanged.

use apc_analysis::export::{chain_result_json, chain_results_csv, JsonValue, CHAIN_CSV_HEADER};
use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{run_chain_experiment, ChainMember, ChainResult, RequestGraph};
use apc_server::config::ServerConfig;
use apc_sim::SimDuration;

fn golden_chain_run() -> ChainResult {
    run_chain_experiment(
        &ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(2))
            .with_seed(7),
        2,
        RoutingPolicyKind::JoinShortestQueue,
        RequestGraph::memcached_fanout(2),
        4_000.0,
    )
}

const GOLDEN_CHAIN_JSON: &str = r#"{
  "policy": "join-shortest-queue",
  "graph": "1x frontend -> 2x kv-get",
  "duration_ns": 2000000,
  "chains_started": 6,
  "chains_completed": 6,
  "chains_per_sec": 3000.0,
  "chain_latency": {
    "count": 6,
    "mean_ns": 105376,
    "p50_ns": 97766,
    "p95_ns": 110231,
    "p99_ns": 110231,
    "p999_ns": 110231,
    "max_ns": 137621
  },
  "straggler": {
    "count": 6,
    "mean_ns": 12882,
    "p50_ns": 12712,
    "p95_ns": 21382,
    "p99_ns": 21382,
    "p999_ns": 21382,
    "max_ns": 22460
  },
  "routed": [
    11,
    7
  ],
  "total_routed": 18,
  "routing_imbalance": 1.2222222222222223,
  "events_dispatched": 644,
  "nodes": {
    "runs": [
      {
        "config": "CPC1A",
        "workload": "chain",
        "offered_rate_rps": 6000.0,
        "duration_ns": 2000000,
        "completed_requests": 11,
        "throughput_rps": 5500.0,
        "latency": {
          "count": 11,
          "mean_ns": 53327,
          "p50_ns": 47587,
          "p95_ns": 73889,
          "p99_ns": 73889,
          "p999_ns": 73889,
          "max_ns": 96812
        },
        "avg_soc_power_w": 32.14215512,
        "avg_dram_power_w": 2.4727939,
        "cpu_utilization": 0.025304,
        "cc0_fraction": 0.026254,
        "cc1_fraction": 0.9737459999999999,
        "cc6_fraction": 0.0,
        "all_idle_fraction": 0.7852315,
        "pc1a_residency": 0.785759,
        "pc6_residency": 0.0,
        "pc1a_transitions": 20,
        "pc1a_aborted": 0,
        "pc6_transitions": 0,
        "idle_periods": 18,
        "idle_periods_20_200us": 0.7777777777777778,
        "events_dispatched": 0
      },
      {
        "config": "CPC1A",
        "workload": "chain",
        "offered_rate_rps": 6000.0,
        "duration_ns": 2000000,
        "completed_requests": 7,
        "throughput_rps": 3500.0,
        "latency": {
          "count": 7,
          "mean_ns": 48001,
          "p50_ns": 45721,
          "p95_ns": 53654,
          "p99_ns": 53654,
          "p999_ns": 53654,
          "max_ns": 62365
        },
        "avg_soc_power_w": 32.00121405,
        "avg_dram_power_w": 2.452034575,
        "cpu_utilization": 0.02379365,
        "cc0_fraction": 0.02469365,
        "cc1_fraction": 0.97530635,
        "cc6_fraction": 0.0,
        "all_idle_fraction": 0.785591,
        "pc1a_residency": 0.790519,
        "pc6_residency": 0.0,
        "pc1a_transitions": 18,
        "pc1a_aborted": 0,
        "pc6_transitions": 0,
        "idle_periods": 12,
        "idle_periods_20_200us": 0.6666666666666666,
        "events_dispatched": 0
      }
    ],
    "servers": 2,
    "total_completed_requests": 18,
    "aggregate_throughput_rps": 9000.0,
    "total_power_w": 69.068197645,
    "mean_soc_power_w": 32.071684585,
    "mean_pc1a_residency": 0.7881389999999999,
    "mean_latency_ns": 51256,
    "combined_latency": {
      "count": 18,
      "mean_ns": 51256,
      "p50_ns": 45721,
      "p95_ns": 73889,
      "p99_ns": 73889,
      "p999_ns": 73889,
      "max_ns": 96812
    },
    "worst_p99_ns": 73889,
    "worst_p999_ns": 73889,
    "events_dispatched": 0
  }
}
"#;

const GOLDEN_CHAIN_CSV: &str = "repeat,policy,graph,duration_ns,\
chains_started,chains_completed,chains_per_sec,e2e_mean_ns,e2e_p50_ns,\
e2e_p99_ns,e2e_p999_ns,e2e_max_ns,straggler_p50_ns,straggler_p99_ns,\
straggler_p999_ns,total_routed,routing_imbalance,fleet_power_w,\
mean_pc1a_residency,worst_rpc_p99_ns\n\
0,join-shortest-queue,1x frontend -> 2x kv-get,2000000,6,6,3000,105376,\
97766,110231,110231,137621,12712,21382,21382,18,1.2222222222222223,\
69.068197645,0.7881389999999999,73889\n";

#[test]
fn chain_json_export_matches_golden_bytes() {
    let text = chain_result_json(&golden_chain_run()).to_pretty_string();
    assert_eq!(text, GOLDEN_CHAIN_JSON);
}

#[test]
fn chain_csv_export_matches_golden_bytes() {
    let result = golden_chain_run();
    let text = chain_results_csv(std::slice::from_ref(&result));
    assert_eq!(text, GOLDEN_CHAIN_CSV);
    assert!(text.starts_with(CHAIN_CSV_HEADER));
}

#[test]
fn golden_chain_json_round_trips_through_the_parser() {
    let parsed = JsonValue::parse(GOLDEN_CHAIN_JSON).expect("golden JSON parses");
    assert_eq!(
        parsed.get("graph").and_then(JsonValue::as_str),
        Some("1x frontend -> 2x kv-get")
    );
    assert_eq!(
        parsed.get("chains_completed").and_then(JsonValue::as_u64),
        Some(6)
    );
    assert_eq!(
        parsed
            .get("chain_latency")
            .and_then(|l| l.get("p999_ns"))
            .and_then(JsonValue::as_u64),
        Some(110_231)
    );
    assert_eq!(
        parsed
            .get("straggler")
            .and_then(|l| l.get("p99_ns"))
            .and_then(JsonValue::as_u64),
        Some(21_382)
    );
    // Every end-to-end latency bounds its chain's straggler gap.
    let e2e = parsed
        .get("chain_latency")
        .and_then(|l| l.get("p50_ns"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    let straggler = parsed
        .get("straggler")
        .and_then(|l| l.get("p50_ns"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(e2e > straggler);
}

// ---- network-fabric golden ---------------------------------------------
//
// The same pinned run, but routed through a two-tier fabric with 5 us
// links (rack size 2). Captured separately from the fabric-less goldens
// above, which remain untouched: the fabric-less export path never changed
// bytes. This pins the `network` JSON object, the CSV network columns, and
// the wired chain simulation's determinism in one shot.

fn golden_network_chain_run() -> ChainResult {
    ChainMember::homogeneous(
        &ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(2))
            .with_seed(7),
        2,
        RoutingPolicyKind::JoinShortestQueue,
        RequestGraph::memcached_fanout(2),
        4_000.0,
    )
    .with_network(NetworkConfig::two_tier(SimDuration::from_micros(5), 2))
    .run()
}

const GOLDEN_NETWORK_CHAIN_JSON: &str = r#"{
  "policy": "join-shortest-queue",
  "graph": "1x frontend -> 2x kv-get",
  "duration_ns": 2000000,
  "chains_started": 6,
  "chains_completed": 5,
  "chains_per_sec": 2500.0,
  "chain_latency": {
    "count": 5,
    "mean_ns": 160824,
    "p50_ns": 154871,
    "p95_ns": 158000,
    "p99_ns": 158000,
    "p999_ns": 158000,
    "max_ns": 197621
  },
  "straggler": {
    "count": 5,
    "mean_ns": 11212,
    "p50_ns": 12712,
    "p95_ns": 17859,
    "p99_ns": 17859,
    "p999_ns": 17859,
    "max_ns": 22460
  },
  "routed": [
    17,
    1
  ],
  "total_routed": 18,
  "routing_imbalance": 1.8888888888888888,
  "events_dispatched": 588,
  "network": {
    "topology": "two-tier",
    "link_latency_ns": 5000,
    "bandwidth_bytes_per_sec": null,
    "rpc_bytes": 0,
    "messages": 35,
    "total_wire_delay_ns": 525000,
    "mean_wire_delay_ns": 15000,
    "max_wire_delay_ns": 15000,
    "per_link": [
      {
        "link": 0,
        "messages": 16,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 1,
        "messages": 17,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 2,
        "messages": 1,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 3,
        "messages": 1,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 4,
        "messages": 18,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 5,
        "messages": 17,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 6,
        "messages": 17,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      },
      {
        "link": 7,
        "messages": 18,
        "busy_ns": 0,
        "total_queue_delay_ns": 0,
        "max_queue_delay_ns": 0
      }
    ]
  },
  "nodes": {
    "runs": [
      {
        "config": "CPC1A",
        "workload": "chain",
        "offered_rate_rps": 6000.0,
        "duration_ns": 2000000,
        "completed_requests": 16,
        "throughput_rps": 8000.0,
        "latency": {
          "count": 16,
          "mean_ns": 64879,
          "p50_ns": 59297,
          "p95_ns": 88462,
          "p99_ns": 88462,
          "p999_ns": 88462,
          "max_ns": 111812
        },
        "avg_soc_power_w": 31.88601696,
        "avg_dram_power_w": 2.3730568,
        "cpu_utilization": 0.029080099999999998,
        "cc0_fraction": 0.030911799999999996,
        "cc1_fraction": 0.9690881999999998,
        "cc6_fraction": 0.0,
        "all_idle_fraction": 0.818161,
        "pc1a_residency": 0.813121,
        "pc6_residency": 0.0,
        "pc1a_transitions": 15,
        "pc1a_aborted": 0,
        "pc6_transitions": 0,
        "idle_periods": 15,
        "idle_periods_20_200us": 0.7333333333333333,
        "events_dispatched": 0
      },
      {
        "config": "CPC1A",
        "workload": "chain",
        "offered_rate_rps": 6000.0,
        "duration_ns": 2000000,
        "completed_requests": 1,
        "throughput_rps": 500.0,
        "latency": {
          "count": 1,
          "mean_ns": 58189,
          "p50_ns": 58189,
          "p95_ns": 58189,
          "p99_ns": 58189,
          "p999_ns": 58189,
          "max_ns": 58189
        },
        "avg_soc_power_w": 31.04172538,
        "avg_dram_power_w": 2.26902565,
        "cpu_utilization": 0.018491300000000002,
        "cc0_fraction": 0.019241299999999996,
        "cc1_fraction": 0.9807587,
        "cc6_fraction": 0.0,
        "all_idle_fraction": 0.829169,
        "pc1a_residency": 0.835441,
        "pc6_residency": 0.0,
        "pc1a_transitions": 14,
        "pc1a_aborted": 0,
        "pc6_transitions": 0,
        "idle_periods": 8,
        "idle_periods_20_200us": 0.375,
        "events_dispatched": 0
      }
    ],
    "servers": 2,
    "total_completed_requests": 17,
    "aggregate_throughput_rps": 8500.0,
    "total_power_w": 67.56982479,
    "mean_soc_power_w": 31.463871169999997,
    "mean_pc1a_residency": 0.824281,
    "mean_latency_ns": 64485,
    "combined_latency": {
      "count": 17,
      "mean_ns": 64486,
      "p50_ns": 59297,
      "p95_ns": 88462,
      "p99_ns": 88462,
      "p999_ns": 88462,
      "max_ns": 111812
    },
    "worst_p99_ns": 88462,
    "worst_p999_ns": 88462,
    "events_dispatched": 0
  }
}
"#;

const GOLDEN_NETWORK_CHAIN_CSV: &str = "repeat,policy,graph,duration_ns,\
chains_started,chains_completed,chains_per_sec,e2e_mean_ns,e2e_p50_ns,\
e2e_p99_ns,e2e_p999_ns,e2e_max_ns,straggler_p50_ns,straggler_p99_ns,\
straggler_p999_ns,total_routed,routing_imbalance,fleet_power_w,\
mean_pc1a_residency,worst_rpc_p99_ns,net_topology,net_link_latency_ns,\
net_messages,net_mean_wire_delay_ns,net_max_wire_delay_ns\n\
0,join-shortest-queue,1x frontend -> 2x kv-get,2000000,6,5,2500,160824,\
154871,158000,158000,197621,12712,17859,17859,18,1.8888888888888888,\
67.56982479,0.824281,88462,two-tier,5000,35,15000,15000\n";

#[test]
fn network_chain_json_export_matches_golden_bytes() {
    let text = chain_result_json(&golden_network_chain_run()).to_pretty_string();
    assert_eq!(text, GOLDEN_NETWORK_CHAIN_JSON);
}

#[test]
fn network_chain_csv_export_matches_golden_bytes() {
    let result = golden_network_chain_run();
    let text = chain_results_csv(std::slice::from_ref(&result));
    assert_eq!(text, GOLDEN_NETWORK_CHAIN_CSV);
    // The network columns extend the fabric-less header, never reorder it.
    assert!(text.starts_with(CHAIN_CSV_HEADER));
}

#[test]
fn golden_network_chain_json_round_trips_through_the_parser() {
    let parsed = JsonValue::parse(GOLDEN_NETWORK_CHAIN_JSON).expect("golden JSON parses");
    let net = parsed.get("network").expect("network object present");
    assert_eq!(
        net.get("topology").and_then(JsonValue::as_str),
        Some("two-tier")
    );
    // 35 messages: 18 routed RPCs + 17 leaf-completion reports (one RPC
    // had not finished service when the window closed).
    assert_eq!(net.get("messages").and_then(JsonValue::as_u64), Some(35));
    assert_eq!(
        net.get("total_wire_delay_ns").and_then(JsonValue::as_u64),
        Some(525_000)
    );
    // Infinite bandwidth exports as an explicit null, not a missing key.
    assert!(matches!(
        net.get("bandwidth_bytes_per_sec"),
        Some(JsonValue::Null)
    ));
    // The wired run is strictly slower end-to-end than the fabric-less
    // golden above (154_871 ns vs 97_766 ns at p50): the fabric is not
    // a no-op when links cost real time.
    let wired_p50 = parsed
        .get("chain_latency")
        .and_then(|l| l.get("p50_ns"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    let baseline = JsonValue::parse(GOLDEN_CHAIN_JSON).unwrap();
    let base_p50 = baseline
        .get("chain_latency")
        .and_then(|l| l.get("p50_ns"))
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(wired_p50 > base_p50);
}
