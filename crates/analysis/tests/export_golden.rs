//! Golden-file tests: the exact JSON and CSV text the exporters produce
//! for one fixed-seed run, byte for byte.
//!
//! These literals were captured from `apc-cli run` on the pinned spec
//! (CPC1A, Memcached @ 20 K QPS, 2 ms window, seed 7). They protect two
//! properties at once: the exporters' field order / float formatting (any
//! formatting change fails here first) and the simulation's determinism on
//! the export path (any behavioural shift fails here too — if intentional,
//! re-capture and say so in the commit).
//!
//! Re-captured when the latency path moved to the quantile sketch: the
//! percentile fields are now sketch estimates (≤ 1 % relative error,
//! clamped to the exact min/max), so p50/p95/p99/p999 shifted; count,
//! mean and max are exact and did not change.
//!
//! Re-captured when energy accounting became exact integer nW × ns: the two
//! power fields lost their float-summation noise and moved by under 1e-14 W
//! (`avg_soc_power_w` +7.1e-15, `avg_dram_power_w` -4.9e-15); every other
//! byte is unchanged.
//!
//! Re-captured when the time series began reporting the SoC part of the
//! metered whole-nanowatt level instead of a float sum over domains: the
//! `soc_power_w` cells lost their summation noise (`84.99600000000001` is
//! now `84.996`); every other byte is unchanged.

use apc_analysis::export::{
    fleet_result_json, run_csv_line, run_result_json, timeseries_csv, JsonValue, RUN_CSV_HEADER,
};
use apc_analysis::stream::CsvWriter;
use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember, FleetResult};
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

/// Labelled runs as a run-level CSV document, through the export writer.
fn runs_csv<'a>(rows: impl IntoIterator<Item = (&'a str, &'a RunResult)>) -> String {
    let header = format!("label,{RUN_CSV_HEADER}\n");
    let mut w = CsvWriter::new(Vec::new());
    for (label, r) in rows {
        w.push(&header, &run_csv_line(label, r)).unwrap();
    }
    String::from_utf8(w.finish(&header).unwrap()).unwrap()
}

fn golden_run() -> RunResult {
    run_experiment(
        ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(2))
            .with_seed(7),
        WorkloadSpec::memcached_etc(),
        20_000.0,
    )
}

const GOLDEN_JSON: &str = r#"{
  "config": "CPC1A",
  "workload": "memcached",
  "offered_rate_rps": 20000.0,
  "duration_ns": 2000000,
  "completed_requests": 47,
  "throughput_rps": 23500.0,
  "latency": {
    "count": 47,
    "mean_ns": 163843,
    "p50_ns": 161192,
    "p95_ns": 200859,
    "p99_ns": 209056,
    "p999_ns": 209056,
    "max_ns": 211155
  },
  "avg_soc_power_w": 37.38770724,
  "avg_dram_power_w": 3.3524998,
  "cpu_utilization": 0.06868790000000001,
  "cc0_fraction": 0.0704629,
  "cc1_fraction": 0.9295371000000001,
  "cc6_fraction": 0.0,
  "all_idle_fraction": 0.576999,
  "pc1a_residency": 0.5768615,
  "pc6_residency": 0.0,
  "pc1a_transitions": 22,
  "pc1a_aborted": 0,
  "pc6_transitions": 0,
  "idle_periods": 20,
  "idle_periods_20_200us": 0.75,
  "events_dispatched": 551
}
"#;

const GOLDEN_CSV: &str = "label,config,workload,offered_rate_rps,duration_ns,\
completed_requests,throughput_rps,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,max_ns,\
avg_soc_power_w,avg_dram_power_w,cpu_utilization,cc0_fraction,cc1_fraction,\
cc6_fraction,all_idle_fraction,pc1a_residency,pc6_residency,pc1a_transitions,\
pc1a_aborted,pc6_transitions,idle_periods,idle_periods_20_200us\n\
run 0,CPC1A,memcached,20000,2000000,47,23500,163843,161192,200859,209056,209056,\
211155,37.38770724,3.3524998,0.06868790000000001,0.0704629,\
0.9295371000000001,0,0.576999,0.5768615,0,22,0,0,20,0.75\n";

const GOLDEN_TIMESERIES_CSV: &str = "node,at_ns,soc_power_w,queue_depth,busy_cores,\
package_state,pc0_delta_ns,pc0_idle_delta_ns,pc1a_delta_ns,pc6_delta_ns\n\
run 0,0,84.996,0,0,PC0Idle,0,0,0,0\n\
run 0,500000,60.396,3,3,PC0,219667,8360,271973,0\n\
run 0,1000000,27.556,0,0,PC1A,296216,10550,193234,0\n\
run 0,1500000,48.096,1,1,PC0,148409,9514,342077,0\n";

#[test]
fn json_export_matches_golden_bytes() {
    let text = run_result_json(&golden_run()).to_pretty_string();
    assert_eq!(text, GOLDEN_JSON);
}

#[test]
fn csv_export_matches_golden_bytes() {
    let run = golden_run();
    let text = runs_csv([("run 0", &run)]);
    assert_eq!(text, GOLDEN_CSV);
}

#[test]
fn timeseries_csv_matches_golden_bytes() {
    let run = run_experiment(
        ServerConfig::c_pc1a()
            .with_duration(SimDuration::from_millis(2))
            .with_seed(7)
            .with_timeseries(SimDuration::from_micros(500)),
        WorkloadSpec::memcached_etc(),
        20_000.0,
    );
    let ts = run.timeseries.as_ref().expect("series enabled");
    assert_eq!(timeseries_csv("run 0", ts), GOLDEN_TIMESERIES_CSV);
}

#[test]
fn golden_json_round_trips_through_the_parser() {
    let parsed = JsonValue::parse(GOLDEN_JSON).expect("golden JSON parses");
    assert_eq!(
        parsed.get("config").and_then(JsonValue::as_str),
        Some("CPC1A")
    );
    assert_eq!(
        parsed.get("completed_requests").and_then(JsonValue::as_u64),
        Some(47)
    );
    assert_eq!(
        parsed
            .get("latency")
            .and_then(|l| l.get("p999_ns"))
            .and_then(JsonValue::as_u64),
        Some(209_056)
    );
    // Float fields survive exactly (shortest-round-trip formatting).
    assert_eq!(
        parsed.get("avg_soc_power_w").and_then(JsonValue::as_f64),
        Some(37.38770724)
    );
}

#[test]
fn exports_are_byte_identical_across_sequential_and_parallel_pools() {
    let build = |workers: usize| {
        let mut fleet = Fleet::new();
        for i in 0..4 {
            fleet.push(FleetMember::new(
                ServerConfig::c_pc1a()
                    .with_duration(SimDuration::from_millis(2))
                    .with_seed(Fleet::member_seed(7, i)),
                WorkloadSpec::memcached_etc(),
                20_000.0,
            ));
        }
        fleet.with_parallelism(workers)
    };
    let sequential = build(1).run();
    let parallel = build(8).run();
    let csv = |f: &FleetResult| runs_csv(f.runs.iter().map(|r| ("server", r)));
    assert_eq!(csv(&sequential), csv(&parallel));
    assert_eq!(
        fleet_result_json(&sequential).to_pretty_string(),
        fleet_result_json(&parallel).to_pretty_string()
    );
}
