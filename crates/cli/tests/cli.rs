//! Integration tests of the `apc-cli` command layer: spec execution end to
//! end, export determinism, and every documented error path.

use std::path::PathBuf;

use apc_analysis::export::JsonValue;
use apc_cli::{execute, CliError, USAGE};

/// A scratch file unique to this test process, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir().join(format!("apc-cli-test-{}-{name}", std::process::id()));
        Scratch(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("temp paths are UTF-8")
    }

    fn write(&self, content: &str) -> &Self {
        std::fs::write(&self.0, content).expect("write scratch file");
        self
    }

    fn read(&self) -> String {
        std::fs::read_to_string(&self.0).expect("read scratch file")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

const SINGLE_SPEC: &str = r#"
[experiment]
kind = "single"
name = "test-single"
seed = 7
duration_ms = 2

[workload]
kind = "memcached"
rate_per_sec = 20_000
"#;

const CLUSTER_SPEC: &str = r#"
[experiment]
kind = "cluster"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 40_000

[cluster]
nodes = 2
policy = "jsq"

[telemetry]
sample_interval_us = 1000
"#;

#[test]
fn runs_a_single_spec_to_json() {
    let spec = Scratch::new("single.toml");
    spec.write(SINGLE_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    // The JSON shape is count-independent: one run still exports the fleet
    // object (consumers keep parsing when a count changes).
    assert_eq!(parsed.get("servers").and_then(JsonValue::as_u64), Some(1));
    let run = &parsed.get("runs").and_then(JsonValue::as_array).unwrap()[0];
    assert_eq!(
        run.get("config").and_then(JsonValue::as_str),
        Some("CPC1A"),
        "platform defaults to cpc1a"
    );
    assert!(
        run.get("completed_requests")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
}

#[test]
fn cluster_spec_runs_end_to_end_with_timeseries() {
    let spec = Scratch::new("cluster.toml");
    spec.write(CLUSTER_SPEC);
    let json_out = Scratch::new("cluster.json");
    let ts_out = Scratch::new("cluster-ts.csv");
    let stdout = execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--out",
        json_out.path(),
        "--timeseries-out",
        ts_out.path(),
    ]))
    .unwrap();
    assert!(stdout.contains("wrote"), "{stdout}");
    let parsed = JsonValue::parse(&json_out.read()).expect("file is valid JSON");
    // Cluster outcomes always export as an array (one entry per repeat).
    let clusters = parsed.as_array().expect("cluster JSON is an array");
    assert_eq!(clusters.len(), 1);
    assert_eq!(
        clusters[0].get("policy").and_then(JsonValue::as_str),
        Some("join-shortest-queue")
    );
    let ts = ts_out.read();
    assert!(ts.starts_with("node,at_ns,"), "{ts}");
    assert!(ts.contains("node 0,") && ts.contains("node 1,"));
    // The `validate` subcommand round-trips the export.
    let report = execute(&args(&["validate", json_out.path()])).unwrap();
    assert!(report.contains("valid JSON (array"), "{report}");
}

/// An 8-node JSQ cluster on a two-tier 5 us fabric at 160k req/s for
/// 500 ms: a single run with cross-node wire traffic over a horizon of about
/// a million events, whose bytes must not depend on the worker count.
const FABRIC_CLUSTER_SPEC: &str = r#"
[experiment]
kind = "cluster"
seed = 7
duration_ms = 500

[platform]
name = "cpc1a"

[workload]
kind = "memcached"
rate_per_sec = 160_000
pattern = "constant"

[cluster]
nodes = 8
policy = "jsq"

[network]
topology = "two-tier"
latency_us = 5
rack_size = 4
"#;

#[test]
fn identical_seeds_export_byte_identically_across_pool_sizes() {
    let spec = Scratch::new("pool.toml");
    spec.write(CLUSTER_SPEC);
    let run = |workers: &str, format: &str| {
        execute(&args(&[
            "run",
            spec.path(),
            "--format",
            format,
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    assert_eq!(run("1", "json"), run("8", "json"));
    assert_eq!(run("1", "csv"), run("8", "csv"));

    let fabric = Scratch::new("pool-fabric.toml");
    fabric.write(FABRIC_CLUSTER_SPEC);
    let run = |workers: &str| {
        execute(&args(&[
            "run",
            fabric.path(),
            "--format",
            "json",
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    assert_eq!(
        run("1"),
        run("2"),
        "a fabric cluster depends on the worker count"
    );
}

#[test]
fn named_scenarios_run_through_the_cli() {
    let out = execute(&args(&[
        "run",
        "cluster-8-mid",
        "--duration-ms",
        "2",
        "--format",
        "csv",
    ]))
    .unwrap();
    assert!(out.starts_with("repeat,node,policy,routed,"), "{out}");
    assert_eq!(out.lines().count(), 9, "header + 8 nodes");

    let out = execute(&args(&["run", "cluster-8-trough", "--duration-ms", "2"])).unwrap();
    assert!(out.contains("cluster (power-aware)"), "{out}");
}

const CHAIN_SPEC: &str = r#"
[experiment]
kind = "chain"
name = "test-chain"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 4_000   # root chains per second

[chain]
nodes = 4
fanout = 4
policy = "jsq"
"#;

#[test]
fn chain_spec_runs_end_to_end() {
    let spec = Scratch::new("chain.toml");
    spec.write(CHAIN_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    // Chain outcomes always export as an array (one entry per repeat).
    let chains = parsed.as_array().expect("chain JSON is an array");
    assert_eq!(chains.len(), 1);
    let c = &chains[0];
    assert_eq!(
        c.get("policy").and_then(JsonValue::as_str),
        Some("join-shortest-queue")
    );
    assert_eq!(
        c.get("graph").and_then(JsonValue::as_str),
        Some("1x frontend -> 4x kv-get")
    );
    assert!(
        c.get("chains_completed")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    let latency = c.get("chain_latency").expect("chain_latency object");
    for key in ["p50_ns", "p99_ns", "p999_ns"] {
        assert!(
            latency.get(key).and_then(JsonValue::as_u64).unwrap() > 0,
            "{key}"
        );
    }
    assert!(c.get("straggler").is_some(), "straggler breakdown exported");

    // The CSV shape leads with the chain percentiles header.
    let csv = execute(&args(&["run", spec.path(), "--format", "csv"])).unwrap();
    assert!(csv.starts_with("repeat,policy,graph,"), "{csv}");
    assert!(csv.contains("e2e_p999_ns"), "{csv}");
    assert!(csv.contains("straggler_p999_ns"), "{csv}");
    assert_eq!(csv.lines().count(), 2, "header + one run: {csv}");
}

#[test]
fn chain_exports_are_byte_identical_across_pool_sizes() {
    let spec = Scratch::new("chain-pool.toml");
    spec.write(CHAIN_SPEC);
    let run = |workers: &str, format: &str| {
        execute(&args(&[
            "run",
            spec.path(),
            "--format",
            format,
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    assert_eq!(run("1", "json"), run("8", "json"));
    assert_eq!(run("1", "csv"), run("8", "csv"));
}

#[test]
fn named_chain_scenarios_run_through_the_cli() {
    let out = execute(&args(&[
        "run",
        "mesh-8-fanout4",
        "--duration-ms",
        "2",
        "--platform",
        "cpc1a",
    ]))
    .unwrap();
    assert!(
        out.contains("mesh-8-fanout4 (cpc1a, join-shortest-queue)"),
        "{out}"
    );
    assert!(out.contains("e2e p50"), "{out}");
}

#[test]
fn chain_spec_validation_errors_carry_line_numbers() {
    // Missing [chain] table.
    let spec = Scratch::new("chain-missing.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(err.to_string().contains("needs a [chain] table"), "{err}");
    // Missing fanout.
    let spec = Scratch::new("chain-nofanout.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n[chain]\nnodes = 4\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(err.to_string().contains("[chain] needs `fanout`"), "{err}");
    // A [chain] table under a different kind is a conflict.
    let spec = Scratch::new("chain-conflict.toml");
    spec.write(
        "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n[chain]\nnodes = 4\nfanout = 2\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(
        err.to_string().contains("[chain] conflicts with kind"),
        "{err}"
    );
    // Non-constant patterns cannot drive the coordinator's root stream.
    let spec = Scratch::new("chain-pattern.toml");
    spec.write(
        "[experiment]\nkind = \"chain\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\npattern = \"diurnal\"\n\n[chain]\nnodes = 4\nfanout = 2\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    assert!(
        err.to_string().contains("chain experiments support only"),
        "{err}"
    );
}

const NETWORK_CHAIN_SPEC: &str = r#"
[experiment]
kind = "chain"
name = "test-chain-net"
seed = 7
duration_ms = 5

[workload]
kind = "memcached"
rate_per_sec = 4_000

[chain]
nodes = 4
fanout = 4
policy = "jsq"

[network]
topology = "two-tier"
latency_us = 5
rack_size = 2
"#;

#[test]
fn network_spec_runs_and_exports_fabric_stats() {
    let spec = Scratch::new("chain-net.toml");
    spec.write(NETWORK_CHAIN_SPEC);
    let out = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    let c = &parsed.as_array().expect("chain JSON is an array")[0];
    let net = c.get("network").expect("network object exported");
    assert_eq!(
        net.get("topology").and_then(JsonValue::as_str),
        Some("two-tier")
    );
    assert_eq!(
        net.get("link_latency_ns").and_then(JsonValue::as_u64),
        Some(5_000)
    );
    assert!(net.get("messages").and_then(JsonValue::as_u64).unwrap() > 0);
    assert!(
        net.get("total_wire_delay_ns")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    // The CSV gains the network columns only because a fabric ran.
    let csv = execute(&args(&["run", spec.path(), "--format", "csv"])).unwrap();
    assert!(csv.contains("net_topology"), "{csv}");
    assert!(csv.contains("two-tier"), "{csv}");
}

#[test]
fn network_spec_errors_are_line_numbered_usage_errors() {
    // Each bad table: the error names the offending line and exits 2.
    for (name, network, needle, line) in [
        (
            "net-topo.toml",
            "topology = \"ring\"\n",
            "unknown topology `ring`",
            "line 18",
        ),
        (
            "net-key.toml",
            "topology = \"flat\"\njitter_us = 3\n",
            "unknown key `jitter_us`",
            "line 19",
        ),
        (
            "net-latency.toml",
            "topology = \"flat\"\nlatency_us = -5\n",
            "`latency_us` must be >= 0",
            "line 19",
        ),
        (
            "net-bw.toml",
            "topology = \"flat\"\nbandwidth_gbps = 0\n",
            "`bandwidth_gbps` must be > 0",
            "line 19",
        ),
    ] {
        let spec = Scratch::new(name);
        // CHAIN_SPEC is 16 lines ending in a newline; [network] lands on
        // line 17 and its first key on line 18.
        spec.write(&format!("{CHAIN_SPEC}\n[network]\n{network}"));
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {network:?}, got {err:?}");
        };
        assert!(message.contains(needle), "{network:?} -> {message}");
        assert!(message.contains(line), "{network:?} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // A [network] table on a non-cluster kind stays a plain input error
    // (exit 1), like every other shape conflict.
    let spec = Scratch::new("net-kind.toml");
    spec.write(&format!("{SINGLE_SPEC}\n[network]\ntopology = \"flat\"\n"));
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(
        message.contains("[network] applies to cluster and chain"),
        "{message}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn trace_spec_runs_and_writes_chrome_trace_json() {
    let spec = Scratch::new("trace-chain.toml");
    // CHAIN_SPEC plus a [trace] table; every root chain is traced.
    spec.write(&format!("{CHAIN_SPEC}\n[trace]\nsample_every = 1\n"));
    let json_out = Scratch::new("trace-chain.json");
    let trace_out = Scratch::new("trace-chain-trace.json");
    let stdout = execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--out",
        json_out.path(),
        "--trace-out",
        trace_out.path(),
        "--profile",
    ]))
    .unwrap();
    assert!(stdout.contains("wrote"), "{stdout}");

    // The result export gains the self-profiler report (and only that —
    // simulated values are pinned elsewhere to be identical either way).
    let parsed = JsonValue::parse(&json_out.read()).expect("result JSON parses");
    let c = &parsed.as_array().expect("chain JSON is an array")[0];
    let profile = c.get("profile").expect("profile report exported");
    let engine = profile.get("engine").expect("engine counters");
    assert!(
        engine
            .get("dispatched")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );
    assert!(profile
        .get("events")
        .and_then(JsonValue::as_array)
        .is_some());
    assert!(
        c.get("events_dispatched")
            .and_then(JsonValue::as_u64)
            .unwrap()
            > 0
    );

    // The Chrome trace file is valid JSON with complete events carrying
    // the span taxonomy; `validate` round-trips it like any other export.
    let trace = JsonValue::parse(&trace_out.read()).expect("trace JSON parses");
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "no spans exported");
    for event in events {
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
    }
    for cat in ["queue", "service", "root", "tier"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("cat").and_then(JsonValue::as_str) == Some(cat)),
            "no `{cat}` span in the export"
        );
    }
    let report = execute(&args(&["validate", trace_out.path()])).unwrap();
    assert!(report.contains("valid JSON (object"), "{report}");
}

#[test]
fn trace_exports_are_byte_identical_across_pool_sizes() {
    let spec = Scratch::new("trace-pool.toml");
    spec.write(&format!("{CHAIN_SPEC}\n[trace]\nsample_every = 2\n"));
    let run = |workers: &str| {
        let out = Scratch::new(&format!("trace-pool-{workers}.json"));
        execute(&args(&[
            "run",
            spec.path(),
            "--trace-out",
            out.path(),
            "--parallelism",
            workers,
        ]))
        .unwrap();
        out.read()
    };
    assert_eq!(run("1"), run("8"));
}

#[test]
fn trace_spec_errors_are_line_numbered_usage_errors() {
    // Each bad table: the error names the offending line and exits 2.
    for (name, trace, needle, line) in [
        (
            "trace-key.toml",
            "sample_every = 4\nspan_cap = 3\n",
            "unknown key `span_cap`",
            "line 19",
        ),
        (
            "trace-rate.toml",
            "sample_every = 0\n",
            "`sample_every` must be at least 1",
            "line 18",
        ),
        (
            "trace-float.toml",
            "sample_every = 0.5\n",
            "`sample_every` must be a non-negative integer",
            "line 18",
        ),
        (
            "trace-bound.toml",
            "sample_every = 4\nmax_spans = 0\n",
            "`max_spans` must be at least 1",
            "line 19",
        ),
        (
            "trace-missing.toml",
            "max_spans = 16\n",
            "[trace] needs `sample_every`",
            "line 17",
        ),
    ] {
        let spec = Scratch::new(name);
        // Same arithmetic as the [network] error tests: CHAIN_SPEC is 16
        // lines, so [trace] lands on line 17 and its first key on line 18.
        spec.write(&format!("{CHAIN_SPEC}\n[trace]\n{trace}"));
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {trace:?}, got {err:?}");
        };
        assert!(message.contains(needle), "{trace:?} -> {message}");
        assert!(message.contains(line), "{trace:?} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // A [trace] table on a fleet/sweep kind stays a plain input error
    // (exit 1), like every other shape conflict.
    let spec = Scratch::new("trace-kind.toml");
    spec.write(
        "[experiment]\nkind = \"fleet\"\n\n[workload]\nkind = \"memcached\"\n\
         rate_per_sec = 100\n\n[fleet]\nservers = 2\n\n[trace]\nsample_every = 4\n",
    );
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(
        message.contains("[trace] applies to single, cluster and chain"),
        "{message}"
    );
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn trace_out_needs_a_trace_table_and_profile_needs_a_spec() {
    // --trace-out without a [trace] table fails before anything runs.
    let spec = Scratch::new("trace-noflag.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&[
        "run",
        spec.path(),
        "--trace-out",
        "/tmp/nope.json",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("[trace]")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 2);
    // Named scenarios are specs like any other: without a [trace] table
    // they record no spans, but `--profile` applies to them.
    let err = execute(&args(&[
        "run",
        "mesh-8-fanout4",
        "--trace-out",
        "/tmp/nope.json",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--trace-out")),
        "{err:?}"
    );
    let out = execute(&args(&[
        "run",
        "cluster-8-mid",
        "--profile",
        "--duration-ms",
        "2",
        "--format",
        "json",
    ]))
    .unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    let cluster = &parsed.as_array().expect("cluster JSON is an array")[0];
    assert!(cluster.get("profile").is_some(), "{out}");
}

const SWEEP_SPEC: &str = r#"
[experiment]
kind = "sweep"
duration_ms = 2

[workload]
kind = "memcached"
rate_per_sec = 1

[sweep]
rates = [5_000, 20_000]
platforms = ["cshallow", "cpc1a"]
"#;

#[test]
fn sweep_expands_the_cartesian_grid() {
    let spec = Scratch::new("sweep.toml");
    spec.write(SWEEP_SPEC);
    let out = execute(&args(&["sweep", spec.path(), "--format", "csv"])).unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 5, "header + 2x2 grid: {out}");
    assert!(lines[1].starts_with("cshallow@5000,"));
    assert!(lines[4].starts_with("cpc1a@20000,"));
}

#[test]
fn sweep_exports_are_byte_identical_across_pool_sizes() {
    let spec = Scratch::new("sweep-pool.toml");
    spec.write(SWEEP_SPEC);
    let run = |workers: &str, format: &str| {
        execute(&args(&[
            "sweep",
            spec.path(),
            "--format",
            format,
            "--parallelism",
            workers,
        ]))
        .unwrap()
    };
    // Four grid points over one, three and more workers than points.
    let csv = run("1", "csv");
    assert_eq!(csv, run("3", "csv"));
    assert_eq!(csv, run("16", "csv"));
    assert_eq!(run("1", "json"), run("3", "json"));
}

#[test]
fn spec_parallelism_key_spreads_repeats_without_changing_bytes() {
    let spec = Scratch::new("repeats-pool.toml");
    spec.write(&CLUSTER_SPEC.replace(
        "duration_ms = 5\n",
        "duration_ms = 5\nrepeats = 3\nparallelism = 3\n",
    ));
    // No flag: the spec's own key sizes the pool; the flag wins over it.
    let keyed = execute(&args(&["run", spec.path(), "--format", "json"])).unwrap();
    let flagged = execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--parallelism",
        "1",
    ]))
    .unwrap();
    assert_eq!(keyed, flagged);
    let parsed = JsonValue::parse(&keyed).expect("output is valid JSON");
    let repeats = parsed.as_array().expect("cluster JSON is an array");
    assert_eq!(repeats.len(), 3, "one entry per repeat");
    assert_ne!(
        repeats[0].get("routed"),
        repeats[1].get("routed"),
        "repeats run under distinct seeds"
    );
}

#[test]
fn parallelism_below_one_is_a_usage_error() {
    let single = Scratch::new("zero-workers.toml");
    single.write(SINGLE_SPEC);
    let cluster = Scratch::new("zero-workers-cluster.toml");
    cluster.write(CLUSTER_SPEC);
    for target in [single.path(), cluster.path(), "cluster-8-mid"] {
        let err = execute(&args(&["run", target, "--parallelism", "0"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("at least 1")),
            "{target}: {err:?}"
        );
        assert_eq!(err.exit_code(), 2);
    }
}

#[test]
fn duration_beyond_the_nanosecond_range_is_a_usage_error() {
    // u64::MAX / 1e6 ms is the longest horizon whose nanosecond count fits
    // a u64; anything longer would overflow `SimDuration::from_millis`.
    let single = Scratch::new("huge-horizon.toml");
    single.write(SINGLE_SPEC);
    let cluster = Scratch::new("huge-horizon-cluster.toml");
    cluster.write(CLUSTER_SPEC);
    for target in [single.path(), cluster.path(), "cluster-8-mid"] {
        for ms in ["18446744073710", "18446744073709551615"] {
            let err = execute(&args(&["run", target, "--duration-ms", ms])).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("at most 18446744073709")),
                "{target} {ms}: {err:?}"
            );
            assert_eq!(err.exit_code(), 2);
        }
    }
}

#[test]
fn a_rate_too_small_to_arrive_runs_to_the_horizon() {
    // 1e9 / 1e-300 ns overflows to an infinite mean gap: the first arrival
    // never comes, so the balancer's arrival stream, for a single server as
    // for a cluster, must saturate to "never" instead of landing every
    // arrival at t = 0 and looping forever.
    let single = Scratch::new("tiny-rate.toml");
    single.write(&SINGLE_SPEC.replace("rate_per_sec = 20_000", "rate_per_sec = 1e-300"));
    let out = execute(&args(&["run", single.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    let run = &parsed.get("runs").and_then(JsonValue::as_array).unwrap()[0];
    assert_eq!(
        run.get("completed_requests").and_then(JsonValue::as_u64),
        Some(0)
    );

    let cluster = Scratch::new("tiny-rate-cluster.toml");
    cluster.write(&CLUSTER_SPEC.replace("rate_per_sec = 40_000", "rate_per_sec = 1e-300"));
    let out = execute(&args(&["run", cluster.path(), "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&out).expect("output is valid JSON");
    let cluster = &parsed.as_array().expect("cluster JSON is an array")[0];
    assert_eq!(
        cluster.get("total_routed").and_then(JsonValue::as_u64),
        Some(0)
    );
    let nodes = cluster
        .get("nodes")
        .and_then(|n| n.get("runs"))
        .and_then(JsonValue::as_array)
        .expect("per-node runs");
    assert_eq!(nodes.len(), 2);
    for node in nodes {
        assert_eq!(
            node.get("completed_requests").and_then(JsonValue::as_u64),
            Some(0)
        );
    }
}

#[test]
fn rates_above_one_request_per_ns_are_line_numbered_usage_errors() {
    // Above 1e9 req/s every gap rounds to 0 ns and simulated time would
    // never advance.
    let single = Scratch::new("huge-rate.toml");
    single.write(&SINGLE_SPEC.replace("rate_per_sec = 20_000", "rate_per_sec = 1e300"));
    let sweep = Scratch::new("huge-rate-sweep.toml");
    sweep.write(
        &format!("{SINGLE_SPEC}\n[sweep]\nrates = [1_000, 2e9]\n")
            .replace("kind = \"single\"", "kind = \"sweep\""),
    );
    for (command, spec, needle, line) in [
        (
            "run",
            &single,
            "`rate_per_sec` must be at most 1e9",
            "line 10",
        ),
        ("sweep", &sweep, "`rates` must be at most 1e9", "line 13"),
    ] {
        let err = execute(&args(&[command, spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {command}, got {err:?}");
        };
        assert!(message.contains(needle), "{command} -> {message}");
        assert!(message.contains(line), "{command} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // Exactly one request per ns is still accepted by the parser.
    let edge = Scratch::new("edge-rate.toml");
    edge.write(&SINGLE_SPEC.replace("rate_per_sec = 20_000", "rate_per_sec = 1e9"));
    let spec = std::fs::read_to_string(edge.path()).unwrap();
    assert!(apc_cli::spec::ExperimentSpec::parse(&spec).is_ok());
}

/// A fleet spec with a flash-crowd pattern; `{rate}`, `{peak}` and
/// `{duration}` are substituted per case.
const FLASH_SPEC: &str = r#"
[experiment]
kind = "fleet"
duration_ms = {duration}

[workload]
kind = "memcached"
rate_per_sec = {rate}
pattern = "flash-crowd"
peak_multiplier = {peak}

[fleet]
servers = 2
"#;

#[test]
fn spec_inputs_that_would_panic_or_hang_are_line_numbered_usage_errors() {
    let flash = |rate: &str, peak: &str, duration: &str| {
        FLASH_SPEC
            .replace("{rate}", rate)
            .replace("{peak}", peak)
            .replace("{duration}", duration)
    };
    for (name, text, needle, line) in [
        // Below 1 the burst would be a trough, which the arrival process
        // refuses with a panic.
        (
            "peak-below-one.toml",
            flash("20_000", "0.5", "1"),
            "`peak_multiplier` must be >= 1, got 0.5",
            "line 10",
        ),
        // The burst rate must stay within one request per ns, like the
        // base rate, or simulated time stalls in the burst.
        (
            "burst-too-fast.toml",
            flash("20_000", "1e9", "1"),
            "burst rate",
            "line 10",
        ),
        // Every server's rate is checked against the burst.
        (
            "burst-array.toml",
            flash("[1_000, 2e8]", "6", "1"),
            "got 1.2e9",
            "line 10",
        ),
        // A horizon beyond u64 nanoseconds is rejected like --duration-ms,
        // not saturated to a run that never ends.
        (
            "huge-duration.toml",
            flash("20_000", "6", "1e20"),
            "`duration_ms` must be at most 18446744073709",
            "line 4",
        ),
        // A per-server rate above one request per ns.
        (
            "array-rate.toml",
            flash("[1_000, 2e9]", "1", "1"),
            "`rate_per_sec` must be at most 1e9",
            "line 8",
        ),
    ] {
        let spec = Scratch::new(name);
        spec.write(&text);
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Usage(message) = &err else {
            panic!("expected usage error for {name}, got {err:?}");
        };
        assert!(message.contains(needle), "{name} -> {message}");
        assert!(message.contains(line), "{name} -> {message}");
        assert_eq!(err.exit_code(), 2);
    }
    // The edges still run: no burst at all, and a burst of exactly one
    // request per ns stays accepted by the parser.
    let spec = Scratch::new("peak-one.toml");
    spec.write(&flash("20_000", "1", "1"));
    execute(&args(&["run", spec.path()])).unwrap();
    let text = flash("1e8", "10", "1");
    assert!(apc_cli::spec::ExperimentSpec::parse(&text).is_ok());
}

#[test]
fn per_server_arrays_are_fleet_only_and_one_per_server() {
    for (name, text, needle, line) in [
        (
            "array-length.toml",
            FLASH_SPEC
                .replace("{rate}", "[1_000, 2_000, 3_000]")
                .replace("{peak}", "2")
                .replace("{duration}", "1"),
            "`rate_per_sec` lists 3 entries for 2 servers",
            "line 8",
        ),
        (
            "array-cluster.toml",
            CLUSTER_SPEC.replace("kind = \"memcached\"", "kind = [\"memcached\", \"kafka\"]"),
            "`kind` may be an array only for kind = \"fleet\"",
            "line 8",
        ),
        (
            "array-workload.toml",
            FLASH_SPEC
                .replace("kind = \"memcached\"", "kind = [\"memcached\", \"redis\"]")
                .replace("{rate}", "1_000")
                .replace("{peak}", "2")
                .replace("{duration}", "1"),
            "unknown workload `redis`",
            "line 7",
        ),
    ] {
        let spec = Scratch::new(name);
        spec.write(&text);
        let err = execute(&args(&["run", spec.path()])).unwrap_err();
        let CliError::Input(message) = &err else {
            panic!("expected input error for {name}, got {err:?}");
        };
        assert!(message.contains(needle), "{name} -> {message}");
        assert!(message.contains(line), "{name} -> {message}");
    }
}

#[test]
fn list_names_every_library_scenario() {
    let table = execute(&args(&["list"])).unwrap();
    for name in [
        "diurnal",
        "flash-crowd",
        "heterogeneous",
        "low-load-sweep",
        "cluster-8-mid",
        "cluster-8-trough",
        "cluster-16-kafka",
        "mesh-8-fanout4",
        "mesh-16-memcached",
    ] {
        assert!(table.contains(name), "missing {name} in\n{table}");
    }
    let json = execute(&args(&["list", "--format", "json"])).unwrap();
    let parsed = JsonValue::parse(&json).expect("list JSON parses");
    assert_eq!(parsed.as_array().map(<[_]>::len), Some(9));
}

// ---- error paths -------------------------------------------------------

#[test]
fn malformed_specs_fail_with_line_numbers() {
    let spec = Scratch::new("bad.toml");
    spec.write("[experiment]\nkind = \"single\"\n[workload]\nkind = memcached\n");
    let err = execute(&args(&["run", spec.path()])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(message.contains("line 4"), "{message}");
    assert!(message.contains("invalid value"), "{message}");
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn unknown_scenario_names_are_rejected_with_suggestions() {
    let err = execute(&args(&["run", "no-such-scenario"])).unwrap_err();
    let CliError::Input(message) = &err else {
        panic!("expected input error, got {err:?}");
    };
    assert!(message.contains("unknown scenario"), "{message}");
    assert!(message.contains("cluster-8-mid"), "{message}");
}

#[test]
fn conflicting_flags_are_usage_errors() {
    // The same flag twice.
    let err = execute(&args(&[
        "run",
        "cluster-8-mid",
        "--format",
        "json",
        "--format",
        "csv",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("given twice")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 2);

    // A policy on a fleet scenario, or on a single spec file: neither
    // routes requests.
    let spec = Scratch::new("conflict.toml");
    spec.write(SINGLE_SPEC);
    for (target, kind) in [("diurnal", "fleet"), (spec.path(), "single")] {
        let err = execute(&args(&["run", target, "--policy", "jsq"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m)
                if m.contains("--policy") && m.contains(&format!("kind = \"{kind}\""))),
            "{target}: {err:?}"
        );
    }

    // A platform override on a sweep, whether `[sweep] platforms`, a
    // [platform] table or the default declares its axis.
    let sweep = Scratch::new("conflict-sweep.toml");
    let bare_sweep = Scratch::new("conflict-bare-sweep.toml");
    sweep.write(SWEEP_SPEC);
    bare_sweep.write(&SWEEP_SPEC.replace("platforms = [\"cshallow\", \"cpc1a\"]\n", ""));
    for target in [sweep.path(), bare_sweep.path()] {
        let err = execute(&args(&["run", target, "--platform", "cdeep"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m)
                if m.contains("--platform") && m.contains("kind = \"sweep\"")),
            "{target}: {err:?}"
        );
        // `sweep` takes no `--platform` at all, so no shard of a sweep runs
        // on a platform the others do not, in either flag order.
        for flags in [
            ["--shard", "0/2", "--platform", "cdeep"],
            ["--platform", "cdeep", "--shard", "1/2"],
        ] {
            let mut argv = vec!["sweep", target];
            argv.extend(flags);
            argv.extend(["--out", "/tmp/apc-cli-never-written.json"]);
            let err = execute(&args(&argv)).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("`--platform`")),
                "{argv:?}: {err:?}"
            );
        }
    }

    // --timeseries-out without a [telemetry] table.
    let err = execute(&args(&[
        "run",
        spec.path(),
        "--timeseries-out",
        "/tmp/nope.csv",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("[telemetry]")),
        "{err:?}"
    );
}

#[test]
fn help_prints_the_usage_and_every_listed_command_is_dispatched() {
    for flag in ["help", "--help", "-h"] {
        assert_eq!(execute(&args(&[flag])).unwrap(), format!("{USAGE}\n"));
    }
    // The first word of each entry of the usage text's command list.
    let listed = USAGE
        .split_once("commands:\n")
        .and_then(|(_, rest)| rest.split_once("\n\n"))
        .expect("a command list")
        .0;
    let commands: Vec<&str> = listed
        .lines()
        .filter_map(|line| line.strip_prefix("  "))
        .filter(|entry| !entry.starts_with(' '))
        .filter_map(|entry| entry.split_whitespace().next())
        .collect();
    assert_eq!(commands, ["list", "run", "sweep", "merge", "validate"]);
    // A listed command that `execute` no longer knows would fail as an
    // unknown command instead of on the flag.
    for command in commands {
        let err = execute(&args(&[command, "--no-such-flag"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("flag `--no-such-flag`")),
            "{command}: {err:?}"
        );
    }
}

#[test]
fn unknown_flags_and_commands_are_usage_errors() {
    let err = execute(&args(&["run", "diurnal", "--nodes", "4"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("--nodes")),
        "{err:?}"
    );
    // `run` runs cluster specs; there is no `cluster` command.
    for command in ["frobnicate", "cluster"] {
        let err = execute(&args(&[command, "cluster-8-mid"])).unwrap_err();
        let expected = format!("unknown command `{command}`");
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains(&expected)),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 2);
    }
    let err = execute(&args(&[])).unwrap_err();
    assert!(matches!(err, CliError::Usage(_)), "{err:?}");
}

#[test]
fn sweep_rejects_non_sweep_specs() {
    let spec = Scratch::new("notsweep.toml");
    spec.write(SINGLE_SPEC);
    let err = execute(&args(&["sweep", spec.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("not a sweep spec")),
        "{err:?}"
    );
    // A named scenario is a spec like any other, and no library spec sweeps.
    let err = execute(&args(&["sweep", "low-load-sweep"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("`low-load-sweep` is not a sweep spec")),
        "{err:?}"
    );
}

#[test]
fn platform_and_policy_override_every_spec_and_show_in_the_title() {
    // A spec file's own platform and policy give way to the flags, and the
    // table title names what actually ran.
    let cluster = Scratch::new("override-cluster.toml");
    cluster.write(CLUSTER_SPEC);
    let out = execute(&args(&[
        "run",
        cluster.path(),
        "--platform",
        "cdeep",
        "--policy",
        "random",
    ]))
    .unwrap();
    assert!(out.starts_with("== experiment (cdeep, random) =="), "{out}");
    let single = Scratch::new("override-single.toml");
    single.write(SINGLE_SPEC);
    let out = execute(&args(&[
        "run",
        single.path(),
        "--platform",
        "cshallow",
        "--format",
        "csv",
    ]))
    .unwrap();
    assert!(out.lines().nth(1).unwrap().contains(",Cshallow,"), "{out}");
    let out = execute(&args(&["run", single.path(), "--platform", "cshallow"])).unwrap();
    assert!(out.contains("test-single (cshallow)"), "{out}");
    // A sweep's rows name their platforms, so its title is the bare name;
    // without a declared axis it covers all three.
    let sweep = Scratch::new("override-sweep.toml");
    sweep.write(&SWEEP_SPEC.replace("platforms = [\"cshallow\", \"cpc1a\"]\n", ""));
    let out = execute(&args(&["sweep", sweep.path(), "--format", "csv"])).unwrap();
    assert_eq!(
        out.lines().count(),
        7,
        "header + 3 platforms x 2 rates: {out}"
    );
    let out = execute(&args(&["sweep", sweep.path(), "--seed", "3"])).unwrap();
    assert!(out.starts_with("== experiment =="), "{out}");
}

#[test]
fn validate_rejects_invalid_json() {
    let bad = Scratch::new("bad.json");
    bad.write("{\"unterminated\": ");
    let err = execute(&args(&["validate", bad.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("JSON error")),
        "{err:?}"
    );
    let err = execute(&args(&["validate", "/no/such/file.json"])).unwrap_err();
    assert!(matches!(err, CliError::Io(_)), "{err:?}");
}

/// Runs the `apc-cli` binary on the committed smoke spec (2 ms, JSON) with
/// `stdout` as its standard output; returns its exit code and stderr.
#[cfg(unix)]
fn run_binary_into(stdout: std::process::Stdio) -> (Option<i32>, String) {
    use std::process::{Command, Stdio};
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/smoke.toml"
    );
    let child = Command::new(env!("CARGO_BIN_EXE_apc-cli"))
        .args(["run", spec, "--format", "json", "--duration-ms", "2"])
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn apc-cli");
    let out = child.wait_with_output().expect("wait for apc-cli");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A reader that stops early (`apc-cli … | head -c 100`) closes the pipe:
/// the binary stops quietly with exit 0 instead of panicking. Its stdout is
/// a socket whose peer is already closed, so the first write fails with a
/// broken pipe whatever the output size.
#[cfg(unix)]
#[test]
fn closed_stdout_stops_quietly() {
    use std::os::fd::OwnedFd;
    use std::os::unix::net::UnixStream;
    let (reader, writer) = UnixStream::pair().expect("socket pair");
    drop(reader);
    let (code, stderr) = run_binary_into(OwnedFd::from(writer).into());
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

/// Any other failure to write the result is an I/O error: a message and
/// exit 1, no panic.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_stdout_fails_with_exit_1() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let (code, stderr) = run_binary_into(full.into());
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("apc-cli: "), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
