//! Integration tests of the streaming result path: `--stream-out`
//! incremental exports, `sweep --shard` checkpoints and `merge`.
//!
//! The contract under test is *byte identity*: streaming a result to disk,
//! or sharding a sweep across processes and merging the checkpoints, must
//! reproduce the buffered single-process artefact exactly — same bytes,
//! not just same numbers. Every identity assertion here compares whole
//! file contents.

use std::path::PathBuf;

use apc_analysis::export::JsonValue;
use apc_cli::{execute, CliError};

/// A scratch file unique to this test process, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("apc-stream-test-{}-{name}", std::process::id()));
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

const SWEEP_SPEC: &str = r#"
[experiment]
kind = "sweep"
name = "shard-sweep"
seed = 7
duration_ms = 2

[workload]
kind = "memcached"
rate_per_sec = 1

[sweep]
rates = [5_000, 20_000]
platforms = ["cshallow", "cpc1a"]
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

// ---- --stream-out ------------------------------------------------------

#[test]
fn streamed_sweep_output_is_byte_identical_to_buffered() {
    let spec = Scratch::new("sweep.toml");
    spec.write(SWEEP_SPEC);
    for format in ["json", "csv"] {
        let buffered = Scratch::new(&format!("sweep-buf.{format}"));
        let streamed = Scratch::new(&format!("sweep-stream.{format}"));
        execute(&args(&[
            "sweep",
            spec.path(),
            "--format",
            format,
            "--out",
            buffered.path(),
        ]))
        .unwrap();
        let stdout = execute(&args(&[
            "sweep",
            spec.path(),
            "--format",
            format,
            "--stream-out",
            streamed.path(),
        ]))
        .unwrap();
        assert!(stdout.contains("wrote"), "{stdout}");
        assert_eq!(buffered.read(), streamed.read(), "{format}");
    }
}

#[test]
fn streamed_cluster_output_and_timeseries_are_byte_identical_to_buffered() {
    let spec = Scratch::new("cluster.toml");
    spec.write(CLUSTER_SPEC);
    let buffered = Scratch::new("cluster-buf.json");
    let buffered_ts = Scratch::new("cluster-buf-ts.csv");
    let streamed = Scratch::new("cluster-stream.json");
    let streamed_ts = Scratch::new("cluster-stream-ts.csv");
    execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--out",
        buffered.path(),
        "--timeseries-out",
        buffered_ts.path(),
    ]))
    .unwrap();
    execute(&args(&[
        "run",
        spec.path(),
        "--format",
        "json",
        "--stream-out",
        streamed.path(),
        "--timeseries-out",
        streamed_ts.path(),
    ]))
    .unwrap();
    assert_eq!(buffered.read(), streamed.read());
    assert_eq!(buffered_ts.read(), streamed_ts.read());
    // The `cluster` alias streams the same bytes as `run`.
    let via_cluster = Scratch::new("cluster-alias.json");
    let via_cluster_ts = Scratch::new("cluster-alias-ts.csv");
    execute(&args(&[
        "cluster",
        spec.path(),
        "--format",
        "json",
        "--stream-out",
        via_cluster.path(),
        "--timeseries-out",
        via_cluster_ts.path(),
    ]))
    .unwrap();
    assert_eq!(buffered.read(), via_cluster.read());
    assert_eq!(buffered_ts.read(), via_cluster_ts.read());
}

#[test]
fn stream_out_flag_conflicts_are_usage_errors() {
    let spec = Scratch::new("conflicts.toml");
    spec.write(SWEEP_SPEC);
    // --stream-out and --out write the same artefact.
    let err = execute(&args(&[
        "sweep",
        spec.path(),
        "--format",
        "json",
        "--out",
        "/tmp/a.json",
        "--stream-out",
        "/tmp/b.json",
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("write the same artefact")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 2);
    // Tables are rendered whole; streaming needs json or csv.
    let err = execute(&args(&["sweep", spec.path(), "--stream-out", "/tmp/b.txt"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("tables are rendered whole")),
        "{err:?}"
    );
}

// ---- sweep --shard / merge ---------------------------------------------

#[test]
fn shard_checkpoints_merge_into_the_unsharded_artefact_byte_for_byte() {
    let spec = Scratch::new("shard.toml");
    spec.write(SWEEP_SPEC);
    let shard0 = Scratch::new("shard0.json");
    let shard1 = Scratch::new("shard1.json");
    for (shard, out) in [("0/2", &shard0), ("1/2", &shard1)] {
        let stdout = execute(&args(&[
            "sweep",
            spec.path(),
            "--shard",
            shard,
            "--out",
            out.path(),
        ]))
        .unwrap();
        assert!(stdout.contains("wrote"), "{stdout}");
    }
    // The checkpoint envelope is versioned and carries only this shard's
    // residue class of the grid.
    let ck = JsonValue::parse(&shard0.read()).expect("checkpoint is valid JSON");
    assert_eq!(
        ck.get("apc_sweep_checkpoint").and_then(JsonValue::as_u64),
        Some(1)
    );
    assert_eq!(
        ck.get("spec_name").and_then(JsonValue::as_str),
        Some("shard-sweep")
    );
    assert_eq!(ck.get("total_points").and_then(JsonValue::as_u64), Some(4));
    let points = ck.get("points").and_then(JsonValue::as_array).unwrap();
    assert_eq!(points.len(), 2, "2 of 4 grid points belong to shard 0");
    for p in points {
        let index = p.get("index").and_then(JsonValue::as_u64).unwrap();
        assert_eq!(index % 2, 0, "shard 0 holds even grid indices");
        assert!(p.get("sketch").is_some(), "point carries its sketch");
    }
    // Merged output == unsharded output, for every format — with the
    // shards given in reverse order, so ordering comes from grid indices,
    // not argument position.
    for format in ["json", "csv", "table"] {
        let unsharded = execute(&args(&["sweep", spec.path(), "--format", format])).unwrap();
        let merged = execute(&args(&[
            "merge",
            shard1.path(),
            shard0.path(),
            "--format",
            format,
        ]))
        .unwrap();
        assert_eq!(unsharded, merged, "{format}");
    }
}

#[test]
fn shard_flag_errors_are_usage_errors() {
    let spec = Scratch::new("shard-errs.toml");
    spec.write(SWEEP_SPEC);
    // Malformed or out-of-range shard spellings.
    for bad in ["2", "a/b", "1/0", "2/2", "3/2", "/2", "1/"] {
        let err = execute(&args(&[
            "sweep",
            spec.path(),
            "--shard",
            bad,
            "--out",
            "/tmp/ck.json",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("`--shard` must be `i/n`")),
            "{bad}: {err:?}"
        );
        assert_eq!(err.exit_code(), 2);
    }
    // A checkpoint needs a destination.
    let err = execute(&args(&["sweep", spec.path(), "--shard", "0/2"])).unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("needs `--out <path>`")),
        "{err:?}"
    );
    // Result-shaping flags belong to `merge`, not to the shard run.
    for flag in [
        &["--format", "json"][..],
        &["--stream-out", "/tmp/x.json"][..],
        &["--profile"][..],
    ] {
        let mut cmd = vec![
            "sweep",
            spec.path(),
            "--shard",
            "0/2",
            "--out",
            "/tmp/ck.json",
        ];
        cmd.extend_from_slice(flag);
        let err = execute(&args(&cmd)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("give it to `merge` instead")),
            "{flag:?}: {err:?}"
        );
    }
}

#[test]
fn merge_rejects_inconsistent_or_tampered_checkpoints() {
    let spec = Scratch::new("merge-errs.toml");
    spec.write(SWEEP_SPEC);
    let shard0 = Scratch::new("merge-errs0.json");
    let shard1 = Scratch::new("merge-errs1.json");
    for (shard, out) in [("0/2", &shard0), ("1/2", &shard1)] {
        execute(&args(&[
            "sweep",
            spec.path(),
            "--shard",
            shard,
            "--out",
            out.path(),
        ]))
        .unwrap();
    }

    // Too few checkpoints for the declared split.
    let err = execute(&args(&["merge", shard0.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("split 2 ways but 1 checkpoint")),
        "{err:?}"
    );
    assert_eq!(err.exit_code(), 1);

    // The same shard twice.
    let err = execute(&args(&["merge", shard0.path(), shard0.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("shard 0 given more than once")),
        "{err:?}"
    );

    // A shard from a different sweep.
    let other_spec = Scratch::new("merge-other.toml");
    other_spec.write(&SWEEP_SPEC.replace("shard-sweep", "other-sweep"));
    let other1 = Scratch::new("merge-other1.json");
    execute(&args(&[
        "sweep",
        other_spec.path(),
        "--shard",
        "1/2",
        "--out",
        other1.path(),
    ]))
    .unwrap();
    let err = execute(&args(&["merge", shard0.path(), other1.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("does not match `shard-sweep`")),
        "{err:?}"
    );

    // Not a checkpoint at all.
    let junk = Scratch::new("merge-junk.json");
    junk.write("{\"runs\": []}\n");
    let err = execute(&args(&["merge", junk.path(), shard1.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("not a sweep checkpoint")),
        "{err:?}"
    );

    // A tampered summary: edit one printed percentile so it no longer
    // agrees with the point's sketch. The strict loader must refuse it —
    // this is the guard that keeps merged artefacts exact.
    let text = shard0.read();
    let needle = "\"p50_ns\": ";
    let at = text.find(needle).expect("checkpoint prints p50") + needle.len();
    let end = at + text[at..].find(',').expect("value is comma-terminated");
    let tampered = Scratch::new("merge-tampered.json");
    tampered.write(&format!("{}{}{}", &text[..at], "1", &text[end..]));
    let err = execute(&args(&["merge", tampered.path(), shard1.path()])).unwrap_err();
    assert!(
        matches!(&err, CliError::Input(m) if m.contains("does not match its sketch")),
        "{err:?}"
    );

    // A missing file is an I/O error.
    let err = execute(&args(&["merge", "/no/such/checkpoint.json"])).unwrap_err();
    assert!(matches!(err, CliError::Io(_)), "{err:?}");
}
