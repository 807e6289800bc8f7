//! Integration tests of the result path: `--out` written as results
//! finish, `sweep --shard` checkpoints and `merge`.
//!
//! The contract under test is *byte identity*: writing a result to disk as
//! it finishes, or sharding a sweep across processes and merging the
//! checkpoints, must reproduce the single-process stdout artefact exactly —
//! same bytes, not just same numbers. Every identity assertion here
//! compares whole file contents.

use std::path::PathBuf;

use apc_analysis::export::JsonValue;
use apc_cli::runner::plan_spec;
use apc_cli::spec::ExperimentSpec;
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

// ---- --out -------------------------------------------------------------

#[test]
fn sweep_out_file_holds_the_stdout_bytes() {
    let spec = Scratch::new("sweep.toml");
    spec.write(SWEEP_SPEC);
    for format in ["json", "csv", "table"] {
        let out = Scratch::new(&format!("sweep-out.{format}"));
        let printed = execute(&args(&["sweep", spec.path(), "--format", format])).unwrap();
        let stdout = execute(&args(&[
            "sweep",
            spec.path(),
            "--format",
            format,
            "--out",
            out.path(),
        ]))
        .unwrap();
        assert_eq!(
            stdout,
            format!("wrote {} ({} bytes)\n", out.path(), printed.len()),
            "{format}"
        );
        assert_eq!(out.read(), printed, "{format}");
    }
}

#[test]
fn cluster_out_and_timeseries_files_match_the_finished_outcome() {
    // Two repeats over a fabric: series labels carry the repeat, and every
    // CSV row carries the fabric columns.
    let repeated = CLUSTER_SPEC.replace("duration_ms = 5\n", "duration_ms = 5\nrepeats = 2\n")
        + "\n[network]\ntopology = \"flat\"\nlatency_us = 5\n";
    for (name, text, label, network) in [
        ("cluster", CLUSTER_SPEC, "\nnode 1,", false),
        ("repeated", repeated.as_str(), "\nrepeat 1 node 1,", true),
    ] {
        let spec = Scratch::new(&format!("{name}.toml"));
        spec.write(text);
        let outcome = plan_spec(&ExperimentSpec::parse(text).unwrap(), None).run();
        let series = outcome.timeseries_csv().expect("the spec records a series");
        assert!(
            series.starts_with("node,at_ns,") && series.contains(label),
            "{name}"
        );
        for format in ["json", "csv"] {
            let printed = execute(&args(&["run", spec.path(), "--format", format])).unwrap();
            assert_eq!(
                printed,
                outcome.render(apc_cli::runner::OutputFormat::parse(format).unwrap())
            );
            if format == "csv" {
                let header = printed.lines().next().unwrap();
                assert_eq!(header.contains("net_topology"), network, "{name}");
                let columns = header.split(',').count();
                assert!(
                    printed.lines().all(|row| row.split(',').count() == columns),
                    "{name}: {printed}"
                );
            }
            let out = Scratch::new(&format!("{name}-out.{format}"));
            let ts = Scratch::new(&format!("{name}-ts-{format}.csv"));
            execute(&args(&[
                "run",
                spec.path(),
                "--format",
                format,
                "--out",
                out.path(),
                "--timeseries-out",
                ts.path(),
            ]))
            .unwrap();
            assert_eq!(out.read(), printed, "{name} {format}");
            assert_eq!(ts.read(), series, "{name} {format}");
        }
    }
}

#[test]
fn unwritable_out_fails_before_the_run_and_leaves_no_series_file() {
    let spec = Scratch::new("unwritable.toml");
    spec.write(CLUSTER_SPEC);
    let missing_dir = std::env::temp_dir().join(format!(
        "apc-stream-test-{}-no-such-dir",
        std::process::id()
    ));
    let out = missing_dir.join("out");
    let out = out.to_str().expect("temp paths are UTF-8");
    for format in ["json", "csv", "table"] {
        let ts = Scratch::new(&format!("unwritable-ts-{format}.csv"));
        let err = execute(&args(&[
            "run",
            spec.path(),
            "--format",
            format,
            "--out",
            out,
            "--timeseries-out",
            ts.path(),
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Io(m) if m.contains(&format!("cannot write `{out}`"))),
            "{format}: {err:?}"
        );
        assert_eq!(err.exit_code(), 1);
        assert!(!ts.0.exists(), "{format}: the series file was created");
    }
    // A shard's checkpoint is created before the shard runs too: at 10,000
    // s per point the run would take minutes, the failure takes none.
    let sweep = Scratch::new("unwritable-sweep.toml");
    sweep.write(SWEEP_SPEC);
    let started = std::time::Instant::now();
    let err = execute(&args(&[
        "sweep",
        sweep.path(),
        "--shard",
        "0/2",
        "--duration-ms",
        "10000000",
        "--out",
        out,
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Io(m) if m.contains(&format!("cannot write `{out}`"))),
        "shard: {err:?}"
    );
    assert_eq!(err.exit_code(), 1);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "the shard ran before its checkpoint was created"
    );
    // Both files fill in as results finish, so they cannot share a path.
    let shared = Scratch::new("shared-path.csv");
    let err = execute(&args(&[
        "run",
        spec.path(),
        "--out",
        shared.path(),
        "--timeseries-out",
        shared.path(),
    ]))
    .unwrap_err();
    assert!(
        matches!(&err, CliError::Usage(m) if m.contains("name the same file")),
        "{err:?}"
    );
    assert!(!shared.0.exists());
}

/// `--out`, `--timeseries-out` and `--trace-out` are compared as the files
/// they name, not as strings: spellings through `.`, `..` or a symlink of
/// one file are the same usage error as identical strings, whether or not
/// the file exists, and nothing is written.
#[test]
fn aliased_output_paths_are_the_same_file() {
    let spec = Scratch::new("aliased.toml");
    spec.write(&format!("{CLUSTER_SPEC}\n[trace]\nsample_every = 8\n"));
    let dir = std::env::temp_dir().join(format!("apc-stream-test-{}-aliases", std::process::id()));
    std::fs::create_dir_all(dir.join("sub")).expect("create scratch directories");
    let link = dir.join("link.csv");
    let _ = std::fs::remove_file(&link);
    let file = dir.join("x.csv");
    let spell = |p: PathBuf| p.to_str().expect("temp paths are UTF-8").to_owned();
    let mut aliases = vec![
        spell(dir.join(".").join("x.csv")),
        spell(dir.join("sub").join("..").join("x.csv")),
    ];
    #[cfg(unix)]
    {
        std::os::unix::fs::symlink(&file, &link).expect("create symlink");
        aliases.push(spell(link.clone()));
    }
    let plain = spell(file.clone());
    for existing in [false, true] {
        if existing {
            std::fs::write(&file, "kept").expect("write scratch file");
        }
        for (a, b) in [
            ("--out", "--timeseries-out"),
            ("--out", "--trace-out"),
            ("--timeseries-out", "--trace-out"),
        ] {
            for alias in &aliases {
                for (x, y) in [(&plain, alias), (alias, &plain)] {
                    let err = execute(&args(&["run", spec.path(), "--format", "csv", a, x, b, y]))
                        .unwrap_err();
                    assert!(
                        matches!(&err, CliError::Usage(m) if m.contains(&format!("`{a}` and `{b}` name the same file"))),
                        "{a} {x} {b} {y}: {err:?}"
                    );
                    assert_eq!(err.exit_code(), 2);
                    if existing {
                        assert_eq!(std::fs::read_to_string(&file).unwrap(), "kept");
                    } else {
                        assert!(!file.exists(), "{a} {x} {b} {y}: a file was written");
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directories");
}

/// The incremental-output flag that `--out` replaced. Spelled in two
/// pieces, so that searching the sources for it finds no live use.
const REMOVED_FLAG: &str = concat!("--stream", "-out");

#[test]
fn stream_out_is_an_unknown_flag() {
    let spec = Scratch::new("removed-flag.toml");
    spec.write(SWEEP_SPEC);
    let cluster = Scratch::new("removed-flag-cluster.toml");
    cluster.write(CLUSTER_SPEC);
    for (command, target) in [
        ("run", spec.path()),
        ("sweep", spec.path()),
        ("run", cluster.path()),
    ] {
        let err = execute(&args(&[
            command,
            target,
            "--format",
            "json",
            REMOVED_FLAG,
            "/tmp/apc-stream-test-never-written.json",
        ]))
        .unwrap_err();
        let expected = format!("unknown or inapplicable flag `{REMOVED_FLAG}`");
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains(&expected)),
            "{command}: {err:?}"
        );
        assert_eq!(err.exit_code(), 2);
    }
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
        &["--timeseries-out", "/tmp/x.csv"][..],
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

/// A one-point sweep's checkpoint with one value replaced, as a hostile or
/// corrupted shard would carry it.
fn tampered(name: &str, checkpoint: &str, edit: impl FnOnce(&mut JsonValue)) -> Scratch {
    let mut ck = JsonValue::parse(checkpoint).unwrap();
    edit(&mut ck);
    let file = Scratch::new(name);
    file.write(&ck.to_pretty_string());
    file
}

/// The value at `key` of an object.
fn field<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    let JsonValue::Object(entries) = v else {
        panic!("not an object");
    };
    &mut entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .expect("key present")
        .1
}

/// The sketch of the checkpoint's only point.
fn sketch(ck: &mut JsonValue) -> &mut JsonValue {
    let JsonValue::Array(points) = field(ck, "points") else {
        panic!("points is an array");
    };
    field(&mut points[0], "sketch")
}

fn buckets(pairs: &[(i64, u64)]) -> JsonValue {
    JsonValue::Array(
        pairs
            .iter()
            .map(|&(i, c)| {
                JsonValue::Array(vec![JsonValue::Int(i.into()), JsonValue::Int(c.into())])
            })
            .collect(),
    )
}

#[test]
fn merge_rejects_hostile_checkpoints_as_input_errors() {
    let spec = Scratch::new("hostile.toml");
    spec.write(
        &SWEEP_SPEC
            .replace("[5_000, 20_000]", "[5_000]")
            .replace("[\"cshallow\", \"cpc1a\"]", "[\"cpc1a\"]"),
    );
    let shard = Scratch::new("hostile-shard.json");
    execute(&args(&[
        "sweep",
        spec.path(),
        "--shard",
        "0/1",
        "--out",
        shard.path(),
    ]))
    .unwrap();
    let checkpoint = shard.read();

    let cases = [
        // A grid no checkpoint can fill: allocating it would overflow.
        tampered("hostile-total.json", &checkpoint, |ck| {
            *field(ck, "total_points") = JsonValue::Int(1 << 62);
        }),
        // The widest i32 bucket span, whose width overflows i32.
        tampered("hostile-span.json", &checkpoint, |ck| {
            *field(sketch(ck), "buckets") = buckets(&[(-2_147_483_648, 1), (2_147_483_647, 1)]);
        }),
        // Bucket counts whose total overflows u64.
        tampered("hostile-counts.json", &checkpoint, |ck| {
            *field(sketch(ck), "buckets") = buckets(&[(100, u64::MAX), (101, 1)]);
        }),
        // A sketch the fleet's combined latency cannot merge.
        tampered("hostile-params.json", &checkpoint, |ck| {
            *field(sketch(ck), "max_buckets") = JsonValue::Int(4096);
        }),
        // Two buckets 20M indices apart: a dense rebuild takes 160 MB.
        tampered("hostile-wide.json", &checkpoint, |ck| {
            *field(sketch(ck), "buckets") = buckets(&[(0, 1), (20_000_000, 1)]);
        }),
    ];
    let expected = [
        "hold 1 of the sweep's 4611686018427387904 grid points",
        "span 4294967296 indices",
        "overflow",
        "differ from the latency default",
        "span 20000001 indices",
    ];
    for (file, expected) in cases.iter().zip(expected) {
        for format in ["json", "csv", "table"] {
            let err = execute(&args(&["merge", file.path(), "--format", format])).unwrap_err();
            assert!(
                matches!(&err, CliError::Input(m) if m.contains(expected)),
                "{} ({format}): {err:?}",
                file.path()
            );
            assert_eq!(err.exit_code(), 1);
        }
    }
    // Per-point counts that fit, but whose fleet totals overflow u64.
    let whole = Scratch::new("hostile-whole.json");
    let four_points = Scratch::new("hostile-four.toml");
    four_points.write(SWEEP_SPEC);
    execute(&args(&[
        "sweep",
        four_points.path(),
        "--shard",
        "0/1",
        "--out",
        whole.path(),
    ]))
    .unwrap();
    let totals = tampered("hostile-totals.json", &whole.read(), |ck| {
        let JsonValue::Array(points) = field(ck, "points") else {
            panic!("points is an array");
        };
        for p in points {
            *field(field(p, "run"), "completed_requests") = JsonValue::Int(u64::MAX.into());
        }
    });
    for format in ["json", "csv", "table"] {
        let err = execute(&args(&["merge", totals.path(), "--format", format])).unwrap_err();
        assert!(
            matches!(&err, CliError::Input(m) if m.contains("totals overflow")),
            "{format}: {err:?}"
        );
    }

    // The untampered checkpoint still merges into the unsharded sweep.
    let merged = execute(&args(&["merge", shard.path(), "--format", "csv"])).unwrap();
    let unsharded = execute(&args(&["sweep", spec.path(), "--format", "csv"])).unwrap();
    assert_eq!(merged, unsharded);
}
