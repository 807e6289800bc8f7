//! # `apc-cli` — the experiment runner
//!
//! Declarative spec files in, machine-readable results out: every figure of
//! the paper is an experiment sweep (platform × workload × load →
//! power/latency/residency), and this binary runs such sweeps without a
//! recompile per scenario.
//!
//! ```text
//! apc-cli list                                # the named scenarios
//! apc-cli run examples/specs/smoke.toml       # run a spec file
//! apc-cli run cluster-8-mid --format json     # run a named scenario
//! apc-cli sweep examples/specs/low_load_sweep.toml --format csv --out sweep.csv
//! apc-cli run cluster-8-trough --policy power-aware
//! apc-cli validate out.json                   # round-trip the JSON export
//! ```
//!
//! Subcommands: `list` (the named scenarios), `run` (a spec file or a
//! named scenario), `sweep` (a spec with a `[sweep]` table: cartesian
//! rates × platforms), `merge` (recombine `sweep --shard` checkpoints) and
//! `validate` (parse a JSON export with the bundled parser).
//!
//! A named scenario is a committed spec file under
//! `examples/specs/library/`, embedded in the binary ([`LIBRARY`]): it runs
//! through the same parser and planner as any spec file, so every flag
//! applies to it alike.
//!
//! All execution goes through the `apc-server` worker pool, so results
//! are bit-identical whatever `--parallelism` says, and the JSON/CSV
//! exporters are deterministic — identical seeds yield byte-identical
//! output files.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod runner;
pub mod spec;
mod stream_out;

use std::fmt;
use std::path::{Path, PathBuf};

use apc_analysis::export::{chrome_trace_json, csv_escape, JsonValue};
use apc_analysis::report::TextTable;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::fleet::Fleet;
use apc_sim::SimDuration;

use crate::checkpoint::{merge_checkpoints, Checkpoint, CheckpointPoint};
use crate::runner::{chain_graph, plan_spec, sweep_grid, Outcome, OutputFormat};
use crate::spec::{parse_policy, ExperimentSpec, PlatformKind, SpecKind, MAX_DURATION_MS};
use crate::stream_out::Sink;

/// A CLI failure: what went wrong and which exit code it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad invocation: unknown subcommand/flag, conflicting or duplicate
    /// flags, missing arguments. Exit code 2.
    Usage(String),
    /// A spec or input file failed to parse or validate. Exit code 1.
    Input(String),
    /// Reading or writing a file failed. Exit code 1.
    Io(String),
}

impl CliError {
    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) | CliError::Io(_) => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Input(m) | CliError::Io(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// The one-screen usage text.
pub const USAGE: &str = "\
usage: apc-cli <command> [options]

commands:
  list                      the named scenarios (fleet, cluster, fan-out chain)
  run <spec|name>           run a spec file or a named scenario
  sweep <spec>              run a spec's [sweep] grid (rates x platforms)
  merge <checkpoint...>     combine `sweep --shard` checkpoints (one per
                            shard) into the unsharded sweep output
  validate <file.json>      parse a JSON export (round-trip check)

options:
  --format table|json|csv   output format (default table)
  --out <path>              write the output to a file instead of stdout;
                            json/csv rows are written as results finish
  --shard <i/n>             with `sweep --out <path>`: run only grid points
                            with index ≡ i (mod n) and write a checkpoint
                            for `merge` instead of results
  --timeseries-out <path>   write recorded time series as CSV to a file
  --trace-out <path>        write sampled request spans as Chrome trace
                            JSON (needs a spec with a [trace] table)
  --profile                 attach the engine self-profiler report to the
                            results (shown in JSON output)
  --platform <name>         cshallow|cdeep|cpc1a: override the platform
                            (not a sweep's, which owns its platform axis)
  --policy <name>           random|round-robin|jsq|power-aware: override a
                            cluster or chain experiment's routing policy
  --duration-ms <n>         override the simulated duration
  --seed <n>                override the root seed
  --parallelism <n>         worker threads across independent runs (fleet
                            servers, sweep points, repeats); default: host
                            cores; wins over a spec's `parallelism` key.
                            Each run is single-threaded and the output is
                            identical whatever the count";

/// Runs the CLI on `args` (the program name already stripped), returning
/// the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; the caller maps it to an
/// exit code via [`CliError::exit_code`].
pub fn execute(args: &[String]) -> Result<String, CliError> {
    let (command, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing command".to_owned()))?;
    match command.as_str() {
        "list" => cmd_list(&Invocation::parse(rest, &["format"], 0)?),
        "run" => cmd_run(&Invocation::parse(
            rest,
            &[
                "format",
                "out",
                "timeseries-out",
                "trace-out",
                "profile",
                "platform",
                "policy",
                "duration-ms",
                "seed",
                "parallelism",
            ],
            1,
        )?),
        "sweep" => cmd_sweep(&Invocation::parse(
            rest,
            &[
                "format",
                "out",
                "shard",
                "timeseries-out",
                "profile",
                "duration-ms",
                "seed",
                "parallelism",
            ],
            1,
        )?),
        "merge" => cmd_merge(&Invocation::parse_at_least(
            rest,
            &["format", "out", "timeseries-out"],
            1,
        )?),
        "validate" => cmd_validate(&Invocation::parse(rest, &[], 1)?),
        "--help" | "-h" | "help" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// A parsed invocation: positional arguments plus `--flag value` options.
struct Invocation {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Invocation {
    /// Parses `args`, accepting only `allowed` flags. Duplicate flags,
    /// unknown flags and missing values are usage errors; arity is the
    /// caller's to check (see [`Invocation::parse`]).
    fn parse_free(args: &[String], allowed: &[&str]) -> Result<Self, CliError> {
        // Boolean switches never consume a value; everything else does.
        const SWITCHES: [&str; 1] = ["profile"];
        let mut inv = Invocation {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if !allowed.contains(&name) {
                    return Err(CliError::Usage(format!(
                        "unknown or inapplicable flag `--{name}`"
                    )));
                }
                if inv.flags.iter().any(|(k, _)| k == name) {
                    return Err(CliError::Usage(format!(
                        "conflicting flags: `--{name}` given twice"
                    )));
                }
                if SWITCHES.contains(&name) {
                    inv.flags.push((name.to_owned(), String::new()));
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("`--{name}` needs a value")))?;
                inv.flags.push((name.to_owned(), value.clone()));
            } else {
                inv.positional.push(arg.clone());
            }
        }
        Ok(inv)
    }

    /// Parses `args` with exactly `positional` positional arguments.
    fn parse(args: &[String], allowed: &[&str], positional: usize) -> Result<Self, CliError> {
        let inv = Self::parse_free(args, allowed)?;
        if inv.positional.len() != positional {
            return Err(CliError::Usage(format!(
                "expected {positional} positional argument(s), got {}",
                inv.positional.len()
            )));
        }
        Ok(inv)
    }

    /// Parses `args` with at least `min` positional arguments (the `merge`
    /// command takes one checkpoint per shard).
    fn parse_at_least(args: &[String], allowed: &[&str], min: usize) -> Result<Self, CliError> {
        let inv = Self::parse_free(args, allowed)?;
        if inv.positional.len() < min {
            return Err(CliError::Usage(format!(
                "expected at least {min} positional argument(s), got {}",
                inv.positional.len()
            )));
        }
        Ok(inv)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the boolean switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.flag(name).is_some()
    }

    fn format(&self) -> Result<OutputFormat, CliError> {
        match self.flag("format") {
            None => Ok(OutputFormat::default()),
            Some(name) => OutputFormat::parse(name).ok_or_else(|| {
                CliError::Usage(format!("unknown format `{name}` (table|json|csv)"))
            }),
        }
    }

    fn platform(&self) -> Result<Option<PlatformKind>, CliError> {
        match self.flag("platform") {
            None => Ok(None),
            Some(name) => PlatformKind::parse(name).map(Some).ok_or_else(|| {
                CliError::Usage(format!("unknown platform `{name}` (cshallow|cdeep|cpc1a)"))
            }),
        }
    }

    fn policy(&self) -> Result<Option<RoutingPolicyKind>, CliError> {
        match self.flag("policy") {
            None => Ok(None),
            Some(name) => parse_policy(name).map(Some).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown policy `{name}` (random|round-robin|jsq|power-aware)"
                ))
            }),
        }
    }

    fn u64_flag(&self, name: &str) -> Result<Option<u64>, CliError> {
        match self.flag(name) {
            None => Ok(None),
            Some(v) => v.parse::<u64>().map(Some).map_err(|_| {
                CliError::Usage(format!(
                    "`--{name}` must be a non-negative integer, got `{v}`"
                ))
            }),
        }
    }

    fn parallelism(&self) -> Result<Option<usize>, CliError> {
        match self.u64_flag("parallelism")? {
            None => Ok(None),
            Some(0) => Err(CliError::Usage(
                "`--parallelism` must be at least 1".to_owned(),
            )),
            Some(n) => Ok(Some(n as usize)),
        }
    }

    fn duration(&self) -> Result<Option<SimDuration>, CliError> {
        match self.u64_flag("duration-ms")? {
            None => Ok(None),
            Some(0) => Err(CliError::Usage(
                "`--duration-ms` must be at least 1".to_owned(),
            )),
            Some(ms) if ms > MAX_DURATION_MS => Err(CliError::Usage(format!(
                "`--duration-ms` must be at most {MAX_DURATION_MS}, got {ms}"
            ))),
            Some(ms) => Ok(Some(SimDuration::from_millis(ms))),
        }
    }
}

/// The named scenarios: the spec files under `examples/specs/library/`,
/// embedded at build time, in `list` order. Each file's `[experiment]
/// name` is the name `run` and `sweep` resolve.
pub const LIBRARY: [&str; 9] = [
    include_str!("../../../examples/specs/library/diurnal.toml"),
    include_str!("../../../examples/specs/library/flash-crowd.toml"),
    include_str!("../../../examples/specs/library/heterogeneous.toml"),
    include_str!("../../../examples/specs/library/low-load-sweep.toml"),
    include_str!("../../../examples/specs/library/cluster-8-mid.toml"),
    include_str!("../../../examples/specs/library/cluster-8-trough.toml"),
    include_str!("../../../examples/specs/library/cluster-16-kafka.toml"),
    include_str!("../../../examples/specs/library/mesh-8-fanout4.toml"),
    include_str!("../../../examples/specs/library/mesh-16-memcached.toml"),
];

/// The named scenarios, parsed, in `list` order.
///
/// # Panics
///
/// Panics if an embedded spec fails to parse (the test suite parses every
/// one).
#[must_use]
pub fn library() -> Vec<ExperimentSpec> {
    LIBRARY
        .iter()
        .map(|text| ExperimentSpec::parse(text).expect("library specs parse"))
        .collect()
}

/// Resolves a positional target: a readable file parses as a spec; anything
/// else must name a library scenario.
fn resolve_target(arg: &str) -> Result<ExperimentSpec, CliError> {
    let looks_like_path = arg.contains('/')
        || arg.contains('\\')
        || arg.ends_with(".toml")
        || std::path::Path::new(arg).exists();
    if looks_like_path {
        let text = std::fs::read_to_string(arg)
            .map_err(|e| CliError::Io(format!("cannot read spec `{arg}`: {e}")))?;
        return ExperimentSpec::parse(&text).map_err(|e| {
            let message = format!("{arg}: {e}");
            // Usage-flagged spec errors ([network] and [trace] mistakes,
            // rates and horizons a run could never finish) map to the usage
            // exit code, like a bad flag would.
            if e.usage {
                CliError::Usage(message)
            } else {
                CliError::Input(message)
            }
        });
    }
    let library = library();
    if let Some(spec) = library.iter().find(|s| s.name == arg) {
        return Ok(spec.clone());
    }
    let known: Vec<&str> = library.iter().map(|s| s.name.as_str()).collect();
    Err(CliError::Input(format!(
        "unknown scenario `{arg}` (not a spec file; known scenarios: {})",
        known.join(", ")
    )))
}

/// Rejects `--timeseries-out` and `--trace-out` up front when the spec
/// records no time series or request spans — before the (possibly long)
/// simulation runs and before `--out` is written, so a usage error never
/// leaves partial outputs behind.
fn check_recording_flags(inv: &Invocation, spec: &ExperimentSpec) -> Result<(), CliError> {
    if inv.flag("timeseries-out").is_some() && spec.timeseries_interval.is_none() {
        return Err(CliError::Usage(
            "conflicting flags: `--timeseries-out` needs a spec with a [telemetry] table"
                .to_owned(),
        ));
    }
    if inv.flag("trace-out").is_some() && spec.trace.is_none() {
        return Err(CliError::Usage(
            "conflicting flags: `--trace-out` needs a spec with a [trace] table".to_owned(),
        ));
    }
    Ok(())
}

/// Creates the `--out` file (stdout's buffer without one) and the
/// `--timeseries-out` file, before anything runs: an unwritable path fails
/// at once, and a failed `--out` leaves no series file behind. Both fill in
/// as results finish and `--trace-out` is written after them, so no two of
/// the three may name the same file, however spelled (see
/// [`resolve_path`]).
fn open_outputs(inv: &Invocation) -> Result<(Sink, Option<Sink>), CliError> {
    let files = ["out", "timeseries-out", "trace-out"].map(|f| (f, inv.flag(f).map(resolve_path)));
    for (i, (a, path)) in files.iter().enumerate() {
        if let Some((b, _)) = files[i + 1..]
            .iter()
            .find(|(_, p)| path.is_some() && p == path)
        {
            return Err(CliError::Usage(format!(
                "conflicting flags: `--{a}` and `--{b}` name the same file"
            )));
        }
    }
    let out = match inv.flag("out") {
        Some(path) => Sink::create(path)?,
        None => Sink::Memory(Vec::new()),
    };
    let series = inv.flag("timeseries-out").map(Sink::create).transpose()?;
    Ok((out, series))
}

/// The file `path` names, independent of its spelling: the file itself
/// canonicalised when it exists, else its canonical parent directory joined
/// with its file name, so `d/x.csv`, `d/./x.csv` and `d/sub/../x.csv` (or
/// a symlink to it) resolve alike. A path whose parent cannot be resolved
/// is kept as given: creating it fails anyway.
fn resolve_path(path: &str) -> PathBuf {
    let mut path = PathBuf::from(path);
    // Creating a dangling symlink creates its target: follow the links, at
    // most as many as the kernel would, to the file that would be written.
    for _ in 0..40 {
        let Ok(target) = std::fs::read_link(&path) else {
            break;
        };
        path = path.parent().unwrap_or(Path::new("")).join(target);
    }
    if let Ok(file) = path.canonicalize() {
        return file;
    }
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    match (parent.canonicalize(), path.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => path,
    }
}

/// A `list` row's server count and workloads column.
fn servers_and_workloads(spec: &ExperimentSpec) -> (usize, String) {
    match &spec.kind {
        SpecKind::Fleet { servers } => {
            let mut names: Vec<&str> = spec.per_server.iter().map(|(w, _)| w.name()).collect();
            names.dedup();
            (*servers, names.join("+"))
        }
        SpecKind::Cluster { nodes, .. } => (*nodes, spec.workload.name().to_owned()),
        SpecKind::Chain {
            nodes,
            fanout,
            frontend_service,
            leaf_service,
            ..
        } => (
            *nodes,
            chain_graph(spec.workload, *fanout, *frontend_service, *leaf_service).describe(),
        ),
        SpecKind::Single => (1, spec.workload.name().to_owned()),
        SpecKind::Sweep { rates, platforms } => (
            rates.len() * platforms.len(),
            spec.workload.name().to_owned(),
        ),
    }
}

fn cmd_list(inv: &Invocation) -> Result<String, CliError> {
    let library = library();
    let rows = library.iter().map(|spec| {
        let (servers, workloads) = servers_and_workloads(spec);
        let description = spec.description.clone().unwrap_or_default();
        (
            spec.name.clone(),
            spec.kind.name(),
            servers,
            workloads,
            description,
        )
    });
    Ok(match inv.format()? {
        OutputFormat::Table => {
            let mut table = TextTable::new(
                "scenario libraries",
                &["name", "kind", "servers", "workloads", "description"],
            );
            for (name, kind, servers, workloads, description) in rows {
                table.add_row(&[
                    name,
                    kind.to_owned(),
                    servers.to_string(),
                    workloads,
                    description,
                ]);
            }
            table.render()
        }
        OutputFormat::Json => {
            let items = rows
                .map(|(name, kind, servers, workloads, description)| {
                    let mut o = JsonValue::object();
                    o.push("name", JsonValue::Str(name))
                        .push("kind", JsonValue::Str(kind.to_owned()))
                        .push("servers", JsonValue::Int(servers as i128))
                        .push("workloads", JsonValue::Str(workloads))
                        .push("description", JsonValue::Str(description));
                    o
                })
                .collect();
            JsonValue::Array(items).to_pretty_string()
        }
        OutputFormat::Csv => {
            let mut out = String::from("name,kind,servers,workloads,description\n");
            for (name, kind, servers, workloads, description) in rows {
                out.push_str(&format!(
                    "{},{kind},{servers},{},{}\n",
                    csv_escape(&name),
                    csv_escape(&workloads),
                    csv_escape(&description)
                ));
            }
            out
        }
    })
}

fn cmd_run(inv: &Invocation) -> Result<String, CliError> {
    run_spec(inv, &resolve_target(&inv.positional[0])?)
}

/// The one execution path of `run` and `sweep`: checks the
/// recording flags, applies the overrides, creates the output files, then
/// runs the spec, writing json/csv results to `--out` as they finish.
fn run_spec(inv: &Invocation, spec: &ExperimentSpec) -> Result<String, CliError> {
    check_recording_flags(inv, spec)?;
    let spec = override_spec(spec, inv)?;
    let format = inv.format()?;
    let plan = plan_spec(&spec, inv.parallelism()?);
    let (out, series) = open_outputs(inv)?;
    let (outcome, written) = stream_out::execute(plan, Some((format, out)), series)
        .map_err(|e| CliError::Io(e.to_string()))?;
    let mut stdout = written.report();
    write_trace_out(inv, &outcome, &mut stdout)?;
    Ok(stdout)
}

fn cmd_sweep(inv: &Invocation) -> Result<String, CliError> {
    let spec = resolve_target(&inv.positional[0])?;
    if !matches!(spec.kind, SpecKind::Sweep { .. }) {
        return Err(CliError::Input(format!(
            "`{}` is not a sweep spec (kind = \"sweep\" with a [sweep] table)",
            inv.positional[0]
        )));
    }
    if let Some(shard) = inv.flag("shard") {
        return cmd_sweep_shard(inv, &spec, shard);
    }
    run_spec(inv, &spec)
}

/// Parses a `--shard i/n` spelling.
fn parse_shard(s: &str) -> Result<(usize, usize), CliError> {
    let err = || {
        CliError::Usage(format!(
            "`--shard` must be `i/n` with 0 <= i < n, got `{s}`"
        ))
    };
    let (i, n) = s.split_once('/').ok_or_else(err)?;
    let i: usize = i.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(err());
    }
    Ok((i, n))
}

/// The `sweep --shard i/n` path: runs only the grid points whose global
/// index is congruent to `i` modulo `n`, and writes a [`Checkpoint`] to
/// `--out` for `merge` to recombine — not rendered results, which is why
/// the result-shaping flags conflict with `--shard`.
fn cmd_sweep_shard(
    inv: &Invocation,
    spec: &ExperimentSpec,
    shard: &str,
) -> Result<String, CliError> {
    let (i, n) = parse_shard(shard)?;
    for flag in ["format", "timeseries-out", "profile"] {
        if inv.flag(flag).is_some() {
            return Err(CliError::Usage(format!(
                "conflicting flags: `--shard` writes a checkpoint, not results; \
                 `--{flag}` does not apply (give it to `merge` instead)"
            )));
        }
    }
    let Some(out_path) = inv.flag("out") else {
        return Err(CliError::Usage(
            "`--shard` needs `--out <path>` for the checkpoint".to_owned(),
        ));
    };
    let spec = override_spec(spec, inv)?;
    let grid = sweep_grid(&spec).expect("checked above: sweep kind");
    let total_points = grid.len();
    let mut points_meta = Vec::new();
    let mut fleet = Fleet::new();
    for (index, (label, member)) in grid.into_iter().enumerate() {
        if index % n != i {
            continue;
        }
        points_meta.push((index, label));
        fleet.push(member);
    }
    if let Some(workers) = inv.parallelism()?.or(spec.parallelism) {
        fleet = fleet.with_parallelism(workers);
    }
    let result = fleet.run();
    let points = points_meta
        .into_iter()
        .zip(result.runs)
        .map(|((index, label), run)| CheckpointPoint { index, label, run })
        .collect();
    let ck = Checkpoint {
        spec_name: spec.name.clone(),
        shard: i,
        of: n,
        total_points,
        seed: spec.seed,
        duration: spec.duration,
        points,
    };
    let text = ck.to_json().to_pretty_string();
    std::fs::write(out_path, &text)
        .map_err(|e| CliError::Io(format!("cannot write `{out_path}`: {e}")))?;
    Ok(format!("wrote {out_path} ({} bytes)\n", text.len()))
}

/// The `merge` command: parses one checkpoint per shard and renders the
/// recombined sweep exactly as an unsharded run would have.
fn cmd_merge(inv: &Invocation) -> Result<String, CliError> {
    let mut shards = Vec::new();
    for path in &inv.positional {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
        let value = JsonValue::parse(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        let ck =
            Checkpoint::from_json(&value).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
        shards.push(ck);
    }
    let (name, labels, fleet) = merge_checkpoints(shards).map_err(CliError::Input)?;
    if inv.flag("timeseries-out").is_some() && fleet.runs.iter().all(|r| r.timeseries.is_none()) {
        return Err(CliError::Usage(
            "conflicting flags: `--timeseries-out` needs a spec with a [telemetry] table \
             (no run recorded a time series)"
                .to_owned(),
        ));
    }
    let format = inv.format()?;
    let outcome = Outcome::Runs {
        name,
        labels,
        fleet,
    };
    let (out, series) = open_outputs(inv)?;
    let written = stream_out::replay(&outcome, Some((format, out)), series)
        .map_err(|e| CliError::Io(e.to_string()))?;
    Ok(written.report())
}

fn cmd_validate(inv: &Invocation) -> Result<String, CliError> {
    let path = &inv.positional[0];
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read `{path}`: {e}")))?;
    let value = JsonValue::parse(&text).map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    let kind = match &value {
        JsonValue::Object(_) => "object",
        JsonValue::Array(_) => "array",
        _ => "scalar",
    };
    Ok(format!(
        "{path}: valid JSON ({kind}, {} bytes)\n",
        text.len()
    ))
}

/// Applies the `--duration-ms` / `--seed` / `--platform` / `--policy` /
/// `--profile` overrides to a parsed spec. An override the spec has no
/// value for is a usage error: `--policy` outside cluster and chain
/// experiments, `--platform` on a sweep (which owns its platform axis).
fn override_spec(spec: &ExperimentSpec, inv: &Invocation) -> Result<ExperimentSpec, CliError> {
    let mut spec = spec.clone();
    if let Some(d) = inv.duration()? {
        spec.duration = d;
    }
    if let Some(s) = inv.u64_flag("seed")? {
        spec.seed = s;
    }
    if let Some(platform) = inv.platform()? {
        if matches!(spec.kind, SpecKind::Sweep { .. }) {
            return Err(CliError::Usage(format!(
                "conflicting flags: `--platform` does not apply to kind = \"sweep\" \
                 (`{}` declares its platform axis itself)",
                spec.name
            )));
        }
        spec.platform = platform;
    }
    if let Some(policy) = inv.policy()? {
        match &mut spec.kind {
            SpecKind::Cluster { policy: p, .. } | SpecKind::Chain { policy: p, .. } => *p = policy,
            other => {
                return Err(CliError::Usage(format!(
                    "conflicting flags: `--policy` does not apply to kind = \"{}\" \
                     (`{}` routes no requests)",
                    other.name(),
                    spec.name
                )))
            }
        }
    }
    spec.profile = inv.switch("profile");
    Ok(spec)
}

/// Honours `--trace-out`, appending its `wrote …` line to `stdout`.
fn write_trace_out(
    inv: &Invocation,
    outcome: &Outcome,
    stdout: &mut String,
) -> Result<(), CliError> {
    let Some(path) = inv.flag("trace-out") else {
        return Ok(());
    };
    let log = outcome.merged_trace().ok_or_else(|| {
        CliError::Usage(
            "conflicting flags: `--trace-out` needs a spec with a [trace] table \
             (no run recorded request spans)"
                .to_owned(),
        )
    })?;
    let json = chrome_trace_json(&log).to_pretty_string();
    std::fs::write(path, &json).map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
    stdout.push_str(&format!("wrote {path} ({} bytes)\n", json.len()));
    Ok(())
}
