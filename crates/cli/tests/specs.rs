//! The named scenarios and the committed spec files: every named scenario
//! runs with finite, plausible statistics under every platform (and, for
//! clusters, under a spreading and a packing policy), the library is
//! exactly the files under `examples/specs/library/`, every spec file
//! under `examples/specs/` parses and runs, and the paper-figure sweeps
//! declare the paper's grids.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use apc_analysis::export::JsonValue;
use apc_analysis::impact::ImpactInputs;
use apc_cli::runner::{plan_spec, Outcome, OutputFormat};
use apc_cli::spec::{ExperimentSpec, PlatformKind, SpecKind, WorkloadKind};
use apc_cli::{execute, library, LIBRARY};
use apc_server::balancer::RoutingPolicyKind;
use apc_server::chain::{ChainMember, RequestGraph};
use apc_server::cluster::ClusterMember;
use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember, FleetResult};
use apc_server::result::RunResult;
use apc_server::sim::run_experiment;
use apc_sim::SimDuration;
use apc_workloads::spec::WorkloadSpec;

/// A short window that still sees thousands of requests per member at the
/// library's rates.
const SMOKE_WINDOW: SimDuration = SimDuration::from_millis(20);

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_owned()).collect()
}

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs")
}

/// The named scenario `name`, cut to `duration` on `platform`.
fn named(name: &str, platform: PlatformKind, duration: SimDuration) -> ExperimentSpec {
    let mut spec = library()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no named scenario `{name}`"));
    spec.platform = platform;
    spec.duration = duration;
    spec
}

fn run_fleet(spec: &ExperimentSpec) -> FleetResult {
    match plan_spec(spec, None).run() {
        Outcome::Runs { fleet, .. } => fleet,
        other => panic!("{} is not a fleet: {other:?}", spec.name),
    }
}

#[test]
fn every_fleet_scenario_yields_finite_stats_under_every_platform() {
    let fleets: Vec<ExperimentSpec> = library()
        .into_iter()
        .filter(|s| matches!(s.kind, SpecKind::Fleet { .. }))
        .collect();
    assert_eq!(fleets.len(), 4);
    for scenario in fleets {
        let SpecKind::Fleet { servers } = scenario.kind else {
            unreachable!("filtered to fleets");
        };
        for platform in PlatformKind::all() {
            let spec = named(&scenario.name, platform, SMOKE_WINDOW);
            let label = format!("{} under {}", spec.name, platform.name());
            let outcome = plan_spec(&spec, None).run();
            // The table title names both axes.
            let table = outcome.render(OutputFormat::Table);
            assert!(
                table.contains(&format!("{} ({})", spec.name, platform.name())),
                "{table}"
            );
            let Outcome::Runs { fleet, .. } = outcome else {
                panic!("{label}: not a fleet outcome");
            };
            assert_eq!(fleet.servers(), servers, "{label}");
            assert!(fleet.total_completed_requests() > 0, "{label}");
            let throughput = fleet.aggregate_throughput();
            assert!(throughput.is_finite() && throughput > 0.0, "{label}");
            let power = fleet.total_power_w();
            assert!(power.is_finite() && power > 0.0, "{label}");
            let mean = fleet.mean_latency();
            assert!(
                mean > SimDuration::ZERO && mean < SimDuration::from_secs(1),
                "{label}: mean latency {mean}"
            );
            assert!(fleet.worst_p99() > mean, "{label}");
            let residency = fleet.mean_pc1a_residency();
            assert!((0.0..=1.0).contains(&residency), "{label}");
            // Only CPC1A has the state, and every fleet's idle gaps use it.
            assert_eq!(residency > 0.0, platform == PlatformKind::Cpc1a, "{label}");
        }
    }
}

/// Every named cluster scenario runs under one platform and one spreading
/// plus one packing policy (to bound test time) with finite, plausible
/// cluster statistics.
#[test]
fn every_cluster_scenario_yields_finite_stats() {
    let clusters: Vec<ExperimentSpec> = library()
        .into_iter()
        .filter(|s| matches!(s.kind, SpecKind::Cluster { .. }))
        .collect();
    assert_eq!(clusters.len(), 3);
    for scenario in clusters {
        for policy in [RoutingPolicyKind::RoundRobin, RoutingPolicyKind::PowerAware] {
            let mut spec = named(&scenario.name, PlatformKind::Cpc1a, SMOKE_WINDOW);
            let SpecKind::Cluster { nodes, policy: p } = &mut spec.kind else {
                unreachable!("filtered to clusters");
            };
            *p = policy;
            let nodes = *nodes;
            let label = format!("{} under {}", spec.name, policy.name());
            let Outcome::Clusters { results, .. } = plan_spec(&spec, None).run() else {
                panic!("{label}: not a cluster outcome");
            };
            let [result] = results.as_slice() else {
                panic!("{label}: one repeat expected");
            };
            assert_eq!(result.policy, policy.name(), "{label}");
            assert_eq!(result.nodes.servers(), nodes, "{label}");
            assert_eq!(result.routed.len(), nodes, "{label}");
            assert!(result.total_routed() > 0, "{label}");
            assert!(
                result.total_routed() >= result.nodes.total_completed_requests(),
                "{label}"
            );
            assert!(result.nodes.total_completed_requests() > 0, "{label}");
            let power = result.nodes.total_power_w();
            assert!(power.is_finite() && power > 0.0, "{label}");
            assert!(result.routing_imbalance() >= 1.0, "{label}");
            let idle_band = result.idle_periods_20_200us();
            assert!((0.0..=1.0).contains(&idle_band), "{label}");
        }
    }
}

/// Every named chain scenario runs under the latency-optimal and the
/// packing policy with finite, plausible chain statistics.
#[test]
fn every_chain_scenario_yields_finite_stats() {
    let chains: Vec<ExperimentSpec> = library()
        .into_iter()
        .filter(|s| matches!(s.kind, SpecKind::Chain { .. }))
        .collect();
    assert_eq!(chains.len(), 2);
    for scenario in chains {
        for policy in [
            RoutingPolicyKind::JoinShortestQueue,
            RoutingPolicyKind::PowerAware,
        ] {
            let mut spec = named(&scenario.name, PlatformKind::Cpc1a, SMOKE_WINDOW);
            let SpecKind::Chain {
                nodes, policy: p, ..
            } = &mut spec.kind
            else {
                unreachable!("filtered to chains");
            };
            *p = policy;
            let nodes = *nodes;
            let label = format!("{} under {}", spec.name, policy.name());
            let Outcome::Chains { results, .. } = plan_spec(&spec, None).run() else {
                panic!("{label}: not a chain outcome");
            };
            let [result] = results.as_slice() else {
                panic!("{label}: one repeat expected");
            };
            assert_eq!(result.policy, policy.name(), "{label}");
            assert_eq!(result.nodes.servers(), nodes, "{label}");
            assert!(result.chains_completed > 0, "{label}");
            assert!(result.chains_started >= result.chains_completed, "{label}");
            // Every chain fans out, so every joined chain waited on a
            // straggler, and the join dominates the gap.
            assert_eq!(
                result.straggler.count as u64, result.chains_completed,
                "{label}"
            );
            assert!(result.chain_latency.p99 >= result.straggler.p99, "{label}");
            let power = result.nodes.total_power_w();
            assert!(power.is_finite() && power > 0.0, "{label}");
        }
    }
}

/// A named scenario is exactly the run the server crate's API builds from
/// the same numbers: one check per kind, with overridden platforms.
#[test]
fn named_scenarios_equal_the_runs_the_server_api_builds() {
    let window = SimDuration::from_millis(5);
    let base =
        |platform: PlatformKind, seed: u64| platform.config().with_duration(window).with_seed(seed);

    let spec = named("cluster-16-kafka", PlatformKind::Cshallow, window);
    let Outcome::Clusters { results, .. } = plan_spec(&spec, None).run() else {
        panic!("not a cluster outcome");
    };
    let direct = ClusterMember::homogeneous(
        &base(PlatformKind::Cshallow, 0x5ce0),
        16,
        RoutingPolicyKind::PowerAware,
        WorkloadSpec::kafka(),
        64_000.0,
    )
    .run();
    assert_eq!(results, [direct]);

    let spec = named("mesh-16-memcached", PlatformKind::Cdeep, window);
    let Outcome::Chains { results, .. } = plan_spec(&spec, None).run() else {
        panic!("not a chain outcome");
    };
    let direct = ChainMember::homogeneous(
        &base(PlatformKind::Cdeep, 0x5ce0),
        16,
        RoutingPolicyKind::JoinShortestQueue,
        RequestGraph::memcached_fanout(8),
        6_000.0,
    )
    .run();
    assert_eq!(results, [direct]);

    // Server i of a fleet runs its own array entries under the seed forked
    // by `"server i"`.
    let fleet = run_fleet(&named("heterogeneous", PlatformKind::Cpc1a, window));
    let mut direct = Fleet::new();
    let servers = [
        (
            WorkloadSpec::memcached_etc as fn() -> WorkloadSpec,
            25_000.0,
            4,
        ),
        (WorkloadSpec::kafka, 8_000.0, 2),
        (WorkloadSpec::mysql_oltp, 800.0, 2),
    ]
    .into_iter()
    .flat_map(|(workload, rate, count)| std::iter::repeat_n((workload, rate), count));
    for (i, (workload, rate)) in servers.enumerate() {
        let seed = Fleet::member_seed(0x5ce0, i);
        direct.push(FleetMember::new(
            base(PlatformKind::Cpc1a, seed),
            workload(),
            rate,
        ));
    }
    assert_eq!(fleet, direct.run());
}

/// A short-horizon, in-suite companion of CI's 1 s check: no named
/// scenario's bytes depend on the worker count, and the `--out` file,
/// written as results finish, holds exactly the bytes stdout prints.
#[test]
fn named_runs_do_not_depend_on_workers_or_destination() {
    let out = std::env::temp_dir().join(format!("apc-specs-test-{}-out.csv", std::process::id()));
    let out_path = out.to_str().expect("temp paths are UTF-8");
    for spec in library() {
        let run = |extra: &[&str]| {
            let mut argv = args(&["run", &spec.name, "--duration-ms", "5", "--format", "csv"]);
            argv.extend(args(extra));
            execute(&argv).unwrap()
        };
        let one = run(&["--parallelism", "1"]);
        assert_eq!(one, run(&["--parallelism", "2"]), "{}", spec.name);
        run(&["--out", out_path]);
        let text = std::fs::read_to_string(&out).expect("--out file");
        assert_eq!(one, text, "{}", spec.name);
    }
    let _ = std::fs::remove_file(&out);
}

/// `list` is pinned byte for byte in every format: the library's names,
/// kinds, sizes, workloads and descriptions.
#[test]
fn list_is_pinned_in_every_format() {
    const CSV: &str = "\
name,kind,servers,workloads,description
diurnal,fleet,8,memcached,memcached fleet under a compressed day/night load curve
flash-crowd,fleet,6,memcached,quiet memcached fleet hit by a sudden 6x traffic spike
heterogeneous,fleet,8,memcached+kafka+mysql,mixed memcached/kafka/mysql fleet at paper operating points
low-load-sweep,fleet,5,memcached,memcached servers spanning the paper's low-load region
cluster-8-mid,cluster,8,memcached,8-node memcached cluster at the mid operating point
cluster-8-trough,cluster,8,memcached,8-node memcached cluster at trough load
cluster-16-kafka,cluster,16,kafka,16-node kafka cluster under moderate streaming load
mesh-8-fanout4,chain,8,1x frontend -> 4x kv-get,\"8-node memcached scatter-gather, fan-out 4, wait-for-all join\"
mesh-16-memcached,chain,16,1x frontend -> 8x kv-get,\"16-node memcached scatter-gather, fan-out 8, straggler-bound tail\"
";
    assert_eq!(execute(&args(&["list", "--format", "csv"])).unwrap(), CSV);
    let table = execute(&args(&["list"])).unwrap();
    assert!(table.starts_with("== scenario libraries ==\n"), "{table}");
    assert!(
        table.contains(
            "| heterogeneous     | fleet   | 8       | memcached+kafka+mysql    | \
             mixed memcached/kafka/mysql fleet at paper operating points       |"
        ),
        "{table}"
    );
    let json = JsonValue::parse(&execute(&args(&["list", "--format", "json"])).unwrap())
        .expect("list JSON parses");
    let rows = json.as_array().expect("an array");
    assert_eq!(rows.len(), 9);
    assert_eq!(
        rows[2].get("workloads").and_then(JsonValue::as_str),
        Some("memcached+kafka+mysql")
    );
    assert_eq!(rows[6].get("servers").and_then(JsonValue::as_u64), Some(16));
}

#[test]
fn pc1a_only_helps_where_it_should() {
    // Fleet-level sanity of the paper's headline: under the low-load sweep,
    // CPC1A draws less fleet power than Cshallow and actually uses PC1A.
    let shallow = run_fleet(&named(
        "low-load-sweep",
        PlatformKind::Cshallow,
        SMOKE_WINDOW,
    ));
    let pc1a = run_fleet(&named("low-load-sweep", PlatformKind::Cpc1a, SMOKE_WINDOW));
    assert!(shallow.mean_pc1a_residency() == 0.0);
    assert!(pc1a.mean_pc1a_residency() > 0.05);
    assert!(
        pc1a.power_saving_vs(&shallow) > 0.0,
        "PC1A saving {:.3}",
        pc1a.power_saving_vs(&shallow)
    );
}

#[test]
fn flash_crowd_offered_rate_is_the_mean_over_the_horizon() {
    // Base 20k with a 6x burst over 20 % of the run: the nominal rate in the
    // results is the mean over the run, 20k * (1 + 5 * 0.2) = 40k, not the
    // schedule-weighted mean the arrival process reports (its schedule ends
    // at 60 % of the run, where it would read 20k * 1.6 / 0.6 = 53.3k).
    let fleet = run_fleet(&named(
        "flash-crowd",
        PlatformKind::Cpc1a,
        SimDuration::from_millis(10),
    ));
    assert_eq!(fleet.servers(), 6);
    for run in &fleet.runs {
        assert!(
            (run.offered_rate - 40_000.0).abs() < 1e-9,
            "{}",
            run.offered_rate
        );
    }
}

#[test]
fn heterogeneous_runs_its_per_server_workloads_in_order() {
    let fleet = run_fleet(&named(
        "heterogeneous",
        PlatformKind::Cpc1a,
        SimDuration::from_millis(10),
    ));
    assert_eq!(fleet.servers(), 8);
    let members: Vec<(&str, f64)> = fleet
        .runs
        .iter()
        .map(|r| (r.workload, r.offered_rate))
        .collect();
    let mut expected = vec![("memcached", 25_000.0); 4];
    expected.extend([("kafka", 8_000.0); 2]);
    expected.extend([("mysql", 800.0); 2]);
    assert_eq!(members, expected);
}

#[test]
fn named_runs_are_reproducible_and_seed_sensitive() {
    let run = |seed: Option<&str>| {
        let mut argv = args(&["run", "diurnal", "--duration-ms", "10", "--format", "json"]);
        if let Some(seed) = seed {
            argv.extend(args(&["--seed", seed]));
        }
        execute(&argv).unwrap()
    };
    let json = run(None);
    assert_eq!(json, run(None));
    assert_eq!(json, run(Some("23776")), "the library seed is 0x5ce0");
    assert_ne!(json, run(Some("99")));
}

#[test]
fn library_names_are_unique_and_descriptive() {
    let library = library();
    assert_eq!(library.len(), LIBRARY.len());
    let mut names: Vec<&str> = library.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), library.len(), "duplicate scenario names");
    for spec in &library {
        let description = spec.description.as_deref().unwrap_or_default();
        assert!(!description.is_empty(), "{}", spec.name);
        assert!(spec.traffic.mean_rate_per_sec() > 0.0, "{}", spec.name);
    }
    // Both chain scenarios fan out.
    let fanouts: Vec<usize> = library
        .iter()
        .filter_map(|s| match s.kind {
            SpecKind::Chain { fanout, .. } => Some(fanout),
            _ => None,
        })
        .collect();
    assert_eq!(fanouts, [4, 8]);
}

#[test]
fn the_embedded_library_is_the_library_directory() {
    let dir = specs_dir().join("library");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("library directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .map(|path| {
            let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
            (stem, std::fs::read_to_string(&path).expect("read spec"))
        })
        .collect();
    files.sort();
    let mut embedded: Vec<(String, String)> = LIBRARY
        .iter()
        .map(|text| {
            let name = ExperimentSpec::parse(text)
                .expect("library specs parse")
                .name;
            (name, (*text).to_owned())
        })
        .collect();
    embedded.sort();
    // Same files, byte for byte, and each file is named after its scenario.
    assert_eq!(files, embedded);
}

/// Each library spec's header shows how to run it (`#     apc-cli …`), and
/// the CLI accepts that command as written, cut to 1 ms.
#[test]
fn library_specs_document_a_command_the_cli_accepts() {
    for text in LIBRARY.iter() {
        let name = ExperimentSpec::parse(text)
            .expect("library specs parse")
            .name;
        let commands: Vec<&str> = text
            .lines()
            .filter_map(|line| line.strip_prefix("#     apc-cli "))
            .collect();
        let [command] = commands[..] else {
            panic!("{name}: expected one documented command, got {commands:?}");
        };
        let mut argv: Vec<&str> = command.split_whitespace().collect();
        assert_eq!(argv.get(1), Some(&name.as_str()), "{name}: `{command}`");
        argv.extend(["--duration-ms", "1"]);
        execute(&args(&argv)).unwrap_or_else(|e| panic!("{name}: `apc-cli {command}`: {e}"));
    }
}

/// Every `.toml` under `dir`, recursively, in path order.
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("spec directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            found.extend(spec_files(&path));
        } else if path.extension().is_some_and(|e| e == "toml") {
            found.push(path);
        }
    }
    found.sort();
    found
}

#[test]
fn every_committed_spec_file_runs() {
    let files = spec_files(&specs_dir());
    assert!(files.len() >= 10 + LIBRARY.len(), "{files:?}");
    for path in files {
        let path = path.to_str().expect("UTF-8 paths");
        let out = execute(&args(&[
            "run",
            path,
            "--duration-ms",
            "1",
            "--format",
            "json",
        ]))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
        JsonValue::parse(&out).unwrap_or_else(|e| panic!("{path}: {e}"));
    }
}

/// The paper's simulated figures are sweeps over the grids of the figure
/// tables (docs/REPRODUCING.md): Fig. 5 over all three platforms, Figs. 6
/// and 7(b, c) over `low_load_sweep.toml`, and Figs. 8 and 9 over each
/// workload's operating points. The figure specs run the `ServerConfig`
/// default seed for 400 ms, and a grid point of every sweep is the direct
/// `run_experiment` of its platform, workload and rate.
#[test]
fn figure_specs_are_the_paper_grids() {
    use PlatformKind::{Cdeep, Cpc1a, Cshallow};
    let operating_rates = |workload: WorkloadSpec| -> Vec<f64> {
        workload
            .operating_points
            .iter()
            .map(|p| p.rate_per_sec)
            .collect()
    };
    let grids = [
        (
            "fig5_latency.toml",
            WorkloadKind::MemcachedEtc,
            vec![Cshallow, Cdeep, Cpc1a],
            vec![4_000.0, 25_000.0, 50_000.0, 100_000.0, 200_000.0, 300_000.0],
        ),
        (
            "low_load_sweep.toml",
            WorkloadKind::MemcachedEtc,
            vec![Cshallow, Cdeep, Cpc1a],
            vec![4_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0],
        ),
        (
            "fig8_mysql.toml",
            WorkloadKind::MysqlOltp,
            vec![Cshallow, Cpc1a],
            operating_rates(WorkloadSpec::mysql_oltp()),
        ),
        (
            "fig9_kafka.toml",
            WorkloadKind::Kafka,
            vec![Cshallow, Cpc1a],
            operating_rates(WorkloadSpec::kafka()),
        ),
    ];
    let window = SimDuration::from_millis(5);
    for (file, workload, platforms, rates) in grids {
        let text = std::fs::read_to_string(specs_dir().join(file)).expect(file);
        let mut spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            spec.kind,
            SpecKind::Sweep {
                rates: rates.clone(),
                platforms: platforms.clone(),
            },
            "{file}"
        );
        assert_eq!(spec.workload, workload, "{file}");
        if file != "low_load_sweep.toml" {
            assert_eq!(spec.seed, ServerConfig::c_shallow().seed, "{file}");
            assert_eq!(spec.duration, SimDuration::from_millis(400), "{file}");
        }

        // The grid's last point, cut to a short window.
        spec.duration = window;
        let Outcome::Runs { labels, fleet, .. } = plan_spec(&spec, None).run() else {
            panic!("{file}: not a sweep outcome");
        };
        let (platform, rate) = (*platforms.last().unwrap(), *rates.last().unwrap());
        let label = format!("{}@{rate}", platform.name());
        assert_eq!(labels.last(), Some(&label), "{file}");
        let direct = run_experiment(
            platform.config().with_duration(window).with_seed(spec.seed),
            workload.spec(),
            rate,
        );
        assert_eq!(fleet.runs.last(), Some(&direct), "{file}");
    }
}

/// One row of a figure sweep's CSV: its numeric cells by column name, and
/// the run the row prints.
struct FigureRow {
    cells: HashMap<String, f64>,
    run: RunResult,
}

/// The sweep of the committed figure spec `file`, cut to [`SMOKE_WINDOW`],
/// as the CSV `apc-cli sweep … --format csv` prints, keyed by row label.
fn figure_rows(file: &str) -> HashMap<String, FigureRow> {
    let path = specs_dir().join(file);
    let path = path.to_str().expect("UTF-8 paths");
    let window_ms = (SMOKE_WINDOW.as_nanos() / 1_000_000).to_string();
    let csv = execute(&args(&[
        "sweep",
        path,
        "--duration-ms",
        &window_ms,
        "--format",
        "csv",
    ]))
    .unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut spec = ExperimentSpec::parse(&std::fs::read_to_string(path).expect(file))
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    spec.duration = SMOKE_WINDOW;
    let Outcome::Runs { labels, fleet, .. } = plan_spec(&spec, None).run() else {
        panic!("{file}: not a sweep outcome");
    };

    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), fleet.runs.len(), "{file}");
    rows.into_iter()
        .zip(labels.into_iter().zip(fleet.runs))
        .map(|(line, (label, run))| {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[0], label, "{file}");
            let cells = header
                .iter()
                .zip(cells)
                .filter_map(|(column, cell)| Some(((*column).to_owned(), cell.parse().ok()?)))
                .collect();
            (label, FigureRow { cells, run })
        })
        .collect()
}

/// The `cshallow` and `cpc1a` rows of `rows` at every rate of `file`.
fn baseline_and_pc1a_rows<'a>(
    file: &str,
    rows: &'a HashMap<String, FigureRow>,
) -> Vec<(&'a FigureRow, &'a FigureRow)> {
    let text = std::fs::read_to_string(specs_dir().join(file)).expect(file);
    let spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let SpecKind::Sweep { rates, .. } = spec.kind else {
        panic!("{file}: not a sweep");
    };
    rates
        .iter()
        .map(|rate| {
            let row = |platform: &str| {
                let label = format!("{platform}@{rate}");
                rows.get(&label)
                    .unwrap_or_else(|| panic!("{file}: no row {label}"))
            };
            (row("cshallow"), row("cpc1a"))
        })
        .collect()
}

/// docs/REPRODUCING.md's PC1A power saving (Figs. 7b, 8 and 9),
/// 1 − P(cpc1a)/P(cshallow) with P = `avg_soc_power_w + avg_dram_power_w`,
/// is the run's `power_saving_vs` its Cshallow baseline.
#[test]
fn documented_power_saving_is_the_run_saving() {
    for file in ["fig8_mysql.toml", "fig9_kafka.toml"] {
        let rows = figure_rows(file);
        for (shallow, pc1a) in baseline_and_pc1a_rows(file, &rows) {
            let power =
                |row: &FigureRow| row.cells["avg_soc_power_w"] + row.cells["avg_dram_power_w"];
            let saving = 1.0 - power(pc1a) / power(shallow);
            assert_eq!(saving, pc1a.run.power_saving_vs(&shallow.run), "{file}");
            assert!(
                saving > 0.0,
                "{file}: PC1A saves power at every operating point"
            );
        }
    }
}

/// docs/REPRODUCING.md's measured latency impact (Figs. 5 and 7c), the
/// `mean_ns` ratio − 1, is the run's `latency_overhead_vs` its Cshallow
/// baseline.
#[test]
fn documented_measured_impact_is_the_run_latency_overhead() {
    let file = "fig5_latency.toml";
    let rows = figure_rows(file);
    for (shallow, pc1a) in baseline_and_pc1a_rows(file, &rows) {
        let impact = pc1a.cells["mean_ns"] / shallow.cells["mean_ns"] - 1.0;
        assert_eq!(impact, pc1a.run.latency_overhead_vs(&shallow.run));
    }
}

/// docs/REPRODUCING.md's model impact (Fig. 7c),
/// round(200 ns × `pc1a_transitions` / `completed_requests`) / Cshallow
/// `mean_ns`, is the analytical model `ImpactInputs::from_runs` builds.
#[test]
fn documented_model_impact_is_the_impact_model() {
    let file = "fig5_latency.toml";
    let rows = figure_rows(file);
    let pairs = baseline_and_pc1a_rows(file, &rows);
    assert!(pairs
        .iter()
        .any(|(_, pc1a)| pc1a.cells["pc1a_transitions"] > 0.0));
    for (shallow, pc1a) in pairs {
        let per_request_ns =
            (200.0 * pc1a.cells["pc1a_transitions"] / pc1a.cells["completed_requests"]).round();
        let impact = per_request_ns / shallow.cells["mean_ns"];
        assert_eq!(
            impact,
            ImpactInputs::from_runs(&pc1a.run, &shallow.run).relative_impact()
        );
    }
}
