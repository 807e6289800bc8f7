//! Materialises parsed specs into fleet/cluster runs and formats results.
//!
//! Every execution path routes through the `apc-server` worker pool:
//! single, fleet and sweep specs become one [`Fleet`] (one member per
//! run/grid-point), cluster and chain specs one [`ClusterFleet`] /
//! [`ChainFleet`] (one member per repeat). The pool guarantees member-order,
//! bit-identical results regardless of worker count, which is what makes
//! `--format json|csv` output byte-identical between sequential and
//! parallel execution.

use apc_analysis::report::TextTable;
use apc_server::chain::{ChainFleet, ChainMember, ChainResult, RequestGraph};
use apc_server::cluster::{ClusterFleet, ClusterMember, ClusterResult};
use apc_server::config::ServerConfig;
use apc_server::fleet::{Fleet, FleetMember, FleetResult};
use apc_server::result::RunResult;
use apc_sim::SimDuration;
use apc_trace::TraceLog;
use apc_workloads::chain::TierService;

use crate::spec::{ExperimentSpec, PlatformKind, SpecKind, TrafficPattern, WorkloadKind};
use crate::stream_out::{self, Sink};

/// The output format of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable fixed-width text (the default).
    #[default]
    Table,
    /// Deterministic pretty-printed JSON.
    Json,
    /// Deterministic CSV.
    Csv,
}

impl OutputFormat {
    /// Parses a `--format` spelling.
    #[must_use]
    pub fn parse(name: &str) -> Option<OutputFormat> {
        match name.to_ascii_lowercase().as_str() {
            "table" => Some(OutputFormat::Table),
            "json" => Some(OutputFormat::Json),
            "csv" => Some(OutputFormat::Csv),
            _ => None,
        }
    }
}

/// The outcome of executing a spec: labelled run results (single, fleet and
/// sweep kinds) or cluster results (one per repeat).
#[derive(Debug)]
pub enum Outcome {
    /// Run-level results with one display label per run.
    Runs {
        /// Experiment name (titles the table output).
        name: String,
        /// One label per member, in member order.
        labels: Vec<String>,
        /// The executed fleet.
        fleet: FleetResult,
    },
    /// Cluster results, one per repeat.
    Clusters {
        /// Experiment name (titles the table output).
        name: String,
        /// The executed clusters, in repeat order.
        results: Vec<ClusterResult>,
    },
    /// Chain results, one per repeat (or one per run of a comparison).
    Chains {
        /// Experiment name (titles the table output).
        name: String,
        /// The executed chain clusters, in repeat order.
        results: Vec<ChainResult>,
    },
}

/// The leaf-tier service spec a workload kind implies for chain
/// experiments: the same calibration as the workload's dominant request
/// class in the single-server mixes.
#[must_use]
fn leaf_service_for(workload: WorkloadKind) -> TierService {
    match workload {
        WorkloadKind::MemcachedEtc => TierService::memcached_leaf(),
        WorkloadKind::Kafka => TierService::kafka_leaf(),
        WorkloadKind::MysqlOltp => TierService::mysql_leaf(),
    }
}

/// Builds the [`RequestGraph`] a chain spec describes: a frontend tier
/// fanning out to `fanout` leaves of the workload's calibration, with
/// optional per-tier mean-service overrides.
#[must_use]
pub fn chain_graph(
    workload: WorkloadKind,
    fanout: usize,
    frontend_service: Option<SimDuration>,
    leaf_service: Option<SimDuration>,
) -> RequestGraph {
    let mut frontend = TierService::frontend();
    if let Some(mean) = frontend_service {
        frontend = frontend.with_mean_service(mean);
    }
    let mut leaf = leaf_service_for(workload);
    if let Some(mean) = leaf_service {
        leaf = leaf.with_mean_service(mean);
    }
    RequestGraph::fanout(frontend, leaf, fanout)
}

/// A materialised spec, ready to run: the built pool plus the display
/// metadata the [`Outcome`] needs. Splitting planning from execution is
/// what lets `apc-cli --out` pick its writer (by kind and format) and
/// create its file *before* the simulation starts, then write each result
/// as it finishes.
pub enum ExecutionPlan {
    /// Run-level plan (single, fleet and sweep specs): one [`Fleet`] member
    /// per run/grid-point.
    Fleet {
        /// Experiment name.
        name: String,
        /// One label per member, in member order.
        labels: Vec<String>,
        /// The built fleet.
        fleet: Fleet,
    },
    /// Cluster plan: one [`ClusterFleet`] member per repeat.
    Cluster {
        /// Experiment name.
        name: String,
        /// The built cluster fleet.
        fleet: ClusterFleet,
    },
    /// Chain plan: one [`ChainFleet`] member per repeat.
    Chain {
        /// Experiment name.
        name: String,
        /// The built chain fleet.
        fleet: ChainFleet,
    },
}

impl ExecutionPlan {
    /// Executes the plan to completion.
    #[must_use]
    pub fn run(self) -> Outcome {
        stream_out::execute(self, None, None)
            .expect("nothing is written")
            .0
    }
}

/// The full sweep grid of a sweep spec, in declaration order
/// (platform-major, then rates): one `(label, member)` per grid point.
/// Grid index `i` of the returned vector is the *global point index* the
/// sweep-shard checkpoints key on. `None` for non-sweep specs.
#[must_use]
pub fn sweep_grid(spec: &ExperimentSpec) -> Option<Vec<(String, FleetMember)>> {
    let SpecKind::Sweep { rates, platforms } = &spec.kind else {
        return None;
    };
    let mut grid = Vec::new();
    for &platform in platforms {
        for &rate in rates {
            let traffic = TrafficPattern::Constant { rate_per_sec: rate };
            // Every grid point reuses the root seed: points differ
            // only along the declared axes, maximising comparability.
            grid.push((
                format!("{}@{rate}", platform.name()),
                spec_member(spec, platform, spec.seed, spec.workload, &traffic),
            ));
        }
    }
    Some(grid)
}

/// Materialises a parsed spec into an [`ExecutionPlan`]; `parallelism`
/// pins the pool's worker threads across the spec's independent members —
/// fleet servers, sweep points, repeats (`None` falls back to the spec's
/// own `parallelism` knob, then the host). Each member runs on one thread,
/// so results are bit-identical whatever the worker count.
#[must_use]
pub fn plan_spec(spec: &ExperimentSpec, parallelism: Option<usize>) -> ExecutionPlan {
    let parallelism = parallelism.or(spec.parallelism);
    match &spec.kind {
        SpecKind::Single => {
            let (labels, members) = (0..spec.repeats)
                .map(|i| {
                    let seed = repeat_seed(spec.seed, i, spec.repeats);
                    (
                        format!("run {i}"),
                        spec_member(spec, spec.platform, seed, spec.workload, &spec.traffic),
                    )
                })
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Fleet { .. } => {
            let (labels, members) = spec
                .per_server
                .iter()
                .enumerate()
                .map(|(i, (workload, traffic))| {
                    let seed = Fleet::member_seed(spec.seed, i);
                    (
                        format!("server {i}"),
                        spec_member(spec, spec.platform, seed, *workload, traffic),
                    )
                })
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Sweep { .. } => {
            let (labels, members) = sweep_grid(spec)
                .expect("sweep kind has a grid")
                .into_iter()
                .unzip();
            plan_fleet(spec, labels, members, parallelism)
        }
        SpecKind::Cluster { nodes, policy } => {
            let mut cluster_fleet = ClusterFleet::new();
            for i in 0..spec.repeats {
                let base =
                    spec_config(spec, spec.platform, repeat_seed(spec.seed, i, spec.repeats));
                let rate = spec.traffic.mean_rate_per_sec();
                let mut member =
                    ClusterMember::homogeneous(&base, *nodes, *policy, spec.workload.spec(), rate);
                if let Some(net) = spec.network {
                    member = member.with_network(net);
                }
                cluster_fleet.push(member);
            }
            if let Some(workers) = parallelism {
                cluster_fleet = cluster_fleet.with_parallelism(workers);
            }
            ExecutionPlan::Cluster {
                name: title(spec),
                fleet: cluster_fleet,
            }
        }
        SpecKind::Chain {
            nodes,
            fanout,
            policy,
            frontend_service,
            leaf_service,
        } => {
            let graph = chain_graph(spec.workload, *fanout, *frontend_service, *leaf_service);
            let mut chain_fleet = ChainFleet::new();
            for i in 0..spec.repeats {
                let base =
                    spec_config(spec, spec.platform, repeat_seed(spec.seed, i, spec.repeats));
                let rate = spec.traffic.mean_rate_per_sec();
                let mut member =
                    ChainMember::homogeneous(&base, *nodes, *policy, graph.clone(), rate);
                if let Some(net) = spec.network {
                    member = member.with_network(net);
                }
                chain_fleet.push(member);
            }
            if let Some(workers) = parallelism {
                chain_fleet = chain_fleet.with_parallelism(workers);
            }
            ExecutionPlan::Chain {
                name: title(spec),
                fleet: chain_fleet,
            }
        }
    }
}

/// The server config every node or member of `spec` runs on `platform`
/// under `seed`: the spec's duration and `[telemetry]` series, plus its
/// observability knobs — `[trace]` and the `--profile` flag. Neither knob
/// perturbs the simulation: the results stay bit-identical with or without
/// them.
fn spec_config(spec: &ExperimentSpec, platform: PlatformKind, seed: u64) -> ServerConfig {
    let mut config = platform
        .config()
        .with_duration(spec.duration)
        .with_seed(seed);
    if let Some(every) = spec.timeseries_interval {
        config = config.with_timeseries(every);
    }
    if let Some(trace) = spec.trace {
        config = config.with_trace(trace);
    }
    if spec.profile {
        config = config.with_profile();
    }
    config
}

/// The seed of repeat `i`: the root seed itself for a single run (matching
/// a direct `run_experiment`), else forked per repeat with the canonical
/// fleet scheme.
fn repeat_seed(root: u64, i: usize, repeats: usize) -> u64 {
    if repeats == 1 {
        root
    } else {
        Fleet::member_seed(root, i)
    }
}

/// The table title of a run: the experiment name with its platform, plus
/// the routing policy for cluster and chain runs, so that an override
/// shows. A sweep's rows name their own platforms, so its title is the name.
fn title(spec: &ExperimentSpec) -> String {
    let platform = spec.platform.name();
    match &spec.kind {
        SpecKind::Single | SpecKind::Fleet { .. } => format!("{} ({platform})", spec.name),
        SpecKind::Cluster { policy, .. } | SpecKind::Chain { policy, .. } => {
            format!("{} ({platform}, {})", spec.name, policy.name())
        }
        SpecKind::Sweep { .. } => spec.name.clone(),
    }
}

/// Builds one fleet member of `spec` running `workload` under `traffic`
/// on `platform` under `seed`.
fn spec_member(
    spec: &ExperimentSpec,
    platform: PlatformKind,
    seed: u64,
    workload: WorkloadKind,
    traffic: &TrafficPattern,
) -> FleetMember {
    let config = spec_config(spec, platform, seed);
    let mut member = FleetMember::new(config, workload.spec(), traffic.mean_rate_per_sec());
    if let Some(arrivals) = traffic.arrival_process(spec.duration) {
        member = member.with_arrival_process(arrivals);
    }
    member
}

fn plan_fleet(
    spec: &ExperimentSpec,
    labels: Vec<String>,
    members: Vec<FleetMember>,
    parallelism: Option<usize>,
) -> ExecutionPlan {
    let mut fleet = Fleet::new();
    for member in members {
        fleet.push(member);
    }
    if let Some(workers) = parallelism {
        fleet = fleet.with_parallelism(workers);
    }
    ExecutionPlan::Fleet {
        name: title(spec),
        labels,
        fleet,
    }
}

impl Outcome {
    /// Renders the outcome in `format`. The JSON shape is a function of the
    /// outcome kind alone, never of the result count: run-level outcomes
    /// are always a fleet object (even for one run), clusters always an
    /// array (even for one repeat), so consumers keep parsing when a count
    /// changes.
    #[must_use]
    pub fn render(&self, format: OutputFormat) -> String {
        stream_out::replay(self, Some((format, Sink::Memory(Vec::new()))), None)
            .expect("writing to memory cannot fail")
            .report()
    }

    /// The table rendering: a run table, or each repeat's summary.
    pub(crate) fn table(&self) -> String {
        match self {
            Outcome::Runs {
                name,
                labels,
                fleet,
            } => runs_table(name, labels, &fleet.runs),
            Outcome::Clusters { name, results } => repeats_text(name, results),
            Outcome::Chains { name, results } => repeats_text(name, results),
        }
    }

    /// Merges every collected request-span log into one (the first log's
    /// bound wins), or `None` when no run traced. Span `pid`s are node
    /// indices, so with `repeats > 1` the repeats share the node rows of
    /// the exported timeline — trace ids still tell them apart.
    #[must_use]
    pub fn merged_trace(&self) -> Option<TraceLog> {
        let logs: Vec<&TraceLog> = match self {
            Outcome::Runs { fleet, .. } => {
                fleet.runs.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
            Outcome::Clusters { results, .. } => {
                results.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
            Outcome::Chains { results, .. } => {
                results.iter().filter_map(|r| r.trace.as_ref()).collect()
            }
        };
        let (first, rest) = logs.split_first()?;
        let mut merged = (*first).clone();
        for log in rest {
            merged.absorb(log);
        }
        Some(merged)
    }

    /// Renders every recorded time series as one concatenated CSV, or
    /// `None` when no run recorded one. Cluster and chain rows are labelled
    /// `node <i>`, prefixed with the repeat when there is more than one.
    #[must_use]
    pub fn timeseries_csv(&self) -> Option<String> {
        stream_out::replay(self, None, Some(Sink::Memory(Vec::new())))
            .expect("writing to memory cannot fail")
            .series_csv()
    }
}

/// The text rendering of cluster-shaped repeats: each result's `Display`
/// under a `== name ==` heading, numbered when there is more than one.
fn repeats_text(name: &str, results: &[impl std::fmt::Display]) -> String {
    let mut out = String::new();
    for (i, result) in results.iter().enumerate() {
        if results.len() > 1 {
            out.push_str(&format!("== {name} repeat {i} ==\n"));
        } else {
            out.push_str(&format!("== {name} ==\n"));
        }
        out.push_str(&format!("{result}\n"));
    }
    out
}

fn runs_table(name: &str, labels: &[String], runs: &[RunResult]) -> String {
    let mut table = TextTable::new(
        name,
        &[
            "run",
            "config",
            "workload",
            "rate",
            "throughput",
            "power W",
            "mean",
            "p99",
            "p999",
            "PC1A %",
            "idle 20-200us %",
        ],
    );
    for (label, r) in labels.iter().zip(runs) {
        table.add_row(&[
            label.clone(),
            r.config_name.to_owned(),
            r.workload.to_owned(),
            format!("{:.0}", r.offered_rate),
            format!("{:.0}", r.throughput()),
            format!("{:.2}", r.avg_total_power().as_f64()),
            format!("{}", r.latency.mean),
            format!("{}", r.latency.p99),
            format!("{}", r.latency.p999),
            format!("{:.1}", r.pc1a_residency * 100.0),
            format!("{:.1}", r.idle_periods_20_200us * 100.0),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(kind: &str, table: &str) -> ExperimentSpec {
        ExperimentSpec::parse(&format!(
            "[experiment]\nkind = \"{kind}\"\nname = \"t\"\n\n[platform]\nname = \"cdeep\"\n\n\
             [workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n{table}"
        ))
        .unwrap()
    }

    #[test]
    fn titles_name_the_platform_and_policy_that_ran() {
        for (kind, table, expected) in [
            ("single", "", "t (cdeep)"),
            ("fleet", "[fleet]\nservers = 2\n", "t (cdeep)"),
            (
                "cluster",
                "[cluster]\nnodes = 2\n",
                "t (cdeep, power-aware)",
            ),
            (
                "chain",
                "[chain]\nnodes = 2\nfanout = 2\n",
                "t (cdeep, join-shortest-queue)",
            ),
            // A sweep's rows carry their platforms; the title is the name.
            ("sweep", "[sweep]\nrates = [100]\n", "t"),
        ] {
            assert_eq!(title(&parse(kind, table)), expected, "{kind}");
        }
    }
}
