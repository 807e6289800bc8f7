//! The experiment-spec file format and its hand-rolled parser.
//!
//! Specs are written in a small, offline-safe **TOML subset** (the
//! workspace has no external dependencies, so the parser is hand-rolled):
//! `[table]` headers, `key = value` pairs, `#` comments, and values that
//! are strings, numbers, booleans or single-line arrays of those.
//! Underscores in numbers (`60_000`) are accepted. What the subset
//! deliberately leaves out: nested/dotted keys, inline tables, multi-line
//! strings and arrays, dates.
//!
//! A spec describes one experiment end-to-end:
//!
//! ```toml
//! [experiment]
//! kind = "cluster"          # single | fleet | cluster | chain | sweep
//! name = "cluster-8-mid"    # titles the table output
//! description = "8-node memcached cluster at the mid operating point"
//! seed = 7
//! duration_ms = 50
//! repeats = 2               # single/cluster only
//! parallelism = 4           # worker threads across repeats/servers/points
//!                           # (default: host cores); `--parallelism` wins
//!
//! [platform]
//! name = "cpc1a"            # cshallow | cdeep | cpc1a
//!
//! [workload]
//! kind = "memcached"        # memcached | kafka | mysql
//! rate_per_sec = 160_000.0
//! pattern = "constant"      # constant | diurnal | flash-crowd
//!
//! [cluster]
//! nodes = 8
//! policy = "power-aware"    # random | round-robin | jsq | power-aware
//!
//! [telemetry]
//! sample_interval_us = 100  # enables the time-series sink
//! ```
//!
//! The CLI's `--duration-ms`, `--seed`, `--platform` and `--policy` flags
//! override the spec's own values (see `apc-cli`'s usage text).
//!
//! A `kind = "fleet"` experiment runs `[fleet] servers` independent
//! servers. Its `[workload] kind` and `rate_per_sec` may each be a
//! single-line array with exactly one entry per server, server 0 first; a
//! scalar applies to every server, and the pattern is shared:
//!
//! ```toml
//! [workload]
//! kind = ["memcached", "memcached", "kafka", "mysql"]
//! rate_per_sec = [25_000, 25_000, 8_000, 800]
//!
//! [fleet]
//! servers = 4
//! ```
//!
//! A `kind = "chain"` experiment swaps `[cluster]` for a `[chain]` table
//! describing the multi-tier fan-out executed across the cluster
//! (`rate_per_sec` then counts *root chains* per second):
//!
//! ```toml
//! [chain]
//! nodes = 8
//! fanout = 4                # leaf RPCs per chain (1 = a linear hop)
//! policy = "jsq"            # default jsq (latency-optimal for joins)
//! frontend_service_us = 10  # optional frontend-tier mean service time
//! leaf_service_us = 19      # optional leaf-tier mean service time
//! ```
//!
//! Cluster and chain experiments may add a `[network]` table routing every
//! balancer/coordinator RPC (and leaf-completion report) through a
//! simulated wire with per-link latency and optional store-and-forward
//! serialization; without it, delivery is instantaneous (the historical
//! behaviour, bit for bit):
//!
//! ```toml
//! [network]
//! topology = "two-tier"     # flat | two-tier | fat-tree
//! latency_us = 5            # per-link propagation latency (>= 0)
//! rack_size = 4             # two-tier/fat-tree (default 4)
//! racks_per_pod = 2         # fat-tree only (default 2)
//! oversubscription = 4.0    # fat-tree pod->core thinning (default 1.0)
//! bandwidth_gbps = 25       # omit for infinite bandwidth
//! rpc_bytes = 2_000         # serialized payload size (default 0)
//! ```
//!
//! Single, cluster and chain experiments may add a `[trace]` table turning
//! on end-to-end request-span tracing (head-sampled off a dedicated RNG
//! fork, so the simulation itself is bit-identical with or without it);
//! the collected spans are written by the `--trace-out` flag as Chrome
//! trace-event JSON:
//!
//! ```toml
//! [trace]
//! sample_every = 16         # trace one in N root requests (1 = all)
//! max_spans = 65_536        # retained-span bound (default 65_536)
//! ```
//!
//! Parsing is **strict**: unknown tables, unknown keys, missing required
//! keys and type mismatches are errors carrying the offending line number,
//! so a typo fails loudly instead of silently running a default.
//! `[network]` and `[trace]` errors are additionally flagged as *usage*
//! errors (CLI exit code 2): a bad fabric or tracing parameter fails the
//! invocation itself. So are values that would make a run panic or never
//! end: a rate (or flash-crowd burst rate) above one request per ns, a
//! `peak_multiplier` below 1 and a `duration_ms` beyond the `u64`
//! nanosecond range.

use apc_network::NetworkConfig;
use apc_server::balancer::RoutingPolicyKind;
use apc_server::config::ServerConfig;
use apc_sim::SimDuration;
use apc_trace::TraceConfig;
use apc_workloads::arrival::{ArrivalProcess, PiecewiseRateArrivals, SinusoidArrivals};
use apc_workloads::spec::WorkloadSpec;

/// A spec parse/validation error with the 1-based line it occurred on
/// (line 0 marks document-level problems, e.g. a missing table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line (0 = whole document).
    pub line: usize,
    /// Usage-level mistake: the CLI maps these to exit code 2 (like a bad
    /// flag) instead of the general input-error exit code 1. Set for
    /// `[network]` table errors, where a fat-fingered fabric parameter
    /// should fail the *invocation* loudly, and for values that would make
    /// a run panic or never finish: offered or burst rates above one
    /// request per ns, a `peak_multiplier` below 1, a `duration_ms` beyond
    /// the nanosecond range.
    pub usage: bool,
}

impl SpecError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
            line,
            usage: false,
        }
    }

    fn doc(message: impl Into<String>) -> Self {
        SpecError::at(0, message)
    }

    /// Re-flags the error as a usage-level mistake (exit code 2).
    fn into_usage(mut self) -> Self {
        self.usage = true;
        self
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

/// A scalar or array value in the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    Str(String),
    /// A non-negative integer literal, kept exact — `seed` uses the full
    /// `u64` range, which `f64` would silently round above 2^53.
    UInt(u64),
    Num(f64),
    Bool(bool),
    Array(Vec<TomlValue>),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::Str(_) => "string",
            TomlValue::UInt(_) | TomlValue::Num(_) => "number",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Array(_) => "array",
        }
    }

    /// The value as an `f64` (integers widen; `None` for non-numbers).
    fn as_f64(&self) -> Option<f64> {
        match self {
            TomlValue::UInt(u) => Some(*u as f64),
            TomlValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// One `key = value` entry with its line, consumed-flag tracking unknown
/// keys.
#[derive(Debug)]
struct Entry {
    key: String,
    value: TomlValue,
    line: usize,
    used: std::cell::Cell<bool>,
}

/// One `[name]` table.
#[derive(Debug)]
struct Table {
    name: String,
    line: usize,
    entries: Vec<Entry>,
}

impl Table {
    fn entry(&self, key: &str) -> Option<&Entry> {
        let e = self.entries.iter().find(|e| e.key == key)?;
        e.used.set(true);
        Some(e)
    }

    fn str(&self, key: &str) -> Result<Option<(String, usize)>, SpecError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                TomlValue::Str(s) => Ok(Some((s.clone(), e.line))),
                other => Err(SpecError::at(
                    e.line,
                    format!("`{key}` must be a string, got a {}", other.type_name()),
                )),
            },
        }
    }

    fn num(&self, key: &str) -> Result<Option<(f64, usize)>, SpecError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value.as_f64() {
                Some(n) => Ok(Some((n, e.line))),
                None => Err(SpecError::at(
                    e.line,
                    format!("`{key}` must be a number, got a {}", e.value.type_name()),
                )),
            },
        }
    }

    /// An exact non-negative integer (full `u64` range, no float rounding).
    fn uint(&self, key: &str) -> Result<Option<(u64, usize)>, SpecError> {
        match self.entry(key) {
            None => Ok(None),
            Some(e) => match e.value {
                TomlValue::UInt(u) => Ok(Some((u, e.line))),
                ref other => Err(SpecError::at(
                    e.line,
                    format!(
                        "`{key}` must be a non-negative integer, got a {}",
                        other.type_name()
                    ),
                )),
            },
        }
    }

    fn positive(&self, key: &str) -> Result<Option<(f64, usize)>, SpecError> {
        match self.num(key)? {
            Some((n, line)) if n > 0.0 => Ok(Some((n, line))),
            Some((n, line)) => Err(SpecError::at(line, format!("`{key}` must be > 0, got {n}"))),
            None => Ok(None),
        }
    }

    fn count(&self, key: &str) -> Result<Option<(usize, usize)>, SpecError> {
        // Counts size allocations and pool fan-outs, so an absurd value is
        // a typo to reject loudly, not an instruction to OOM.
        const MAX_COUNT: f64 = 100_000.0;
        match self.positive(key)? {
            Some((n, line)) if n.fract() == 0.0 && n <= MAX_COUNT => Ok(Some((n as usize, line))),
            Some((n, line)) => Err(SpecError::at(
                line,
                format!("`{key}` must be an integer in 1..={MAX_COUNT}, got {n}"),
            )),
            None => Ok(None),
        }
    }

    /// A positive duration built via `to_duration`, rejected when it rounds
    /// to zero nanoseconds (a zero interval would silently disable or stall
    /// whatever it configures).
    fn duration(
        &self,
        key: &str,
        to_duration: impl Fn(f64) -> SimDuration,
    ) -> Result<Option<SimDuration>, SpecError> {
        match self.positive(key)? {
            None => Ok(None),
            Some((n, line)) => {
                let d = to_duration(n);
                if d.is_zero() {
                    return Err(SpecError::at(
                        line,
                        format!("`{key}` = {n} rounds to zero nanoseconds"),
                    ));
                }
                Ok(Some(d))
            }
        }
    }

    fn unused_key_error(&self) -> Option<SpecError> {
        self.entries.iter().find(|e| !e.used.get()).map(|e| {
            SpecError::at(
                e.line,
                format!("unknown key `{}` in [{}]", e.key, self.name),
            )
        })
    }
}

fn parse_tables(text: &str) -> Result<Vec<Table>, SpecError> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| SpecError::at(line_no, "unterminated table header"))?
                .trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(SpecError::at(
                    line_no,
                    format!("invalid table name `{name}`"),
                ));
            }
            if tables.iter().any(|t| t.name == name) {
                return Err(SpecError::at(
                    line_no,
                    format!("table [{name}] defined twice"),
                ));
            }
            tables.push(Table {
                name: name.to_owned(),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| SpecError::at(line_no, "expected `key = value` or `[table]`"))?;
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SpecError::at(line_no, format!("invalid key `{key}`")));
        }
        let table = tables
            .last_mut()
            .ok_or_else(|| SpecError::at(line_no, "key outside any [table]"))?;
        if table.entries.iter().any(|e| e.key == key) {
            return Err(SpecError::at(
                line_no,
                format!("key `{key}` defined twice in [{}]", table.name),
            ));
        }
        let value = parse_value(value.trim(), line_no)?;
        table.entries.push(Entry {
            key: key.to_owned(),
            value,
            line: line_no,
            used: std::cell::Cell::new(false),
        });
    }
    Ok(tables)
}

/// Strips a `#` comment, respecting `"`-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str, line: usize) -> Result<TomlValue, SpecError> {
    if text.is_empty() {
        return Err(SpecError::at(line, "missing value after `=`"));
    }
    if let Some(rest) = text.strip_prefix('[') {
        let inner = rest
            .strip_suffix(']')
            .ok_or_else(|| SpecError::at(line, "unterminated array (arrays are single-line)"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner, line)? {
            let part = part.trim();
            if part.is_empty() {
                continue; // trailing comma
            }
            let item = parse_value(part, line)?;
            if matches!(item, TomlValue::Array(_)) {
                return Err(SpecError::at(line, "nested arrays are not supported"));
            }
            items.push(item);
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(rest) = text.strip_prefix('"') {
        let inner = rest
            .strip_suffix('"')
            .ok_or_else(|| SpecError::at(line, "unterminated string"))?;
        if inner.contains('"') {
            return Err(SpecError::at(line, "escapes are not supported in strings"));
        }
        return Ok(TomlValue::Str(inner.to_owned()));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    let numeric: String = text.chars().filter(|&c| c != '_').collect();
    // Plain integer literals stay exact (u64); everything else goes through
    // f64 — rejecting the non-finite spellings `f64::parse` would accept
    // (`inf`, `nan`, overflowing exponents), which have no physical meaning
    // in a spec and must fail loudly like any other typo.
    if !numeric.contains(['.', 'e', 'E']) {
        if let Ok(u) = numeric.parse::<u64>() {
            return Ok(TomlValue::UInt(u));
        }
    }
    match numeric.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(TomlValue::Num(v)),
        Ok(_) => Err(SpecError::at(
            line,
            format!("non-finite value `{text}` is not allowed"),
        )),
        Err(_) => Err(SpecError::at(line, format!("invalid value `{text}`"))),
    }
}

/// Splits array items on commas outside quotes.
fn split_array_items(inner: &str, line: usize) -> Result<Vec<&str>, SpecError> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_string {
        return Err(SpecError::at(line, "unterminated string in array"));
    }
    items.push(&inner[start..]);
    Ok(items)
}

// ---- the spec model ----------------------------------------------------

/// The three platform configurations of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformKind {
    /// CC1-only baseline (`Cshallow`).
    Cshallow,
    /// All C-states enabled (`Cdeep`).
    Cdeep,
    /// `Cshallow` plus the APC hardware (`CPC1A`).
    Cpc1a,
}

impl PlatformKind {
    /// All platforms, in presentation order.
    #[must_use]
    pub fn all() -> [PlatformKind; 3] {
        [
            PlatformKind::Cshallow,
            PlatformKind::Cdeep,
            PlatformKind::Cpc1a,
        ]
    }

    /// The spec-file spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PlatformKind::Cshallow => "cshallow",
            PlatformKind::Cdeep => "cdeep",
            PlatformKind::Cpc1a => "cpc1a",
        }
    }

    /// Parses a spec-file platform name (case-insensitive).
    #[must_use]
    pub fn parse(name: &str) -> Option<PlatformKind> {
        match name.to_ascii_lowercase().as_str() {
            "cshallow" => Some(PlatformKind::Cshallow),
            "cdeep" => Some(PlatformKind::Cdeep),
            "cpc1a" => Some(PlatformKind::Cpc1a),
            _ => None,
        }
    }

    /// Builds the base server configuration for this platform.
    #[must_use]
    pub fn config(self) -> ServerConfig {
        match self {
            PlatformKind::Cshallow => ServerConfig::c_shallow(),
            PlatformKind::Cdeep => ServerConfig::c_deep(),
            PlatformKind::Cpc1a => ServerConfig::c_pc1a(),
        }
    }
}

/// Which of the modelled services a server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Memcached under the Facebook ETC mix ([`WorkloadSpec::memcached_etc`]).
    MemcachedEtc,
    /// Kafka produce/consume streaming ([`WorkloadSpec::kafka`]).
    Kafka,
    /// MySQL running sysbench-OLTP transactions ([`WorkloadSpec::mysql_oltp`]).
    MysqlOltp,
}

impl WorkloadKind {
    /// Builds a fresh specification for this workload (specs own boxed
    /// distributions and cannot be cloned, so each member gets its own).
    #[must_use]
    pub fn spec(self) -> WorkloadSpec {
        match self {
            WorkloadKind::MemcachedEtc => WorkloadSpec::memcached_etc(),
            WorkloadKind::Kafka => WorkloadSpec::kafka(),
            WorkloadKind::MysqlOltp => WorkloadSpec::mysql_oltp(),
        }
    }

    /// The spec-file spelling, as it appears in results and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::MemcachedEtc => "memcached",
            WorkloadKind::Kafka => "kafka",
            WorkloadKind::MysqlOltp => "mysql",
        }
    }
}

/// The shape of a server's offered traffic over the run.
///
/// Time-varying patterns are expressed relative to the run's duration, so
/// one spec scales from unit-test windows to long runs without re-tuning.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// The workload's default stationary arrivals (bursty MMPP for the
    /// built-in workloads) at a constant offered rate.
    Constant {
        /// Offered rate in requests per second.
        rate_per_sec: f64,
    },
    /// A sinusoidal day/night curve compressed into the run: one full
    /// oscillation over the duration.
    Diurnal {
        /// Long-run average rate in requests per second.
        mean_rate_per_sec: f64,
        /// Relative swing in `[0, 1)`: 0.75 oscillates between 0.25× and
        /// 1.75× the mean.
        swing: f64,
    },
    /// A transient burst: base rate, then `peak_multiplier ×` base for a
    /// window, then base again.
    FlashCrowd {
        /// Rate outside the burst, in requests per second.
        base_rate_per_sec: f64,
        /// Rate multiplier during the burst (at least 1).
        peak_multiplier: f64,
        /// Burst start, as a fraction of the duration in `(0, 1)`.
        start_fraction: f64,
        /// Burst length, as a fraction of the duration in `(0, 1)`.
        length_fraction: f64,
    },
}

impl TrafficPattern {
    /// The pattern's mean rate over the run horizon.
    #[must_use]
    pub fn mean_rate_per_sec(&self) -> f64 {
        match self {
            TrafficPattern::Constant { rate_per_sec } => *rate_per_sec,
            TrafficPattern::Diurnal {
                mean_rate_per_sec, ..
            } => *mean_rate_per_sec,
            TrafficPattern::FlashCrowd {
                base_rate_per_sec,
                peak_multiplier,
                length_fraction,
                ..
            } => base_rate_per_sec * (1.0 + (peak_multiplier - 1.0) * length_fraction),
        }
    }

    /// Builds the arrival process for one server, or `None` when the
    /// workload's own stationary process should be used
    /// ([`TrafficPattern::Constant`]).
    #[must_use]
    pub fn arrival_process(&self, duration: SimDuration) -> Option<Box<dyn ArrivalProcess>> {
        match self {
            TrafficPattern::Constant { .. } => None,
            TrafficPattern::Diurnal {
                mean_rate_per_sec,
                swing,
            } => Some(Box::new(SinusoidArrivals::new(
                *mean_rate_per_sec,
                *swing,
                duration,
                0.0,
            ))),
            TrafficPattern::FlashCrowd {
                base_rate_per_sec,
                peak_multiplier,
                start_fraction,
                length_fraction,
            } => Some(Box::new(PiecewiseRateArrivals::flash_crowd(
                *base_rate_per_sec,
                *peak_multiplier,
                duration.mul_f64(*start_fraction),
                duration.mul_f64(*length_fraction),
            ))),
        }
    }
}

/// What shape of experiment a spec runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecKind {
    /// One server (optionally repeated under derived seeds).
    Single,
    /// A fleet of independent servers sharing the workload and traffic.
    Fleet {
        /// Number of servers.
        servers: usize,
    },
    /// An N-node cluster behind a load balancer.
    Cluster {
        /// Number of nodes.
        nodes: usize,
        /// The routing policy.
        policy: RoutingPolicyKind,
    },
    /// An N-node cluster executing multi-tier fan-out request chains
    /// through a chain coordinator (`rate_per_sec` counts root chains).
    Chain {
        /// Number of nodes.
        nodes: usize,
        /// Leaf RPCs issued per chain (the fan-out width; 1 = linear hop).
        fanout: usize,
        /// The routing policy RPCs are spread with.
        policy: RoutingPolicyKind,
        /// Frontend-tier mean service time override.
        frontend_service: Option<SimDuration>,
        /// Leaf-tier mean service time override.
        leaf_service: Option<SimDuration>,
    },
    /// A cartesian sweep over offered rates × platforms (single-server runs).
    Sweep {
        /// The load axis (requests per second).
        rates: Vec<f64>,
        /// The platform axis.
        platforms: Vec<PlatformKind>,
    },
}

impl SpecKind {
    /// The spec-file spelling of the kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SpecKind::Single => "single",
            SpecKind::Fleet { .. } => "fleet",
            SpecKind::Cluster { .. } => "cluster",
            SpecKind::Chain { .. } => "chain",
            SpecKind::Sweep { .. } => "sweep",
        }
    }
}

/// A parsed, validated experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (defaults to `"experiment"`).
    pub name: String,
    /// One-line description of what the experiment exercises (`list`
    /// prints it).
    pub description: Option<String>,
    /// The experiment shape.
    pub kind: SpecKind,
    /// Base platform (for sweeps, the per-point platform axis wins).
    pub platform: PlatformKind,
    /// The service the server or every node runs. A fleet runs
    /// `per_server` instead; this is its server 0.
    pub workload: WorkloadKind,
    /// The offered-traffic shape. A fleet runs `per_server` instead; this
    /// is its server 0.
    pub traffic: TrafficPattern,
    /// A fleet's `(workload, traffic)` per server, server 0 first: exactly
    /// `[fleet] servers` entries. Empty for every other kind.
    pub per_server: Vec<(WorkloadKind, TrafficPattern)>,
    /// Simulated duration of each run.
    pub duration: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Repeat count (single and cluster kinds only).
    pub repeats: usize,
    /// Worker threads across the experiment's independent members — fleet
    /// servers, sweep points, repeats — from the spec itself (`None` sizes
    /// the pool to the host; an explicit `--parallelism` flag overrides
    /// this knob). Each member's simulation runs on one thread.
    pub parallelism: Option<usize>,
    /// Time-series sampling interval, when `[telemetry]` enables the sink.
    pub timeseries_interval: Option<SimDuration>,
    /// Network fabric configuration, when `[network]` declares one
    /// (cluster and chain experiments only).
    pub network: Option<NetworkConfig>,
    /// Request-span tracing configuration, when `[trace]` declares one
    /// (single, cluster and chain experiments only). `--trace-out` writes
    /// the collected spans as Chrome trace-event JSON.
    pub trace: Option<TraceConfig>,
    /// Engine self-profiler switch; never set by the spec file itself —
    /// the `--profile` flag turns it on after parsing.
    pub profile: bool,
}

/// The highest offered rate a spec may ask for: one request per simulated
/// nanosecond. Above it every Poisson gap rounds to 0 ns, so simulated time
/// would never advance.
const MAX_RATE_PER_SEC: f64 = 1e9;

/// The longest horizon, in milliseconds, whose nanosecond count fits a
/// `u64`; shared by `duration_ms` and `--duration-ms`.
pub const MAX_DURATION_MS: u64 = u64::MAX / 1_000_000;

/// Parses a routing-policy spelling shared by spec files and `--policy`.
#[must_use]
pub fn parse_policy(name: &str) -> Option<RoutingPolicyKind> {
    match name.to_ascii_lowercase().as_str() {
        "random" => Some(RoutingPolicyKind::Random),
        "round-robin" => Some(RoutingPolicyKind::RoundRobin),
        "jsq" | "join-shortest-queue" => Some(RoutingPolicyKind::JoinShortestQueue),
        "power-aware" => Some(RoutingPolicyKind::PowerAware),
        _ => None,
    }
}

/// Parses a workload spelling shared by spec files and results.
#[must_use]
fn parse_workload(name: &str) -> Option<WorkloadKind> {
    match name.to_ascii_lowercase().as_str() {
        "memcached" => Some(WorkloadKind::MemcachedEtc),
        "kafka" => Some(WorkloadKind::Kafka),
        "mysql" => Some(WorkloadKind::MysqlOltp),
        _ => None,
    }
}

impl ExperimentSpec {
    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending line for syntax errors,
    /// unknown tables/keys, type mismatches, missing required keys and
    /// inconsistent table/kind combinations.
    pub fn parse(text: &str) -> Result<ExperimentSpec, SpecError> {
        let tables = parse_tables(text)?;
        for t in &tables {
            if !matches!(
                t.name.as_str(),
                "experiment"
                    | "platform"
                    | "workload"
                    | "fleet"
                    | "cluster"
                    | "chain"
                    | "sweep"
                    | "telemetry"
                    | "network"
                    | "trace"
            ) {
                return Err(SpecError::at(t.line, format!("unknown table [{}]", t.name)));
            }
        }
        let find = |name: &str| tables.iter().find(|t| t.name == name);

        // [experiment]
        let experiment = find("experiment")
            .ok_or_else(|| SpecError::doc("missing required table [experiment]"))?;
        let (kind_name, kind_line) = experiment
            .str("kind")?
            .ok_or_else(|| SpecError::at(experiment.line, "[experiment] needs `kind`"))?;
        let name = experiment
            .str("name")?
            .map_or_else(|| "experiment".to_owned(), |(s, _)| s);
        let description = experiment.str("description")?.map(|(s, _)| s);
        let seed = experiment.uint("seed")?.map_or(0x5eed, |(u, _)| u);
        // Like `--duration-ms`, a horizon beyond the nanosecond range is a
        // usage error, not a silent saturation to a run that never ends.
        if let Some((ms, line)) = experiment.num("duration_ms")? {
            if ms > MAX_DURATION_MS as f64 {
                return Err(SpecError::at(
                    line,
                    format!("`duration_ms` must be at most {MAX_DURATION_MS}, got {ms}"),
                )
                .into_usage());
            }
        }
        let duration = experiment
            .duration("duration_ms", |ms| {
                SimDuration::from_micros_f64(ms * 1_000.0)
            })?
            .unwrap_or(SimDuration::from_millis(100));
        let repeats = experiment.count("repeats")?.map_or(1, |(n, _)| n);
        // Like a bad `--parallelism` flag, a bad spec knob is a usage-level
        // mistake (exit code 2), still carrying the offending line number.
        let parallelism = experiment
            .count("parallelism")
            .map_err(SpecError::into_usage)?
            .map(|(n, _)| n);

        // [platform]
        let platform_declared = find("platform").is_some();
        let platform = match find("platform") {
            None => PlatformKind::Cpc1a,
            Some(t) => match t.str("name")? {
                None => PlatformKind::Cpc1a,
                Some((s, line)) => PlatformKind::parse(&s).ok_or_else(|| {
                    SpecError::at(
                        line,
                        format!("unknown platform `{s}` (cshallow|cdeep|cpc1a)"),
                    )
                })?,
            },
        };

        // [workload]
        let workload_table =
            find("workload").ok_or_else(|| SpecError::doc("missing required table [workload]"))?;
        let kinds = PerServer::parse(workload_table, "kind", |value, line| match value {
            TomlValue::Str(s) => parse_workload(s).ok_or_else(|| {
                SpecError::at(
                    line,
                    format!("unknown workload `{s}` (memcached|kafka|mysql)"),
                )
            }),
            other => Err(SpecError::at(
                line,
                format!("`kind` must be a string, got a {}", other.type_name()),
            )),
        })?
        .ok_or_else(|| SpecError::at(workload_table.line, "[workload] needs `kind`"))?;
        let rates = PerServer::parse(workload_table, "rate_per_sec", |value, line| {
            match value.as_f64() {
                None => Err(SpecError::at(
                    line,
                    format!(
                        "`rate_per_sec` must be a number, got a {}",
                        value.type_name()
                    ),
                )),
                Some(rate) if rate <= 0.0 => Err(SpecError::at(
                    line,
                    format!("`rate_per_sec` must be > 0, got {rate}"),
                )),
                Some(rate) if rate > MAX_RATE_PER_SEC => Err(SpecError::at(
                    line,
                    format!(
                        "`rate_per_sec` must be at most {MAX_RATE_PER_SEC:e} \
                         (one request per ns), got {rate:e}"
                    ),
                )
                .into_usage()),
                Some(rate) => Ok(rate),
            }
        })?
        .ok_or_else(|| SpecError::at(workload_table.line, "[workload] needs `rate_per_sec`"))?;
        let traffic = parse_traffic(workload_table, rates.values[0], rates.line)?;

        // [telemetry]
        let timeseries_interval = match find("telemetry") {
            None => None,
            Some(t) => {
                let interval = t
                    .duration("sample_interval_us", SimDuration::from_micros_f64)?
                    .ok_or_else(|| {
                        SpecError::at(t.line, "[telemetry] needs `sample_interval_us`")
                    })?;
                Some(interval)
            }
        };

        // [network] — every error is usage-flagged (CLI exit code 2).
        let network = match find("network") {
            None => None,
            Some(t) => Some(parse_network(t).map_err(SpecError::into_usage)?),
        };

        // [trace] — same stance: a bad tracing parameter is a usage error.
        let trace = match find("trace") {
            None => None,
            Some(t) => Some(parse_trace(t).map_err(SpecError::into_usage)?),
        };

        // kind + its table
        let kind = match kind_name.as_str() {
            "single" => SpecKind::Single,
            "fleet" => {
                let t = find("fleet").ok_or_else(|| {
                    SpecError::at(kind_line, "kind = \"fleet\" needs a [fleet] table")
                })?;
                let (servers, _) = t
                    .count("servers")?
                    .ok_or_else(|| SpecError::at(t.line, "[fleet] needs `servers`"))?;
                SpecKind::Fleet { servers }
            }
            "cluster" => {
                let t = find("cluster").ok_or_else(|| {
                    SpecError::at(kind_line, "kind = \"cluster\" needs a [cluster] table")
                })?;
                let (nodes, _) = t
                    .count("nodes")?
                    .ok_or_else(|| SpecError::at(t.line, "[cluster] needs `nodes`"))?;
                let policy = match t.str("policy")? {
                    None => RoutingPolicyKind::PowerAware,
                    Some((s, line)) => parse_policy(&s).ok_or_else(|| {
                        SpecError::at(
                            line,
                            format!("unknown policy `{s}` (random|round-robin|jsq|power-aware)"),
                        )
                    })?,
                };
                SpecKind::Cluster { nodes, policy }
            }
            "chain" => {
                let t = find("chain").ok_or_else(|| {
                    SpecError::at(kind_line, "kind = \"chain\" needs a [chain] table")
                })?;
                let (nodes, _) = t
                    .count("nodes")?
                    .ok_or_else(|| SpecError::at(t.line, "[chain] needs `nodes`"))?;
                let (fanout, _) = t
                    .count("fanout")?
                    .ok_or_else(|| SpecError::at(t.line, "[chain] needs `fanout`"))?;
                let policy = match t.str("policy")? {
                    None => RoutingPolicyKind::JoinShortestQueue,
                    Some((s, line)) => parse_policy(&s).ok_or_else(|| {
                        SpecError::at(
                            line,
                            format!("unknown policy `{s}` (random|round-robin|jsq|power-aware)"),
                        )
                    })?,
                };
                let frontend_service =
                    t.duration("frontend_service_us", SimDuration::from_micros_f64)?;
                let leaf_service = t.duration("leaf_service_us", SimDuration::from_micros_f64)?;
                SpecKind::Chain {
                    nodes,
                    fanout,
                    policy,
                    frontend_service,
                    leaf_service,
                }
            }
            "sweep" => {
                let t = find("sweep").ok_or_else(|| {
                    SpecError::at(kind_line, "kind = \"sweep\" needs a [sweep] table")
                })?;
                let rates = match t.entry("rates") {
                    None => return Err(SpecError::at(t.line, "[sweep] needs `rates`")),
                    Some(e) => match &e.value {
                        TomlValue::Array(items) => {
                            let mut rates = Vec::new();
                            for item in items {
                                match item.as_f64() {
                                    Some(n) if n > MAX_RATE_PER_SEC => {
                                        return Err(SpecError::at(
                                            e.line,
                                            format!(
                                                "`rates` must be at most {MAX_RATE_PER_SEC:e} \
                                                 (one request per ns), got {n:e}"
                                            ),
                                        )
                                        .into_usage())
                                    }
                                    Some(n) if n > 0.0 => rates.push(n),
                                    _ => {
                                        return Err(SpecError::at(
                                            e.line,
                                            "`rates` must be positive numbers",
                                        ))
                                    }
                                }
                            }
                            if rates.is_empty() {
                                return Err(SpecError::at(e.line, "`rates` must not be empty"));
                            }
                            rates
                        }
                        other => {
                            return Err(SpecError::at(
                                e.line,
                                format!("`rates` must be an array, got a {}", other.type_name()),
                            ))
                        }
                    },
                };
                // The platform axis and the base [platform] table are the
                // same knob spelled two ways: a declared [platform] becomes
                // the (single-point) axis, an explicit `platforms` array
                // alongside it is a conflict, and with neither the sweep
                // covers all three platforms.
                let platforms = match t.entry("platforms") {
                    None if platform_declared => vec![platform],
                    None => PlatformKind::all().to_vec(),
                    Some(e) if platform_declared => {
                        return Err(SpecError::at(
                            e.line,
                            "`platforms` conflicts with the [platform] table \
                             (declare the axis in one place)",
                        ))
                    }
                    Some(e) => match &e.value {
                        TomlValue::Array(items) => {
                            let mut platforms = Vec::new();
                            for item in items {
                                match item {
                                    TomlValue::Str(s) => {
                                        platforms.push(PlatformKind::parse(s).ok_or_else(
                                            || {
                                                SpecError::at(
                                                    e.line,
                                                    format!("unknown platform `{s}`"),
                                                )
                                            },
                                        )?);
                                    }
                                    _ => {
                                        return Err(SpecError::at(
                                            e.line,
                                            "`platforms` must be strings",
                                        ))
                                    }
                                }
                            }
                            if platforms.is_empty() {
                                return Err(SpecError::at(e.line, "`platforms` must not be empty"));
                            }
                            platforms
                        }
                        other => {
                            return Err(SpecError::at(
                                e.line,
                                format!(
                                    "`platforms` must be an array, got a {}",
                                    other.type_name()
                                ),
                            ))
                        }
                    },
                };
                SpecKind::Sweep { rates, platforms }
            }
            other => {
                return Err(SpecError::at(
                    kind_line,
                    format!("unknown experiment kind `{other}` (single|fleet|cluster|chain|sweep)"),
                ))
            }
        };

        // Shape tables that contradict the declared kind are conflicts, not
        // silently ignored data.
        for (table, wanted) in [
            ("fleet", "fleet"),
            ("cluster", "cluster"),
            ("chain", "chain"),
            ("sweep", "sweep"),
        ] {
            if let Some(t) = find(table) {
                if kind_name != wanted {
                    return Err(SpecError::at(
                        t.line,
                        format!("[{table}] conflicts with kind = \"{kind_name}\""),
                    ));
                }
            }
        }
        if let Some(t) = find("network") {
            if !matches!(kind, SpecKind::Cluster { .. } | SpecKind::Chain { .. }) {
                return Err(SpecError::at(
                    t.line,
                    format!(
                        "[network] applies to cluster and chain experiments, \
                         not kind = \"{kind_name}\""
                    ),
                ));
            }
        }
        if let Some(t) = find("trace") {
            if !matches!(
                kind,
                SpecKind::Single | SpecKind::Cluster { .. } | SpecKind::Chain { .. }
            ) {
                return Err(SpecError::at(
                    t.line,
                    format!(
                        "[trace] applies to single, cluster and chain experiments, \
                         not kind = \"{kind_name}\""
                    ),
                ));
            }
        }
        if repeats > 1 && matches!(kind, SpecKind::Fleet { .. } | SpecKind::Sweep { .. }) {
            return Err(SpecError::doc(format!(
                "`repeats` applies to single, cluster and chain experiments, \
                 not kind = \"{kind_name}\""
            )));
        }
        if matches!(kind, SpecKind::Cluster { .. })
            && !matches!(traffic, TrafficPattern::Constant { .. })
        {
            return Err(SpecError::doc(
                "cluster experiments support only pattern = \"constant\" \
                 (the balancer owns one stationary arrival stream)",
            ));
        }
        if matches!(kind, SpecKind::Chain { .. })
            && !matches!(traffic, TrafficPattern::Constant { .. })
        {
            return Err(SpecError::doc(
                "chain experiments support only pattern = \"constant\" \
                 (the coordinator owns one stationary root-arrival stream)",
            ));
        }
        if matches!(kind, SpecKind::Sweep { .. })
            && !matches!(traffic, TrafficPattern::Constant { .. })
        {
            return Err(SpecError::doc(
                "sweep experiments support only pattern = \"constant\" \
                 (the rate axis replaces the pattern's rate)",
            ));
        }

        // Per-server arrays describe a fleet: one entry per server.
        let servers = match kind {
            SpecKind::Fleet { servers } => Some(servers),
            _ => None,
        };
        for (key, values, array, line) in [
            ("kind", kinds.values.len(), kinds.array, kinds.line),
            ("rate_per_sec", rates.values.len(), rates.array, rates.line),
        ] {
            match servers {
                _ if !array => {}
                None => {
                    return Err(SpecError::at(
                        line,
                        format!(
                            "`{key}` may be an array only for kind = \"fleet\" \
                             (one entry per server), not kind = \"{kind_name}\""
                        ),
                    ))
                }
                Some(n) if n != values => {
                    return Err(SpecError::at(
                        line,
                        format!("`{key}` lists {values} entries for {n} servers"),
                    ))
                }
                Some(_) => {}
            }
        }
        // Every fleet server gets its own load, from an array or a scalar;
        // the shared pattern is re-read at each server's rate, so a flash
        // crowd's burst is checked against every one of them.
        let per_server = match servers {
            Some(n) => (0..n)
                .map(|i| {
                    let traffic = parse_traffic(workload_table, *rates.get(i), rates.line)?;
                    Ok((*kinds.get(i), traffic))
                })
                .collect::<Result<_, SpecError>>()?,
            None => Vec::new(),
        };

        // Every key must have been consumed by now.
        for t in &tables {
            if let Some(err) = t.unused_key_error() {
                return Err(err);
            }
        }

        Ok(ExperimentSpec {
            name,
            description,
            kind,
            platform,
            workload: kinds.values[0],
            traffic,
            per_server,
            duration,
            seed,
            repeats,
            parallelism,
            timeseries_interval,
            network,
            trace,
            profile: false,
        })
    }
}

/// Parses the `[trace]` table into a [`TraceConfig`]. Strict like
/// [`parse_network`]: unknown keys and out-of-range rates fail with the
/// offending line (the caller re-flags every error as a usage error).
fn parse_trace(t: &Table) -> Result<TraceConfig, SpecError> {
    // Check unknown keys up front so they carry the usage flag instead of
    // falling through to the generic unused-key sweep.
    const KNOWN: [&str; 2] = ["sample_every", "max_spans"];
    for e in &t.entries {
        if !KNOWN.contains(&e.key.as_str()) {
            return Err(SpecError::at(
                e.line,
                format!("unknown key `{}` in [trace]", e.key),
            ));
        }
    }
    let (sample_every, line) = t
        .uint("sample_every")?
        .ok_or_else(|| SpecError::at(t.line, "[trace] needs `sample_every`"))?;
    if sample_every == 0 {
        return Err(SpecError::at(
            line,
            "`sample_every` must be at least 1 (1 traces every request)",
        ));
    }
    let mut config = TraceConfig::new(sample_every);
    if let Some((max_spans, line)) = t.uint("max_spans")? {
        if max_spans == 0 {
            return Err(SpecError::at(line, "`max_spans` must be at least 1"));
        }
        let max_spans = usize::try_from(max_spans)
            .map_err(|_| SpecError::at(line, "`max_spans` does not fit in memory"))?;
        config = config.with_max_spans(max_spans);
    }
    Ok(config)
}

/// Parses the `[network]` table into a [`NetworkConfig`]. Validation is
/// eager and strict: unknown keys, unknown topology names, negative
/// latencies and non-positive bandwidths all fail here with the offending
/// line (the caller re-flags every error as a usage error).
fn parse_network(t: &Table) -> Result<NetworkConfig, SpecError> {
    // Check unknown keys up front so they carry the usage flag instead of
    // falling through to the generic unused-key sweep.
    const KNOWN: [&str; 7] = [
        "topology",
        "latency_us",
        "bandwidth_gbps",
        "rpc_bytes",
        "rack_size",
        "racks_per_pod",
        "oversubscription",
    ];
    for e in &t.entries {
        if !KNOWN.contains(&e.key.as_str()) {
            return Err(SpecError::at(
                e.line,
                format!("unknown key `{}` in [network]", e.key),
            ));
        }
    }
    let (topo_name, topo_line) = t
        .str("topology")?
        .ok_or_else(|| SpecError::at(t.line, "[network] needs `topology`"))?;
    let latency = match t.num("latency_us")? {
        None => SimDuration::ZERO,
        Some((n, line)) => {
            if n < 0.0 {
                return Err(SpecError::at(
                    line,
                    format!("`latency_us` must be >= 0, got {n}"),
                ));
            }
            // Like `duration_ms`, a latency whose nanoseconds do not fit a
            // `u64` is an error, not a silent saturation. The check takes
            // the count `from_micros_f64` rounds to; `u64::MAX as f64` is
            // 2^64.
            if (n * 1e-6 * 1e9).round() >= u64::MAX as f64 {
                return Err(SpecError::at(
                    line,
                    format!("`latency_us` must be below 2^64 ns (about 1.8e16), got {n}"),
                ));
            }
            SimDuration::from_micros_f64(n)
        }
    };
    let rack_size = t.count("rack_size")?.map_or(4, |(n, _)| n);
    let racks_per_pod = t.count("racks_per_pod")?.map_or(2, |(n, _)| n);
    let oversubscription = t.positive("oversubscription")?.map_or(1.0, |(n, _)| n);
    // Keys that only shape the deeper topologies are conflicts elsewhere,
    // not silently ignored data (same stance as the shape tables).
    let reject = |key: &str| -> Result<(), SpecError> {
        match t.entry(key) {
            Some(e) => Err(SpecError::at(
                e.line,
                format!("`{key}` does not apply to topology = \"{topo_name}\""),
            )),
            None => Ok(()),
        }
    };
    let mut config = match topo_name.as_str() {
        "flat" => {
            for key in ["rack_size", "racks_per_pod", "oversubscription"] {
                reject(key)?;
            }
            NetworkConfig::flat(latency)
        }
        "two-tier" => {
            for key in ["racks_per_pod", "oversubscription"] {
                reject(key)?;
            }
            NetworkConfig::two_tier(latency, rack_size)
        }
        "fat-tree" => NetworkConfig::fat_tree(latency, rack_size, racks_per_pod, oversubscription),
        other => {
            return Err(SpecError::at(
                topo_line,
                format!("unknown topology `{other}` (flat|two-tier|fat-tree)"),
            ))
        }
    };
    if let Some((gbps, _)) = t.positive("bandwidth_gbps")? {
        // 1 Gbit/s = 125 MB/s.
        config = config.with_bandwidth((gbps * 125_000_000.0) as u64);
    }
    if let Some((bytes, _)) = t.uint("rpc_bytes")? {
        config = config.with_rpc_bytes(bytes);
    }
    Ok(config)
}

/// A `[workload]` key given once for every server or, in a fleet, as a
/// single-line array with one entry per server.
struct PerServer<T> {
    /// The values, in server order (one for a scalar; never empty).
    values: Vec<T>,
    /// Whether the key was written as an array.
    array: bool,
    /// The key's line.
    line: usize,
}

impl<T> PerServer<T> {
    /// Reads `key` from `table`, parsing each value with `item`; `None`
    /// when the key is absent.
    fn parse(
        table: &Table,
        key: &str,
        item: impl Fn(&TomlValue, usize) -> Result<T, SpecError>,
    ) -> Result<Option<Self>, SpecError> {
        let Some(e) = table.entry(key) else {
            return Ok(None);
        };
        let (items, array) = match &e.value {
            TomlValue::Array(items) => (items.as_slice(), true),
            scalar => (std::slice::from_ref(scalar), false),
        };
        if items.is_empty() {
            return Err(SpecError::at(e.line, format!("`{key}` must not be empty")));
        }
        let values = items
            .iter()
            .map(|v| item(v, e.line))
            .collect::<Result<_, _>>()?;
        Ok(Some(PerServer {
            values,
            array,
            line: e.line,
        }))
    }

    /// Server `i`'s value.
    fn get(&self, i: usize) -> &T {
        &self.values[if self.array { i } else { 0 }]
    }
}

/// Parses the traffic pattern at `rate` (written on `rate_line`).
fn parse_traffic(table: &Table, rate: f64, rate_line: usize) -> Result<TrafficPattern, SpecError> {
    let pattern = table.str("pattern")?;
    let (pattern_name, pattern_line) = match &pattern {
        None => ("constant", table.line),
        Some((s, line)) => (s.as_str(), *line),
    };
    let reject = |key: &str| -> Result<(), SpecError> {
        match table.entry(key) {
            Some(e) => Err(SpecError::at(
                e.line,
                format!("`{key}` conflicts with pattern = \"{pattern_name}\""),
            )),
            None => Ok(()),
        }
    };
    match pattern_name {
        "constant" => {
            for key in [
                "swing",
                "peak_multiplier",
                "start_fraction",
                "length_fraction",
            ] {
                reject(key)?;
            }
            Ok(TrafficPattern::Constant { rate_per_sec: rate })
        }
        "diurnal" => {
            for key in ["peak_multiplier", "start_fraction", "length_fraction"] {
                reject(key)?;
            }
            let swing = match table.num("swing")? {
                None => 0.75,
                Some((s, line)) => {
                    if !(0.0..1.0).contains(&s) {
                        return Err(SpecError::at(
                            line,
                            format!("`swing` must be in [0, 1), got {s}"),
                        ));
                    }
                    s
                }
            };
            Ok(TrafficPattern::Diurnal {
                mean_rate_per_sec: rate,
                swing,
            })
        }
        "flash-crowd" => {
            reject("swing")?;
            let fraction = |key: &str, default: f64| -> Result<f64, SpecError> {
                match table.num(key)? {
                    None => Ok(default),
                    Some((v, line)) => {
                        if !(0.0..1.0).contains(&v) || v == 0.0 {
                            return Err(SpecError::at(
                                line,
                                format!("`{key}` must be in (0, 1), got {v}"),
                            ));
                        }
                        Ok(v)
                    }
                }
            };
            let (peak, peak_line) = match table.num("peak_multiplier")? {
                None => (6.0, rate_line),
                Some((v, line)) if v < 1.0 => {
                    return Err(SpecError::at(
                        line,
                        format!("`peak_multiplier` must be >= 1, got {v}"),
                    )
                    .into_usage())
                }
                Some(peak) => peak,
            };
            // The burst, like the base rate, stays within one request per ns.
            let burst = rate * peak;
            if burst > MAX_RATE_PER_SEC {
                return Err(SpecError::at(
                    peak_line,
                    format!(
                        "the burst rate `rate_per_sec` x `peak_multiplier` must be at most \
                         {MAX_RATE_PER_SEC:e} (one request per ns), got {burst:e}"
                    ),
                )
                .into_usage());
            }
            Ok(TrafficPattern::FlashCrowd {
                base_rate_per_sec: rate,
                peak_multiplier: peak,
                start_fraction: fraction("start_fraction", 0.4)?,
                length_fraction: fraction("length_fraction", 0.2)?,
            })
        }
        other => Err(SpecError::at(
            pattern_line,
            format!("unknown pattern `{other}` (constant|diurnal|flash-crowd)"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLUSTER_SPEC: &str = r#"
# A cluster experiment.
[experiment]
kind = "cluster"
seed = 7
duration_ms = 50
repeats = 2

[workload]
kind = "memcached"
rate_per_sec = 160_000.0

[cluster]
nodes = 8
policy = "jsq"
"#;

    #[test]
    fn parses_a_cluster_spec() {
        let spec = ExperimentSpec::parse(CLUSTER_SPEC).unwrap();
        assert_eq!(
            spec.kind,
            SpecKind::Cluster {
                nodes: 8,
                policy: RoutingPolicyKind::JoinShortestQueue
            }
        );
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.duration, SimDuration::from_millis(50));
        assert_eq!(spec.repeats, 2);
        assert_eq!(spec.platform, PlatformKind::Cpc1a, "platform defaults");
        assert_eq!(
            spec.traffic,
            TrafficPattern::Constant {
                rate_per_sec: 160_000.0
            }
        );
        assert!(spec.timeseries_interval.is_none());
        assert!(spec.parallelism.is_none(), "parallelism defaults to host");
    }

    #[test]
    fn parallelism_knob_parses_and_rejects_nonsense_as_usage() {
        let with_knob = CLUSTER_SPEC.replace("repeats = 2", "repeats = 2\nparallelism = 4");
        let spec = ExperimentSpec::parse(&with_knob).unwrap();
        assert_eq!(spec.parallelism, Some(4));
        // `repeats = 2` sits on line 7, so the appended knob is line 8; a
        // zero or non-integer value is a usage error carrying that line.
        for bad in [
            "parallelism = 0",
            "parallelism = 2.5",
            "parallelism = \"all\"",
        ] {
            let text = CLUSTER_SPEC.replace("repeats = 2", &format!("repeats = 2\n{bad}"));
            let err = ExperimentSpec::parse(&text).unwrap_err();
            assert!(err.usage, "{bad} -> {err}");
            assert_eq!(err.line, 8, "{bad} -> {err}");
            assert!(err.message.contains("parallelism"), "{bad} -> {err}");
        }
    }

    #[test]
    fn parses_patterns_and_telemetry() {
        let text = r#"
[experiment]
kind = "fleet"

[workload]
kind = "kafka"
rate_per_sec = 8000
pattern = "diurnal"
swing = 0.5

[fleet]
servers = 4

[telemetry]
sample_interval_us = 250
"#;
        let spec = ExperimentSpec::parse(text).unwrap();
        assert_eq!(spec.kind, SpecKind::Fleet { servers: 4 });
        assert_eq!(
            spec.traffic,
            TrafficPattern::Diurnal {
                mean_rate_per_sec: 8000.0,
                swing: 0.5
            }
        );
        assert_eq!(
            spec.timeseries_interval,
            Some(SimDuration::from_micros(250))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "[experiment]\nkind = \"single\"\nbogus_key = 1\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n";
        let err = ExperimentSpec::parse(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus_key"), "{err}");
    }

    #[test]
    fn rejects_contradictory_shapes() {
        let text = r#"
[experiment]
kind = "single"

[workload]
kind = "memcached"
rate_per_sec = 100

[cluster]
nodes = 4
"#;
        let err = ExperimentSpec::parse(text).unwrap_err();
        assert!(err.message.contains("conflicts with kind"), "{err}");
    }

    #[test]
    fn rejects_syntax_errors() {
        for (text, needle) in [
            ("key = 1", "outside any"),
            ("[experiment", "unterminated table"),
            ("[experiment]\nkind\n", "expected `key = value`"),
            ("[experiment]\nkind = \n", "missing value"),
            (
                "[experiment]\nkind = \"single\nx = 1\n",
                "unterminated string",
            ),
            ("[experiment]\nkind = oops\n", "invalid value"),
            (
                "[experiment]\nkind = \"x\"\n[experiment]\n",
                "defined twice",
            ),
        ] {
            let err = ExperimentSpec::parse(text).unwrap_err();
            assert!(err.message.contains(needle), "{text:?} -> {err}");
        }
    }

    #[test]
    fn sweep_platform_axis_and_platform_table_are_one_knob() {
        let base = |sweep: &str| {
            format!(
                "[experiment]\nkind = \"sweep\"\n\n[platform]\nname = \"cshallow\"\n\n\
                 [workload]\nkind = \"memcached\"\nrate_per_sec = 100\n\n[sweep]\nrates = [100]\n{sweep}"
            )
        };
        // A declared [platform] becomes the single-point axis.
        let spec = ExperimentSpec::parse(&base("")).unwrap();
        let SpecKind::Sweep { platforms, .. } = spec.kind else {
            panic!("expected sweep");
        };
        assert_eq!(platforms, vec![PlatformKind::Cshallow]);
        // Declaring both is a conflict, not a silent shadowing.
        let err = ExperimentSpec::parse(&base("platforms = [\"cpc1a\"]\n")).unwrap_err();
        assert!(
            err.message.contains("conflicts with the [platform]"),
            "{err}"
        );
    }

    #[test]
    fn seeds_keep_full_u64_precision() {
        let text = format!(
            "[experiment]\nkind = \"single\"\nseed = {}\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n",
            u64::MAX
        );
        let spec = ExperimentSpec::parse(&text).unwrap();
        assert_eq!(spec.seed, u64::MAX, "no float rounding above 2^53");
        // Float and negative seeds are rejected, not rounded.
        for bad in ["seed = 1.5", "seed = -1"] {
            let text = format!(
                "[experiment]\nkind = \"single\"\n{bad}\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = 100\n"
            );
            let err = ExperimentSpec::parse(&text).unwrap_err();
            assert!(
                err.message.contains("non-negative integer") || err.message.contains("invalid"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in ["inf", "-inf", "nan", "1e999"] {
            let text = format!(
                "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\nrate_per_sec = {bad}\n"
            );
            let err = ExperimentSpec::parse(&text).unwrap_err();
            assert_eq!(err.line, 6, "{bad:?} -> {err}");
            assert!(
                err.message.contains("non-finite") || err.message.contains("invalid value"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn parses_a_network_table() {
        let text = r#"
[experiment]
kind = "chain"

[workload]
kind = "memcached"
rate_per_sec = 4_000

[chain]
nodes = 8
fanout = 4

[network]
topology = "two-tier"
latency_us = 5
rack_size = 4
bandwidth_gbps = 25
rpc_bytes = 2_000
"#;
        let spec = ExperimentSpec::parse(text).unwrap();
        let net = spec.network.expect("network config parsed");
        assert_eq!(
            net,
            NetworkConfig::two_tier(SimDuration::from_micros(5), 4)
                .with_bandwidth(3_125_000_000)
                .with_rpc_bytes(2_000)
        );
        // Zero latency is a valid (instantaneous) fabric, not an error, and
        // so is any latency whose nanoseconds fit a `u64`.
        let zero = text.replace("latency_us = 5", "latency_us = 0");
        let net = ExperimentSpec::parse(&zero).unwrap().network.unwrap();
        assert_eq!(net.link_latency, SimDuration::ZERO);
        let huge = text.replace("latency_us = 5", "latency_us = 1.8e16");
        let net = ExperimentSpec::parse(&huge).unwrap().network.unwrap();
        assert_eq!(net.link_latency.as_nanos(), 18_000_000_000_000_000_000);
    }

    #[test]
    fn network_errors_are_usage_flagged_with_line_numbers() {
        let base = |network: &str| {
            format!(
                "[experiment]\nkind = \"cluster\"\n\n[workload]\nkind = \"memcached\"\n\
                 rate_per_sec = 100\n\n[cluster]\nnodes = 4\n\n[network]\n{network}"
            )
        };
        // The [network] table starts at line 11; its first key is line 12.
        for (table, needle, line) in [
            ("topology = \"ring\"\n", "unknown topology `ring`", 12),
            (
                "topology = \"flat\"\nbogus = 1\n",
                "unknown key `bogus`",
                13,
            ),
            (
                "topology = \"flat\"\nlatency_us = -3\n",
                "`latency_us` must be >= 0",
                13,
            ),
            (
                "topology = \"flat\"\nlatency_us = 1e17\n",
                "`latency_us` must be below 2^64 ns (about 1.8e16), got 100000000000000000",
                13,
            ),
            (
                "topology = \"flat\"\nlatency_us = 1e300\n",
                "`latency_us` must be below 2^64 ns",
                13,
            ),
            (
                "topology = \"flat\"\nbandwidth_gbps = -1\n",
                "`bandwidth_gbps` must be > 0",
                13,
            ),
            (
                "topology = \"flat\"\nrack_size = 4\n",
                "`rack_size` does not apply",
                13,
            ),
            (
                "topology = \"two-tier\"\noversubscription = 4\n",
                "`oversubscription` does not apply",
                13,
            ),
        ] {
            let err = ExperimentSpec::parse(&base(table)).unwrap_err();
            assert!(err.usage, "{table:?} -> {err}");
            assert_eq!(err.line, line, "{table:?} -> {err}");
            assert!(err.message.contains(needle), "{table:?} -> {err}");
        }
        // Missing topology anchors to the table header line.
        let err = ExperimentSpec::parse(&base("latency_us = 1\n")).unwrap_err();
        assert!(err.usage, "{err}");
        assert_eq!(err.line, 11, "{err}");
        assert!(err.message.contains("needs `topology`"), "{err}");
        // A [network] table outside cluster/chain kinds is a plain
        // (non-usage) shape conflict.
        let text = "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\n\
                    rate_per_sec = 100\n\n[network]\ntopology = \"flat\"\n";
        let err = ExperimentSpec::parse(text).unwrap_err();
        assert!(!err.usage, "{err}");
        assert!(
            err.message
                .contains("[network] applies to cluster and chain"),
            "{err}"
        );
    }

    #[test]
    fn parses_a_trace_table() {
        let text = "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\n\
                    rate_per_sec = 100\n\n[trace]\nsample_every = 16\nmax_spans = 1_000\n";
        let spec = ExperimentSpec::parse(text).unwrap();
        assert_eq!(spec.trace, Some(TraceConfig::new(16).with_max_spans(1_000)));
        assert!(!spec.profile, "profiling is a CLI flag, never a spec key");
        // `max_spans` is optional and defaults.
        let text = text.replace("max_spans = 1_000\n", "");
        let spec = ExperimentSpec::parse(&text).unwrap();
        assert_eq!(spec.trace, Some(TraceConfig::new(16)));
    }

    #[test]
    fn trace_errors_are_usage_flagged_with_line_numbers() {
        let base = |trace: &str| {
            format!(
                "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\n\
                 rate_per_sec = 100\n\n[trace]\n{trace}"
            )
        };
        // The [trace] table starts at line 8; its first key is line 9.
        for (table, needle, line) in [
            ("sample_every = 16\nbogus = 1\n", "unknown key `bogus`", 10),
            ("sample_every = 0\n", "`sample_every` must be at least 1", 9),
            (
                "sample_every = 1.5\n",
                "`sample_every` must be a non-negative integer",
                9,
            ),
            (
                "sample_every = 16\nmax_spans = 0\n",
                "`max_spans` must be at least 1",
                10,
            ),
        ] {
            let err = ExperimentSpec::parse(&base(table)).unwrap_err();
            assert!(err.usage, "{table:?} -> {err}");
            assert_eq!(err.line, line, "{table:?} -> {err}");
            assert!(err.message.contains(needle), "{table:?} -> {err}");
        }
        // Missing sample_every anchors to the table header line.
        let err = ExperimentSpec::parse(&base("max_spans = 10\n")).unwrap_err();
        assert!(err.usage, "{err}");
        assert_eq!(err.line, 8, "{err}");
        assert!(err.message.contains("needs `sample_every`"), "{err}");
        // A [trace] table on fleet/sweep kinds is a plain (non-usage)
        // shape conflict, like [network] outside cluster/chain.
        let text = "[experiment]\nkind = \"fleet\"\n\n[workload]\nkind = \"memcached\"\n\
                    rate_per_sec = 100\n\n[fleet]\nservers = 2\n\n[trace]\nsample_every = 4\n";
        let err = ExperimentSpec::parse(text).unwrap_err();
        assert!(!err.usage, "{err}");
        assert!(
            err.message
                .contains("[trace] applies to single, cluster and chain"),
            "{err}"
        );
    }

    #[test]
    fn traffic_pattern_mean_rates() {
        let d = SimDuration::from_millis(100);
        let c = TrafficPattern::Constant {
            rate_per_sec: 5_000.0,
        };
        assert_eq!(c.mean_rate_per_sec(), 5_000.0);
        assert!(c.arrival_process(d).is_none());

        let fc = TrafficPattern::FlashCrowd {
            base_rate_per_sec: 10_000.0,
            peak_multiplier: 6.0,
            start_fraction: 0.4,
            length_fraction: 0.2,
        };
        // Burst adds (6 - 1) * 0.2 = 1.0x of base on average.
        assert!((fc.mean_rate_per_sec() - 20_000.0).abs() < 1e-9);
        assert!(fc.arrival_process(d).is_some());
    }

    #[test]
    fn description_is_optional_and_kind_names_round_trip() {
        let text = |kind: &str, extra: &str| {
            format!(
                "[experiment]\nkind = \"{kind}\"\n{extra}\n[workload]\nkind = \"memcached\"\n\
                 rate_per_sec = 100\n"
            )
        };
        let spec = ExperimentSpec::parse(&text("single", "")).unwrap();
        assert_eq!(spec.description, None);
        assert_eq!(spec.kind.name(), "single");
        let spec = ExperimentSpec::parse(&text("single", "description = \"one line\"\n")).unwrap();
        assert_eq!(spec.description.as_deref(), Some("one line"));
        let err = ExperimentSpec::parse(&text("single", "description = 3\n")).unwrap_err();
        assert_eq!(err.line, 3, "{err}");
        assert!(
            err.message.contains("`description` must be a string"),
            "{err}"
        );
        for (kind, table) in [
            ("fleet", "[fleet]\nservers = 1\n"),
            ("cluster", "[cluster]\nnodes = 1\n"),
            ("chain", "[chain]\nnodes = 1\nfanout = 1\n"),
            ("sweep", "[sweep]\nrates = [100]\n"),
        ] {
            let spec = ExperimentSpec::parse(&format!("{}\n{table}", text(kind, ""))).unwrap();
            assert_eq!(spec.kind.name(), kind);
        }
    }

    #[test]
    fn fleet_arrays_give_one_load_per_server() {
        let text = r#"
[experiment]
kind = "fleet"
description = "two kinds, three rates"

[workload]
kind = ["memcached", "kafka", "kafka"]
rate_per_sec = [1_000, 2_000, 3_000]
pattern = "diurnal"
swing = 0.5

[fleet]
servers = 3
"#;
        let spec = ExperimentSpec::parse(text).unwrap();
        assert_eq!(spec.description.as_deref(), Some("two kinds, three rates"));
        let diurnal = |rate| TrafficPattern::Diurnal {
            mean_rate_per_sec: rate,
            swing: 0.5,
        };
        assert_eq!(
            spec.per_server,
            [
                (WorkloadKind::MemcachedEtc, diurnal(1_000.0)),
                (WorkloadKind::Kafka, diurnal(2_000.0)),
                (WorkloadKind::Kafka, diurnal(3_000.0)),
            ]
        );
        // A scalar applies to every server.
        let scalar_kind = text.replace(r#"["memcached", "kafka", "kafka"]"#, r#""mysql""#);
        let spec = ExperimentSpec::parse(&scalar_kind).unwrap();
        assert_eq!(
            spec.per_server[1],
            (WorkloadKind::MysqlOltp, diurnal(2_000.0))
        );
        let scalars = scalar_kind.replace("[1_000, 2_000, 3_000]", "1_000");
        let spec = ExperimentSpec::parse(&scalars).unwrap();
        assert_eq!(
            spec.per_server,
            vec![(WorkloadKind::MysqlOltp, diurnal(1_000.0)); 3]
        );
        // Only a fleet lists loads per server.
        let single = "[experiment]\nkind = \"single\"\n\n[workload]\nkind = \"memcached\"\n\
                      rate_per_sec = 100\n";
        assert!(ExperimentSpec::parse(single).unwrap().per_server.is_empty());
        // An empty array is no per-server list at all.
        let err = ExperimentSpec::parse(&text.replace("[1_000, 2_000, 3_000]", "[]")).unwrap_err();
        assert_eq!(err.line, 8, "{err}");
        assert!(err.message.contains("must not be empty"), "{err}");
    }

    #[test]
    fn sweep_axes_parse() {
        let text = r#"
[experiment]
kind = "sweep"

[workload]
kind = "memcached"
rate_per_sec = 1 # overridden per point; must still be positive

[sweep]
rates = [4_000, 10_000, 25_000]
platforms = ["cshallow", "cpc1a"]
"#;
        let spec = ExperimentSpec::parse(text).unwrap();
        let SpecKind::Sweep { rates, platforms } = spec.kind else {
            panic!("expected sweep");
        };
        assert_eq!(rates, vec![4_000.0, 10_000.0, 25_000.0]);
        assert_eq!(platforms, vec![PlatformKind::Cshallow, PlatformKind::Cpc1a]);
    }
}
