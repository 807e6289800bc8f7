//! Machine-readable export of experiment results: hand-rolled JSON and CSV.
//!
//! The experiment runner's output layer. Both writers are deliberately
//! boring and fully deterministic so that exported artefacts are diffable
//! and pinnable by golden tests:
//!
//! * **field order is fixed** — JSON objects preserve the declaration order
//!   of the result structs, CSV columns are a documented constant order;
//! * **float formatting is fixed** — finite floats print via Rust's
//!   shortest-round-trip formatter (`{}`), which is a pure function of the
//!   bit pattern, so bit-identical results (what the fleet's
//!   parallel-vs-sequential invariant guarantees) export to byte-identical
//!   text; durations and timestamps are exported as integer nanoseconds;
//! * **no external dependencies** — the workspace is offline: the JSON
//!   layer is a minimal hand-rolled value type with a writer *and* a
//!   parser, so round-trip validation (`apc-cli validate`) needs nothing
//!   but this crate.
//!
//! # Example
//!
//! ```
//! use apc_analysis::export::{run_result_json, JsonValue};
//! use apc_server::config::ServerConfig;
//! use apc_server::sim::run_experiment;
//! use apc_sim::SimDuration;
//! use apc_workloads::spec::WorkloadSpec;
//!
//! let config = ServerConfig::c_pc1a().with_duration(SimDuration::from_millis(5));
//! let result = run_experiment(config, WorkloadSpec::memcached_etc(), 10_000.0);
//! let text = run_result_json(&result).to_pretty_string();
//! // The export round-trips through the bundled parser.
//! let parsed = JsonValue::parse(&text).unwrap();
//! assert_eq!(parsed.get("config").and_then(JsonValue::as_str), Some("CPC1A"));
//! assert!(parsed.get("completed_requests").and_then(JsonValue::as_u64).unwrap() > 0);
//! ```

use std::fmt::Write as _;

use apc_network::NetworkStats;
use apc_power::units::Watts;
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;
use apc_sim::{SimDuration, SimTime};
use apc_soc::cstate::PackageCState;
use apc_telemetry::latency::LatencySummary;
use apc_telemetry::sketch::{QuantileSketch, SketchParts};
use apc_telemetry::timeseries::{TimeSeries, TimeSeriesSample};
use apc_trace::{ProfileReport, TraceLog};

/// A JSON value with insertion-ordered objects.
///
/// Only what the exporters need: numbers are either integers (durations in
/// nanoseconds, counters) or floats (powers, rates, fractions); objects
/// preserve the order keys were inserted in, which is what makes the
/// serialised form deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer number (exported counters, nanosecond durations, seeds
    /// and exact sums past `u64`).
    Int(i128),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience: an empty object builder.
    #[must_use]
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a key to an object (panics on non-objects; the exporters
    /// only build objects through this).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn push(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(entries) => entries.push((key.to_owned(), value)),
            other => panic!("JsonValue::push on non-object {other:?}"),
        }
        self
    }

    /// Looks a key up in an object (`None` for absent keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` for non-arrays).
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; `None` for non-numbers).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a `u64` (`None` for non-integers and negatives).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice (`None` for non-strings).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serialises with 2-space indentation and one key per line — the form
    /// the golden tests pin and `apc-cli --format json` emits.
    #[must_use]
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serialises a pretty-printed *fragment*: the value rendered as if it
    /// sat at container depth `depth` of a [`Self::to_pretty_string`]
    /// document (its own first line unindented, nested lines indented
    /// `2 * (depth + 1)` spaces, no trailing newline). The writers in
    /// [`crate::stream`] use this to emit array elements one at a time, in
    /// the same layout as the whole value pretty-printed.
    #[must_use]
    pub fn to_pretty_fragment(&self, depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, depth);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_json_string(out, s),
            JsonValue::Array(items) => {
                write_sequence(out, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, depth + 1);
                });
            }
            JsonValue::Object(entries) => {
                write_sequence(out, depth, '{', '}', entries.len(), |out, i| {
                    let (key, value) = &entries[i];
                    write_json_string(out, key);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                });
            }
        }
    }
}

fn write_sequence(
    out: &mut String,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(&"  ".repeat(depth + 1));
        item(out, i);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// Deterministic float formatting: Rust's shortest-round-trip `{}` for
/// finite values (a pure function of the bit pattern, with `.0` appended to
/// integral values so floats stay visibly floats), `null` for non-finite
/// values (JSON has no NaN/Inf).
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    let _ = write!(out, "{v}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl JsonValue {
    /// Parses a JSON document (strict: exactly one value, nothing but
    /// whitespace after it). Numbers parse to [`JsonValue::Int`] when they
    /// are integral and fit an `i128`, else [`JsonValue::Float`].
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte offset of the first problem.
    pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    /// The input document; `bytes` is the same input, byte-indexed.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected {text:?}")))
        }
    }

    /// Maximum container nesting. The parser recurses per nesting level, so
    /// without a bound a hostile `[[[[…` input overflows the stack (an
    /// abort, not a `JsonError`); our own exports nest 4 levels deep.
    const MAX_DEPTH: usize = 128;

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth > Self::MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&c) = rest.first() else {
                return Err(self.error("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let esc = rest
                        .get(1)
                        .copied()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits — `from_str_radix`
                            // alone would also accept a leading sign.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not needed by our own exports;
                            // map unpaired ones to the replacement char.
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                }
                _ => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input and is itself
                    // valid UTF-8.
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    s.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Consumes a run of ASCII digits, erroring when none are present —
    /// JSON requires at least one digit in every numeric part.
    fn digits(&mut self, part: &str) -> Result<usize, JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error(&format!("expected a digit in the {part} of a number")));
        }
        Ok(self.pos - start)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_digits = self.digits("integer part")?;
        if int_digits > 1 && self.bytes[int_start] == b'0' {
            return Err(JsonError {
                message: "leading zeros are not allowed".to_owned(),
                offset: int_start,
            });
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits("fraction part")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent")?;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonError {
                message: format!("invalid number {text:?}"),
                offset: start,
            })
    }
}

// ---- result -> JSON ----------------------------------------------------

/// A latency summary as an object of nanosecond integers.
#[must_use]
fn latency_json(latency: &LatencySummary) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("count", JsonValue::Int(latency.count as i128))
        .push(
            "mean_ns",
            JsonValue::Int(i128::from(latency.mean.as_nanos())),
        )
        .push("p50_ns", JsonValue::Int(i128::from(latency.p50.as_nanos())))
        .push("p95_ns", JsonValue::Int(i128::from(latency.p95.as_nanos())))
        .push("p99_ns", JsonValue::Int(i128::from(latency.p99.as_nanos())))
        .push(
            "p999_ns",
            JsonValue::Int(i128::from(latency.p999.as_nanos())),
        )
        .push("max_ns", JsonValue::Int(i128::from(latency.max.as_nanos())));
    o
}

/// One run's full result as an object (field order mirrors [`RunResult`]'s
/// declaration order; durations in integer nanoseconds, powers in watts).
/// The `timeseries` key appears only when the run recorded one.
#[must_use]
pub fn run_result_json(r: &RunResult) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("config", JsonValue::Str(r.config_name.to_owned()))
        .push("workload", JsonValue::Str(r.workload.to_owned()))
        .push("offered_rate_rps", JsonValue::Float(r.offered_rate))
        .push(
            "duration_ns",
            JsonValue::Int(i128::from(r.duration.as_nanos())),
        )
        .push(
            "completed_requests",
            JsonValue::Int(i128::from(r.completed_requests)),
        )
        .push("throughput_rps", JsonValue::Float(r.throughput()))
        .push("latency", latency_json(&r.latency))
        .push(
            "avg_soc_power_w",
            JsonValue::Float(r.avg_soc_power.as_f64()),
        )
        .push(
            "avg_dram_power_w",
            JsonValue::Float(r.avg_dram_power.as_f64()),
        )
        .push("cpu_utilization", JsonValue::Float(r.cpu_utilization))
        .push("cc0_fraction", JsonValue::Float(r.cc0_fraction))
        .push("cc1_fraction", JsonValue::Float(r.cc1_fraction))
        .push("cc6_fraction", JsonValue::Float(r.cc6_fraction))
        .push("all_idle_fraction", JsonValue::Float(r.all_idle_fraction))
        .push("pc1a_residency", JsonValue::Float(r.pc1a_residency))
        .push("pc6_residency", JsonValue::Float(r.pc6_residency))
        .push(
            "pc1a_transitions",
            JsonValue::Int(i128::from(r.pc1a_transitions)),
        )
        .push("pc1a_aborted", JsonValue::Int(i128::from(r.pc1a_aborted)))
        .push(
            "pc6_transitions",
            JsonValue::Int(i128::from(r.pc6_transitions)),
        )
        .push("idle_periods", JsonValue::Int(i128::from(r.idle_periods)))
        .push(
            "idle_periods_20_200us",
            JsonValue::Float(r.idle_periods_20_200us),
        )
        .push(
            "events_dispatched",
            JsonValue::Int(i128::from(r.events_dispatched)),
        );
    if let Some(ts) = &r.timeseries {
        o.push("timeseries", timeseries_json(ts));
    }
    if let Some(profile) = &r.profile {
        o.push("profile", profile_report_json(profile));
    }
    o
}

/// Rebuilds a [`RunResult`] from the [`run_result_json`] form plus the
/// state that form does not carry: the run's latency sketch (checkpoints
/// store it beside the run, under a `sketch` key) and its end-of-timeline
/// stamp. The summary facade is re-derived *from the sketch* — never
/// parsed — so a reconstructed result renders byte-identically to the
/// original through every exporter; the JSON's own `latency` block is
/// checked against the re-derivation and a mismatch is rejected
/// (a corrupted or hand-edited checkpoint, not a format variant).
///
/// # Errors
///
/// Returns a description of the first missing, malformed or inconsistent
/// field. Results carrying a `profile` are rejected — profiles are not
/// round-trippable and sharded sweeps refuse `--profile` up front.
pub fn run_result_from_json(
    v: &JsonValue,
    sketch: QuantileSketch,
    finished_at: SimTime,
) -> Result<RunResult, String> {
    fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("run: missing or non-integer `{key}`"))
    }
    fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("run: missing or non-number `{key}`"))
    }
    let config_name = match v.get("config").and_then(JsonValue::as_str) {
        Some("Cshallow") => "Cshallow",
        Some("Cdeep") => "Cdeep",
        Some("CPC1A") => "CPC1A",
        Some(other) => return Err(format!("run: unknown platform config `{other}`")),
        None => return Err("run: missing or non-string `config`".to_owned()),
    };
    let workload = match v.get("workload").and_then(JsonValue::as_str) {
        Some("memcached") => "memcached",
        Some("kafka") => "kafka",
        Some("mysql") => "mysql",
        Some(other) => return Err(format!("run: unknown workload `{other}`")),
        None => return Err("run: missing or non-string `workload`".to_owned()),
    };
    if v.get("profile").is_some() {
        return Err("run: carries a `profile`, which does not round-trip".to_owned());
    }
    let latency = LatencySummary::of(&sketch);
    if v.get("latency") != Some(&latency_json(&latency)) {
        return Err("run: `latency` summary does not match its sketch".to_owned());
    }
    let timeseries = v
        .get("timeseries")
        .map(timeseries_from_json)
        .transpose()
        .map_err(|e| format!("run: {e}"))?;
    Ok(RunResult {
        config_name,
        workload,
        offered_rate: f64_field(v, "offered_rate_rps")?,
        duration: SimDuration::from_nanos(u64_field(v, "duration_ns")?),
        completed_requests: u64_field(v, "completed_requests")?,
        latency,
        latency_sketch: sketch,
        avg_soc_power: Watts(f64_field(v, "avg_soc_power_w")?),
        avg_dram_power: Watts(f64_field(v, "avg_dram_power_w")?),
        cpu_utilization: f64_field(v, "cpu_utilization")?,
        cc0_fraction: f64_field(v, "cc0_fraction")?,
        cc1_fraction: f64_field(v, "cc1_fraction")?,
        cc6_fraction: f64_field(v, "cc6_fraction")?,
        all_idle_fraction: f64_field(v, "all_idle_fraction")?,
        pc1a_residency: f64_field(v, "pc1a_residency")?,
        pc6_residency: f64_field(v, "pc6_residency")?,
        pc1a_transitions: u64_field(v, "pc1a_transitions")?,
        pc1a_aborted: u64_field(v, "pc1a_aborted")?,
        pc6_transitions: u64_field(v, "pc6_transitions")?,
        idle_periods: u64_field(v, "idle_periods")?,
        idle_periods_20_200us: f64_field(v, "idle_periods_20_200us")?,
        timeseries,
        trace: None,
        profile: None,
        events_dispatched: u64_field(v, "events_dispatched")?,
        finished_at,
    })
}

/// A fleet result: the per-member runs in member order *first*, then the
/// aggregates. Runs-first is what lets [`crate::stream::JsonRunsWriter`]
/// write each run of a top-level fleet object the moment it finishes: the
/// aggregate block only becomes computable once the last member completes,
/// so it closes the object. Cluster and chain exports nest this form under
/// `nodes`.
#[must_use]
pub fn fleet_result_json(f: &FleetResult) -> JsonValue {
    let mut o = JsonValue::object();
    o.push(
        "runs",
        JsonValue::Array(f.runs.iter().map(run_result_json).collect()),
    );
    let JsonValue::Object(aggregates) = fleet_aggregates_json(f) else {
        unreachable!("fleet_aggregates_json builds an object");
    };
    let JsonValue::Object(entries) = &mut o else {
        unreachable!("o is an object");
    };
    entries.extend(aggregates);
    o
}

/// The aggregate block of [`fleet_result_json`] — everything after the
/// `runs` array, as its own object. Split out so
/// [`crate::stream::JsonRunsWriter`] can close a fleet object it wrote run
/// by run.
#[must_use]
pub fn fleet_aggregates_json(f: &FleetResult) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("servers", JsonValue::Int(f.servers() as i128))
        .push(
            "total_completed_requests",
            JsonValue::Int(i128::from(f.total_completed_requests())),
        )
        .push(
            "aggregate_throughput_rps",
            JsonValue::Float(f.aggregate_throughput()),
        )
        .push("total_power_w", JsonValue::Float(f.total_power_w()))
        .push("mean_soc_power_w", JsonValue::Float(f.mean_soc_power_w()))
        .push(
            "mean_pc1a_residency",
            JsonValue::Float(f.mean_pc1a_residency()),
        )
        .push(
            "mean_latency_ns",
            JsonValue::Int(i128::from(f.mean_latency().as_nanos())),
        )
        .push("combined_latency", latency_json(&f.combined_latency()))
        .push(
            "worst_p99_ns",
            JsonValue::Int(i128::from(f.worst_p99().as_nanos())),
        )
        .push(
            "worst_p999_ns",
            JsonValue::Int(i128::from(f.worst_p999().as_nanos())),
        )
        .push(
            "events_dispatched",
            JsonValue::Int(i128::from(f.events_dispatched())),
        );
    o
}

/// A quantile sketch as JSON: its parameters, the exact scalars
/// (count/sum/min/max) and the non-zero log-buckets as `[index, count]`
/// pairs. The `sum` is a `u128` and exports as a decimal *string* — JSON
/// implementations only guarantee `u64` integers. Round-trips exactly
/// through [`sketch_from_json`]: the sweep-shard checkpoint format relies
/// on `parse(sketch_json(s)) == s`, bit for bit.
#[must_use]
pub fn sketch_json(s: &QuantileSketch) -> JsonValue {
    let parts = s.parts();
    let mut o = JsonValue::object();
    o.push("relative_error", JsonValue::Float(parts.relative_error))
        .push("max_buckets", JsonValue::Int(parts.max_buckets as i128))
        .push(
            "floor_index",
            parts
                .floor_index
                .map_or(JsonValue::Null, |i| JsonValue::Int(i128::from(i))),
        )
        .push("zero_count", JsonValue::Int(i128::from(parts.zero_count)))
        .push("sum", JsonValue::Str(parts.sum.to_string()))
        .push("min_ns", JsonValue::Int(i128::from(parts.min)))
        .push("max_ns", JsonValue::Int(i128::from(parts.max)))
        .push(
            "buckets",
            JsonValue::Array(
                parts
                    .buckets
                    .iter()
                    .map(|&(index, count)| {
                        JsonValue::Array(vec![
                            JsonValue::Int(i128::from(index)),
                            JsonValue::Int(i128::from(count)),
                        ])
                    })
                    .collect(),
            ),
        );
    o
}

/// Rebuilds a [`QuantileSketch`] from the [`sketch_json`] form.
///
/// # Errors
///
/// Returns a description of the first malformed or inconsistent field —
/// missing keys, out-of-range parameters, unsorted buckets.
pub fn sketch_from_json(v: &JsonValue) -> Result<QuantileSketch, String> {
    fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("sketch: missing or non-integer `{key}`"))
    }
    let relative_error = v
        .get("relative_error")
        .and_then(JsonValue::as_f64)
        .ok_or("sketch: missing or non-number `relative_error`")?;
    let floor_index = match v.get("floor_index") {
        None => return Err("sketch: missing `floor_index`".to_owned()),
        Some(JsonValue::Null) => None,
        Some(value) => Some(
            value
                .as_f64()
                .and_then(|f| {
                    let i = f as i32;
                    (f64::from(i) == f).then_some(i)
                })
                .ok_or("sketch: `floor_index` must be null or a 32-bit integer")?,
        ),
    };
    let sum = v
        .get("sum")
        .and_then(JsonValue::as_str)
        .ok_or("sketch: missing or non-string `sum`")?
        .parse::<u128>()
        .map_err(|e| format!("sketch: invalid `sum`: {e}"))?;
    let buckets =
        v.get("buckets")
            .and_then(JsonValue::as_array)
            .ok_or("sketch: missing or non-array `buckets`")?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("sketch: every bucket must be an `[index, count]` pair".to_owned())?;
                let index = match pair[0] {
                    JsonValue::Int(i) => i32::try_from(i)
                        .map_err(|_| "sketch: bucket index out of range".to_owned())?,
                    _ => return Err("sketch: bucket index must be an integer".to_owned()),
                };
                let count = pair[1]
                    .as_u64()
                    .ok_or("sketch: bucket count must be a non-negative integer")?;
                Ok((index, count))
            })
            .collect::<Result<Vec<(i32, u64)>, String>>()?;
    let parts = SketchParts {
        relative_error,
        max_buckets: usize::try_from(u64_field(v, "max_buckets")?)
            .map_err(|_| "sketch: `max_buckets` out of range".to_owned())?,
        floor_index,
        zero_count: u64_field(v, "zero_count")?,
        sum,
        min: u64_field(v, "min_ns")?,
        max: u64_field(v, "max_ns")?,
        buckets,
    };
    QuantileSketch::from_parts(&parts).map_err(|e| format!("sketch: {e}"))
}

/// Network fabric stats as an object: the topology and link parameters the
/// fabric ran with, then the traffic census (message count, total / mean /
/// maximum wire delay) and the per-link breakdown (messages, serialization
/// occupancy and store-and-forward queueing per link, indexed by link id in
/// `apc_network::Topology::links` order).
/// `bandwidth_bytes_per_sec` is `null` for infinite-bandwidth links; links
/// that never carried a message are omitted from `per_link`.
#[must_use]
fn network_stats_json(n: &NetworkStats) -> JsonValue {
    let config = &n.config;
    let mut o = JsonValue::object();
    o.push(
        "topology",
        JsonValue::Str(config.topology.name().to_owned()),
    )
    .push(
        "link_latency_ns",
        JsonValue::Int(i128::from(config.link_latency.as_nanos())),
    )
    .push(
        "bandwidth_bytes_per_sec",
        config
            .bandwidth_bytes_per_sec
            .map_or(JsonValue::Null, |b| JsonValue::Int(b.into())),
    )
    .push("rpc_bytes", JsonValue::Int(i128::from(config.rpc_bytes)))
    .push("messages", JsonValue::Int(i128::from(n.messages)))
    .push(
        "total_wire_delay_ns",
        JsonValue::Int(
            i128::try_from(n.total_wire_delay_ns)
                .expect("fewer than 2^63 messages of u64 delays sum below 2^127"),
        ),
    )
    .push(
        "mean_wire_delay_ns",
        JsonValue::Int(i128::from(n.mean_wire_delay().as_nanos())),
    )
    .push(
        "max_wire_delay_ns",
        JsonValue::Int(i128::from(n.max_wire_delay.as_nanos())),
    );
    let per_link: Vec<JsonValue> = n
        .per_link
        .iter()
        .enumerate()
        .filter(|(_, link)| link.messages != 0)
        .map(|(id, link)| {
            let mut l = JsonValue::object();
            l.push("link", JsonValue::Int(id as i128))
                .push("messages", JsonValue::Int(i128::from(link.messages)))
                .push(
                    "busy_ns",
                    JsonValue::Int(i128::from(link.busy_time.as_nanos())),
                )
                .push(
                    "total_queue_delay_ns",
                    JsonValue::Int(i128::from(link.total_queue_delay.as_nanos())),
                )
                .push(
                    "max_queue_delay_ns",
                    JsonValue::Int(i128::from(link.max_queue_delay.as_nanos())),
                );
            l
        })
        .collect();
    o.push("per_link", JsonValue::Array(per_link));
    o
}

/// A cluster result: policy, routing census, then the per-node fleet.
/// The `network` key appears only when the run crossed a fabric.
#[must_use]
pub fn cluster_result_json(c: &ClusterResult) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("policy", JsonValue::Str(c.policy.to_owned()))
        .push(
            "duration_ns",
            JsonValue::Int(i128::from(c.duration.as_nanos())),
        )
        .push(
            "routed",
            JsonValue::Array(
                c.routed
                    .iter()
                    .map(|&n| JsonValue::Int(i128::from(n)))
                    .collect(),
            ),
        )
        .push("total_routed", JsonValue::Int(i128::from(c.total_routed())))
        .push("routing_imbalance", JsonValue::Float(c.routing_imbalance()))
        .push(
            "idle_periods_20_200us",
            JsonValue::Float(c.idle_periods_20_200us()),
        )
        .push(
            "events_dispatched",
            JsonValue::Int(i128::from(c.events_dispatched)),
        );
    if let Some(net) = &c.network {
        o.push("network", network_stats_json(net));
    }
    if let Some(profile) = &c.profile {
        o.push("profile", profile_report_json(profile));
    }
    o.push("nodes", fleet_result_json(&c.nodes));
    o
}

/// A chain result: policy and graph shape, the chain-latency percentiles
/// (end-to-end root→last-join plus the leaf-straggler breakdown), the
/// routing census and the per-node fleet. The `network` key appears only
/// when the run crossed a fabric.
#[must_use]
pub fn chain_result_json(c: &ChainResult) -> JsonValue {
    let mut o = JsonValue::object();
    o.push("policy", JsonValue::Str(c.policy.to_owned()))
        .push("graph", JsonValue::Str(c.graph.clone()))
        .push(
            "duration_ns",
            JsonValue::Int(i128::from(c.duration.as_nanos())),
        )
        .push(
            "chains_started",
            JsonValue::Int(i128::from(c.chains_started)),
        )
        .push(
            "chains_completed",
            JsonValue::Int(i128::from(c.chains_completed)),
        )
        .push("chains_per_sec", JsonValue::Float(c.chains_per_sec()))
        .push("chain_latency", latency_json(&c.chain_latency))
        .push("straggler", latency_json(&c.straggler))
        .push(
            "routed",
            JsonValue::Array(
                c.routed
                    .iter()
                    .map(|&n| JsonValue::Int(i128::from(n)))
                    .collect(),
            ),
        )
        .push("total_routed", JsonValue::Int(i128::from(c.total_routed())))
        .push("routing_imbalance", JsonValue::Float(c.routing_imbalance()))
        .push(
            "events_dispatched",
            JsonValue::Int(i128::from(c.events_dispatched)),
        );
    if let Some(net) = &c.network {
        o.push("network", network_stats_json(net));
    }
    if let Some(profile) = &c.profile {
        o.push("profile", profile_report_json(profile));
    }
    o.push("nodes", fleet_result_json(&c.nodes));
    o
}

/// A time series as `{interval_ns, samples: [...]}`; samples carry the
/// timestamp, power, queue depth and residency deltas.
#[must_use]
fn timeseries_json(ts: &TimeSeries) -> JsonValue {
    let samples = ts
        .samples()
        .iter()
        .map(|s| {
            let mut o = JsonValue::object();
            o.push("at_ns", JsonValue::Int(i128::from(s.at.as_nanos())))
                .push("soc_power_w", JsonValue::Float(s.soc_power_w))
                .push("queue_depth", JsonValue::Int(s.queue_depth as i128))
                .push("busy_cores", JsonValue::Int(s.busy_cores as i128))
                .push(
                    "package_state",
                    JsonValue::Str(format!("{:?}", s.package_state)),
                )
                .push(
                    "pc0_delta_ns",
                    JsonValue::Int(i128::from(s.pc0_delta.as_nanos())),
                )
                .push(
                    "pc0_idle_delta_ns",
                    JsonValue::Int(i128::from(s.pc0_idle_delta.as_nanos())),
                )
                .push(
                    "pc1a_delta_ns",
                    JsonValue::Int(i128::from(s.pc1a_delta.as_nanos())),
                )
                .push(
                    "pc6_delta_ns",
                    JsonValue::Int(i128::from(s.pc6_delta.as_nanos())),
                );
            o
        })
        .collect();
    let mut o = JsonValue::object();
    o.push(
        "interval_ns",
        JsonValue::Int(i128::from(ts.interval().as_nanos())),
    )
    .push("samples", JsonValue::Array(samples));
    o
}

/// Rebuilds a [`TimeSeries`] from the [`timeseries_json`] form — the other
/// half of the sweep-shard checkpoint round-trip (`parse(timeseries_json(
/// ts))` reproduces `ts` exactly: every field is an integer, a
/// shortest-round-trip float or a C-state name).
///
/// # Errors
///
/// Returns a description of the first malformed field.
fn timeseries_from_json(v: &JsonValue) -> Result<TimeSeries, String> {
    fn duration_field(v: &JsonValue, key: &str) -> Result<SimDuration, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .map(SimDuration::from_nanos)
            .ok_or_else(|| format!("timeseries: missing or non-integer `{key}`"))
    }
    let interval = duration_field(v, "interval_ns")?;
    if interval.is_zero() {
        return Err("timeseries: `interval_ns` must be non-zero".to_owned());
    }
    let mut ts = TimeSeries::new(interval);
    let samples = v
        .get("samples")
        .and_then(JsonValue::as_array)
        .ok_or("timeseries: missing or non-array `samples`")?;
    let mut previous_at = None;
    for s in samples {
        let at = SimTime::ZERO
            + duration_field(s, "at_ns").map_err(|e| e.replace("timeseries:", "sample:"))?;
        // `TimeSeries::push` only debug-asserts monotonicity; parsing
        // hostile input must not rely on debug assertions.
        if previous_at.is_some_and(|prev| at <= prev) {
            return Err("timeseries: sample timestamps must be strictly increasing".to_owned());
        }
        previous_at = Some(at);
        let package_state = match s.get("package_state").and_then(JsonValue::as_str) {
            Some("PC0") => PackageCState::PC0,
            Some("PC0Idle") => PackageCState::PC0Idle,
            Some("PC2") => PackageCState::PC2,
            Some("PC6") => PackageCState::PC6,
            Some("PC1A") => PackageCState::PC1A,
            Some(other) => return Err(format!("sample: unknown package state `{other}`")),
            None => return Err("sample: missing or non-string `package_state`".to_owned()),
        };
        ts.push(TimeSeriesSample {
            at,
            soc_power_w: s
                .get("soc_power_w")
                .and_then(JsonValue::as_f64)
                .ok_or("sample: missing or non-number `soc_power_w`")?,
            queue_depth: s
                .get("queue_depth")
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("sample: missing or non-integer `queue_depth`")?,
            busy_cores: s
                .get("busy_cores")
                .and_then(JsonValue::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("sample: missing or non-integer `busy_cores`")?,
            package_state,
            pc0_delta: duration_field(s, "pc0_delta_ns")
                .map_err(|e| e.replace("timeseries:", "sample:"))?,
            pc0_idle_delta: duration_field(s, "pc0_idle_delta_ns")
                .map_err(|e| e.replace("timeseries:", "sample:"))?,
            pc1a_delta: duration_field(s, "pc1a_delta_ns")
                .map_err(|e| e.replace("timeseries:", "sample:"))?,
            pc6_delta: duration_field(s, "pc6_delta_ns")
                .map_err(|e| e.replace("timeseries:", "sample:"))?,
        });
    }
    Ok(ts)
}

/// An engine self-profile as an object: the aggregate event-core counters
/// and the per-event-kind breakdown. Both keep a `cancelled` key for their
/// readers; events are never cancelled, so it always reads 0.
#[must_use]
fn profile_report_json(p: &ProfileReport) -> JsonValue {
    let mut engine = JsonValue::object();
    engine
        .push("scheduled", JsonValue::Int(i128::from(p.engine.scheduled)))
        .push(
            "dispatched",
            JsonValue::Int(i128::from(p.engine.dispatched)),
        )
        .push("cancelled", JsonValue::Int(i128::from(0)))
        .push(
            "level0_batches",
            JsonValue::Int(i128::from(p.engine.level0_batches)),
        )
        .push(
            "batched_events",
            JsonValue::Int(i128::from(p.engine.batched_events)),
        )
        .push("max_batch", JsonValue::Int(i128::from(p.engine.max_batch)))
        .push(
            "overflow_hits",
            JsonValue::Int(i128::from(p.engine.overflow_hits)),
        );
    let events = p
        .events
        .iter()
        .map(|k| {
            let mut o = JsonValue::object();
            o.push("kind", JsonValue::Str(k.kind.to_owned()))
                .push("scheduled", JsonValue::Int(i128::from(k.scheduled)))
                .push("dispatched", JsonValue::Int(i128::from(k.dispatched)))
                .push("cancelled", JsonValue::Int(i128::from(0)));
            o
        })
        .collect();
    let mut o = JsonValue::object();
    o.push("engine", engine)
        .push("events", JsonValue::Array(events));
    o
}

/// A span log as Chrome trace-event JSON (the format `chrome://tracing` and
/// [Perfetto](https://ui.perfetto.dev) load directly).
///
/// Every span becomes one complete (`"ph": "X"`) event: `ts`/`dur` are the
/// span's simulated start/length in *microseconds* (the format's unit),
/// `pid` is the node (chain coordinators use the node count as a
/// pseudo-node), `tid` the lane within the node, `cat` the span kind and
/// `args.trace` the trace id. Wake spans are named after the C-state the
/// core left; every other span is named after its kind. The microsecond
/// floats are exact (`ns / 1000.0` in IEEE arithmetic) and formatted
/// shortest-round-trip, so fixed-seed traces export byte-identically.
#[must_use]
pub fn chrome_trace_json(log: &TraceLog) -> JsonValue {
    let events = log
        .spans()
        .iter()
        .map(|s| {
            let name = if s.label.is_empty() {
                s.kind.name()
            } else {
                s.label
            };
            let mut args = JsonValue::object();
            args.push("trace", JsonValue::Int(i128::from(s.trace)));
            let mut e = JsonValue::object();
            e.push("name", JsonValue::Str(name.to_owned()))
                .push("cat", JsonValue::Str(s.kind.name().to_owned()))
                .push("ph", JsonValue::Str("X".to_owned()))
                .push("ts", JsonValue::Float(s.start.as_nanos() as f64 / 1000.0))
                .push(
                    "dur",
                    JsonValue::Float(s.duration().as_nanos() as f64 / 1000.0),
                )
                .push("pid", JsonValue::Int(i128::from(u64::from(s.node))))
                .push("tid", JsonValue::Int(i128::from(u64::from(s.lane))))
                .push("args", args);
            e
        })
        .collect();
    let mut o = JsonValue::object();
    o.push("traceEvents", JsonValue::Array(events))
        .push("displayTimeUnit", JsonValue::Str("ns".to_owned()))
        .push("dropped_spans", JsonValue::Int(i128::from(log.dropped())));
    o
}

// ---- result -> CSV -----------------------------------------------------

/// The CSV column set shared by every run-level export, in order.
pub const RUN_CSV_HEADER: &str = "config,workload,offered_rate_rps,duration_ns,\
completed_requests,throughput_rps,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,max_ns,\
avg_soc_power_w,avg_dram_power_w,cpu_utilization,cc0_fraction,cc1_fraction,\
cc6_fraction,all_idle_fraction,pc1a_residency,pc6_residency,pc1a_transitions,\
pc1a_aborted,pc6_transitions,idle_periods,idle_periods_20_200us";

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    }
    // Non-finite values export as an empty cell.
}

fn run_csv_row(out: &mut String, r: &RunResult) {
    let _ = write!(
        out,
        "{},{},",
        csv_escape(r.config_name),
        csv_escape(r.workload)
    );
    push_f64(out, r.offered_rate);
    let _ = write!(out, ",{},{},", r.duration.as_nanos(), r.completed_requests);
    push_f64(out, r.throughput());
    let l = &r.latency;
    let _ = write!(
        out,
        ",{},{},{},{},{},{},",
        l.mean.as_nanos(),
        l.p50.as_nanos(),
        l.p95.as_nanos(),
        l.p99.as_nanos(),
        l.p999.as_nanos(),
        l.max.as_nanos()
    );
    for (i, v) in [
        r.avg_soc_power.as_f64(),
        r.avg_dram_power.as_f64(),
        r.cpu_utilization,
        r.cc0_fraction,
        r.cc1_fraction,
        r.cc6_fraction,
        r.all_idle_fraction,
        r.pc1a_residency,
        r.pc6_residency,
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v);
    }
    let _ = write!(
        out,
        ",{},{},{},{},",
        r.pc1a_transitions, r.pc1a_aborted, r.pc6_transitions, r.idle_periods
    );
    push_f64(out, r.idle_periods_20_200us);
    out.push('\n');
}

/// Quotes a CSV cell when it contains separators or quotes. The built-in
/// names never need it, but custom workload names flow through here too.
#[must_use]
pub fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// One labelled run row of a run-level CSV export (a `label` column, the
/// caller's row name, then [`RUN_CSV_HEADER`]), newline-terminated.
#[must_use]
pub fn run_csv_line(label: &str, r: &RunResult) -> String {
    let mut out = format!("{},", csv_escape(label));
    run_csv_row(&mut out, r);
    out
}

/// The CSV columns carrying the network-fabric census. Emitted only when
/// the exported runs crossed a fabric, so fabric-less exports keep their
/// historical shape byte for byte.
const NETWORK_CSV_COLUMNS: &str =
    "net_topology,net_link_latency_ns,net_messages,net_mean_wire_delay_ns,net_max_wire_delay_ns";

/// Writes the `NETWORK_CSV_COLUMNS` cells (no trailing separator); a run
/// without a fabric exports empty cells.
fn push_network_cells(out: &mut String, n: Option<&NetworkStats>) {
    match n {
        Some(n) => {
            let _ = write!(
                out,
                "{},{},{},{},{}",
                csv_escape(n.config.topology.name()),
                n.config.link_latency.as_nanos(),
                n.messages,
                n.mean_wire_delay().as_nanos(),
                n.max_wire_delay.as_nanos()
            );
        }
        None => out.push_str(",,,,"),
    }
}

/// The header line of a cluster CSV export, newline-terminated:
/// `repeat,node,policy,routed,` then the run columns. `with_network`
/// inserts the `NETWORK_CSV_COLUMNS` between `routed` and the run
/// columns.
#[must_use]
pub fn cluster_csv_header(with_network: bool) -> String {
    if with_network {
        format!("repeat,node,policy,routed,{NETWORK_CSV_COLUMNS},{RUN_CSV_HEADER}\n")
    } else {
        format!("repeat,node,policy,routed,{RUN_CSV_HEADER}\n")
    }
}

/// The rows one cluster run contributes to a cluster CSV export (one per
/// node, led by the run's `repeat` index), newline-terminated.
/// `with_network` must match the header's.
#[must_use]
pub fn cluster_csv_rows(repeat: usize, c: &ClusterResult, with_network: bool) -> String {
    let mut out = String::new();
    for (i, r) in c.nodes.runs.iter().enumerate() {
        let _ = write!(
            out,
            "{repeat},{i},{},{},",
            csv_escape(c.policy),
            c.routed.get(i).copied().unwrap_or(0)
        );
        if with_network {
            push_network_cells(&mut out, c.network.as_ref());
            out.push(',');
        }
        run_csv_row(&mut out, r);
    }
    out
}

/// The CSV column set of chain-level exports, in order: identity, chain
/// census, end-to-end latency percentiles (p50/p99/p999 and mean/max), the
/// leaf-straggler breakdown, routing spread and fleet power/residency
/// aggregates. One row summarises one chain run — the percentile columns
/// are the chain-level tail the per-node `RUN_CSV_HEADER` cannot express.
pub const CHAIN_CSV_HEADER: &str = "repeat,policy,graph,duration_ns,\
chains_started,chains_completed,chains_per_sec,e2e_mean_ns,e2e_p50_ns,\
e2e_p99_ns,e2e_p999_ns,e2e_max_ns,straggler_p50_ns,straggler_p99_ns,\
straggler_p999_ns,total_routed,routing_imbalance,fleet_power_w,\
mean_pc1a_residency,worst_rpc_p99_ns";

/// The header line of a chain CSV export, newline-terminated.
/// `with_network` appends the `NETWORK_CSV_COLUMNS` after the chain
/// columns.
#[must_use]
pub fn chain_csv_header(with_network: bool) -> String {
    if with_network {
        format!("{CHAIN_CSV_HEADER},{NETWORK_CSV_COLUMNS}\n")
    } else {
        format!("{CHAIN_CSV_HEADER}\n")
    }
}

/// The single row one chain run contributes to a chain CSV export (see
/// [`CHAIN_CSV_HEADER`]), newline-terminated. `with_network` must match
/// the header's.
#[must_use]
pub fn chain_csv_row(repeat: usize, c: &ChainResult, with_network: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{repeat},{},{},{},{},{},",
        csv_escape(c.policy),
        csv_escape(&c.graph),
        c.duration.as_nanos(),
        c.chains_started,
        c.chains_completed,
    );
    push_f64(&mut out, c.chains_per_sec());
    let _ = write!(
        out,
        ",{},{},{},{},{},{},{},{},{},",
        c.chain_latency.mean.as_nanos(),
        c.chain_latency.p50.as_nanos(),
        c.chain_latency.p99.as_nanos(),
        c.chain_latency.p999.as_nanos(),
        c.chain_latency.max.as_nanos(),
        c.straggler.p50.as_nanos(),
        c.straggler.p99.as_nanos(),
        c.straggler.p999.as_nanos(),
        c.total_routed(),
    );
    push_f64(&mut out, c.routing_imbalance());
    out.push(',');
    push_f64(&mut out, c.nodes.total_power_w());
    out.push(',');
    push_f64(&mut out, c.nodes.mean_pc1a_residency());
    let _ = write!(out, ",{}", c.nodes.worst_p99().as_nanos());
    if with_network {
        out.push(',');
        push_network_cells(&mut out, c.network.as_ref());
    }
    out.push('\n');
    out
}

/// A time series as CSV (`at_ns,soc_power_w,queue_depth,busy_cores,`
/// `package_state,pc0_delta_ns,pc0_idle_delta_ns,pc1a_delta_ns,pc6_delta_ns`),
/// one row per sample — the format the paper's time-domain figures plot.
/// `node` labels the rows so multi-node series can be concatenated.
#[must_use]
pub fn timeseries_csv(node: &str, ts: &TimeSeries) -> String {
    let mut out = String::from(
        "node,at_ns,soc_power_w,queue_depth,busy_cores,package_state,\
pc0_delta_ns,pc0_idle_delta_ns,pc1a_delta_ns,pc6_delta_ns\n",
    );
    for s in ts.samples() {
        let _ = write!(out, "{},{},", csv_escape(node), s.at.as_nanos());
        push_f64(&mut out, s.soc_power_w);
        let _ = writeln!(
            out,
            ",{},{},{:?},{},{},{},{}",
            s.queue_depth,
            s.busy_cores,
            s.package_state,
            s.pc0_delta.as_nanos(),
            s.pc0_idle_delta.as_nanos(),
            s.pc1a_delta.as_nanos(),
            s.pc6_delta.as_nanos()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_writer_is_deterministic_and_ordered() {
        let mut o = JsonValue::object();
        o.push("b", JsonValue::Int(1))
            .push("a", JsonValue::Float(2.5))
            .push("s", JsonValue::Str("x\"y".to_owned()))
            .push(
                "l",
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            );
        assert_eq!(
            o.to_pretty_string(),
            concat!(
                "{\n",
                "  \"b\": 1,\n",
                "  \"a\": 2.5,\n",
                "  \"s\": \"x\\\"y\",\n",
                "  \"l\": [\n",
                "    null,\n",
                "    true\n",
                "  ]\n",
                "}\n",
            )
        );
        assert_eq!(o.to_pretty_string(), o.clone().to_pretty_string());
    }

    #[test]
    fn float_formatting_is_fixed() {
        let mut s = String::new();
        write_f64(&mut s, 50.18249155799904);
        assert_eq!(s, "50.18249155799904");
        s.clear();
        write_f64(&mut s, 4000.0);
        assert_eq!(s, "4000.0", "integral floats keep a fractional part");
        s.clear();
        write_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = JsonValue::object();
        o.push("n", JsonValue::Int(-3))
            .push("u", JsonValue::Int(i128::from(u64::MAX)))
            .push("f", JsonValue::Float(0.125))
            .push("s", JsonValue::Str("tab\t\"quote\"".to_owned()))
            .push(
                "arr",
                JsonValue::Array(vec![JsonValue::Int(1), JsonValue::Null]),
            )
            .push("empty", JsonValue::object());
        let parsed = JsonValue::parse(&o.to_pretty_string()).expect("round-trip parse");
        assert_eq!(parsed.get("n"), Some(&JsonValue::Int(-3)));
        assert_eq!(parsed.get("u"), Some(&JsonValue::Int(i128::from(u64::MAX))));
        assert_eq!(parsed.get("f"), Some(&JsonValue::Float(0.125)));
        assert_eq!(
            parsed.get("s").and_then(JsonValue::as_str),
            Some("tab\t\"quote\"")
        );
        assert_eq!(
            parsed
                .get("arr")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn parser_round_trips_multibyte_utf8() {
        for text in ["µs", "10 °C — ✓", "🚀 \"ünï\" \\ cödé", "é\n", "\u{7f}ñ"] {
            let value = JsonValue::Array(vec![JsonValue::Str(text.to_owned())]);
            let doc = value.to_pretty_string();
            assert_eq!(JsonValue::parse(&doc), Ok(value.clone()), "{doc:?}");
        }
        // Escapes between multi-byte characters, parsed from raw text.
        let parsed = JsonValue::parse("\"ä\\u00e9ö\\\"ü\"").unwrap();
        assert_eq!(parsed.as_str(), Some("äéö\"ü"));
    }

    #[test]
    fn parser_is_linear_in_string_heavy_documents() {
        // 2.3 MB of strings: a parser that rescans the rest of the input
        // per character needs minutes here, a linear one milliseconds.
        let cell = format!("{}\\\"ö{}", "x".repeat(60), "y".repeat(50));
        let doc = format!("[{}\"end\"]", format!("\"{cell}\",").repeat(20_000));
        assert!(doc.len() > 2_000_000, "{} bytes", doc.len());
        let start = std::time::Instant::now();
        let parsed = JsonValue::parse(&doc).expect("document parses");
        let elapsed = start.elapsed();
        let items = parsed.as_array().expect("an array");
        assert_eq!(items.len(), 20_001);
        let want = format!("{}\"ö{}", "x".repeat(60), "y".repeat(50));
        assert_eq!(items[19_999].as_str(), Some(want.as_str()));
        assert!(elapsed.as_secs_f64() < 5.0, "parse took {elapsed:?}");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "{\"a\" 1}",
            "nul",
            // Strict number grammar: no bare dots, leading zeros, dangling
            // signs/exponents (all rejected by standard JSON parsers).
            "1.",
            ".5",
            "01",
            "-",
            "1e",
            "1e+",
            "-.5",
            // \u escapes are exactly four hex digits, no signs.
            "\"\\u+041\"",
            "\"\\u12\"",
            "\"\\uzzzz\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} should not parse");
        }
        for good in ["0", "-0.5", "1e9", "10", "1.25E-3", "\"\\u0041\""] {
            assert!(JsonValue::parse(good).is_ok(), "{good:?} should parse");
        }
        // Nesting beyond the depth bound is a parse error, not a stack
        // overflow abort.
        let deep = "[".repeat(100_000);
        let err = JsonValue::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok_depth = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&ok_depth).is_ok());
        let err = JsonValue::parse("{\"a\": \x01}").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn profile_json_carries_engine_counters_and_event_kinds_only() {
        let report = ProfileReport {
            engine: apc_sim::engine::QueueCounters {
                scheduled: 9,
                dispatched: 7,
                level0_batches: 5,
                batched_events: 6,
                max_batch: 3,
                overflow_hits: 1,
            },
            events: vec![apc_trace::EventKindCount {
                kind: "Arrival",
                scheduled: 4,
                dispatched: 4,
            }],
        };
        assert_eq!(
            profile_report_json(&report).to_pretty_string(),
            concat!(
                "{\n",
                "  \"engine\": {\n",
                "    \"scheduled\": 9,\n",
                "    \"dispatched\": 7,\n",
                "    \"cancelled\": 0,\n",
                "    \"level0_batches\": 5,\n",
                "    \"batched_events\": 6,\n",
                "    \"max_batch\": 3,\n",
                "    \"overflow_hits\": 1\n",
                "  },\n",
                "  \"events\": [\n",
                "    {\n",
                "      \"kind\": \"Arrival\",\n",
                "      \"scheduled\": 4,\n",
                "      \"dispatched\": 4,\n",
                "      \"cancelled\": 0\n",
                "    }\n",
                "  ]\n",
                "}\n",
            )
        );
    }

    #[test]
    fn csv_escaping_quotes_separators() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
