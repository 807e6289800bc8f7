//! Incremental writers for the JSON/CSV export formats: each result is
//! written the moment it finishes. Every `apc-cli` JSON/CSV results
//! document goes through them, wherever it goes: the CLI runs them over
//! its `--out` file while the simulation runs, and over memory for stdout,
//! `merge` and the in-process renderings.
//!
//! Writing as results finish changes when bytes reach the file, not how
//! much memory a run takes: the caller still holds every result (the
//! fleet object's aggregate block needs them all).
//!
//! Three shapes cover every `apc-cli` artefact:
//!
//! * [`JsonRunsWriter`] — the fleet object (`run`/`sweep` JSON): a `runs`
//!   array written element by element, closed by the aggregate block
//!   (computable only once every member finished) and the optional label
//!   list;
//! * [`JsonArrayWriter`] — a top-level result array (`cluster`/`chain`
//!   JSON), one pretty-printed element per push;
//! * [`CsvWriter`] — a header line then newline-terminated row chunks
//!   (every CSV export).
//!
//! Writers flush after every push, so a consumer tailing the file sees
//! complete rows/elements as the simulation progresses. All three are
//! plain [`io::Write`] adapters.

use std::io::{self, Write};

use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;

use crate::export::{fleet_aggregates_json, run_result_json, JsonValue};

/// Writes the fleet-object JSON export, laid out as
/// [`crate::export::fleet_result_json`] pretty-prints: `{ "runs": [` …one
/// element per [`push`](Self::push)… `],` then the aggregates on
/// [`finish`](Self::finish).
#[derive(Debug)]
pub struct JsonRunsWriter<W: Write> {
    out: W,
    runs: usize,
}

impl<W: Write> JsonRunsWriter<W> {
    /// Opens the fleet object and its `runs` array.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"{\n  \"runs\": [")?;
        out.flush()?;
        Ok(JsonRunsWriter { out, runs: 0 })
    }

    /// Appends one run to the `runs` array and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, r: &RunResult) -> io::Result<()> {
        if self.runs > 0 {
            self.out.write_all(b",")?;
        }
        self.out.write_all(b"\n    ")?;
        self.out
            .write_all(run_result_json(r).to_pretty_fragment(2).as_bytes())?;
        self.out.flush()?;
        self.runs += 1;
        Ok(())
    }

    /// Closes the `runs` array and writes the aggregate block (and the
    /// CLI's trailing `labels` array when given), finishing the document.
    ///
    /// The pushed runs must be exactly `fleet.runs` in order: the
    /// aggregates are computed from `fleet`, and without labels the
    /// document equals `fleet_result_json(fleet)` pretty-printed.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self, fleet: &FleetResult, labels: Option<&[String]>) -> io::Result<W> {
        debug_assert_eq!(self.runs, fleet.runs.len(), "streamed runs != fleet runs");
        let mut tail = fleet_aggregates_json(fleet);
        if let Some(labels) = labels {
            tail.push(
                "labels",
                JsonValue::Array(labels.iter().map(|l| JsonValue::Str(l.clone())).collect()),
            );
        }
        // The tail object pretty-prints as `{\n  "k": v,…\n}`; its interior
        // (everything between the braces, already indented for depth 1) is
        // exactly what follows the closed `runs` array in the whole object.
        let rendered = tail.to_pretty_fragment(0);
        let interior = &rendered[1..rendered.len() - 2];
        if self.runs > 0 {
            self.out.write_all(b"\n  ]")?;
        } else {
            self.out.write_all(b"]")?;
        }
        self.out.write_all(b",")?;
        self.out.write_all(interior.as_bytes())?;
        self.out.write_all(b"\n}\n")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a top-level pretty-printed JSON array (the `cluster`/`chain`
/// export shape), one element per [`push`](Self::push).
#[derive(Debug)]
pub struct JsonArrayWriter<W: Write> {
    out: W,
    items: usize,
}

impl<W: Write> JsonArrayWriter<W> {
    /// Wraps `out`; nothing is written until the first push (an empty
    /// array renders as `[]` only at finish).
    pub fn new(out: W) -> Self {
        JsonArrayWriter { out, items: 0 }
    }

    /// Appends one element and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, element: &JsonValue) -> io::Result<()> {
        if self.items == 0 {
            self.out.write_all(b"[")?;
        } else {
            self.out.write_all(b",")?;
        }
        self.out.write_all(b"\n  ")?;
        self.out
            .write_all(element.to_pretty_fragment(1).as_bytes())?;
        self.out.flush()?;
        self.items += 1;
        Ok(())
    }

    /// Closes the array, finishing the document.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self) -> io::Result<W> {
        if self.items == 0 {
            self.out.write_all(b"[]\n")?;
        } else {
            self.out.write_all(b"\n]\n")?;
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes a CSV export: a header line, then newline-terminated row chunks
/// (one [`crate::export::run_csv_line`], one
/// [`crate::export::cluster_csv_rows`] block, …) as results finish.
///
/// The header goes out with the first chunk, or alone at
/// [`finish`](Self::finish) when no row came, so a caller can choose it
/// from the first result (a cluster header carries the fabric columns only
/// when its runs crossed a fabric).
#[derive(Debug)]
pub struct CsvWriter<W: Write> {
    out: W,
    started: bool,
}

impl<W: Write> CsvWriter<W> {
    /// Wraps `out`; nothing is written until the first push.
    pub fn new(out: W) -> Self {
        CsvWriter {
            out,
            started: false,
        }
    }

    /// Appends one newline-terminated row chunk, after the newline-terminated
    /// `header` when it is the first, and flushes.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn push(&mut self, header: &str, rows: &str) -> io::Result<()> {
        self.start(header)?;
        self.out.write_all(rows.as_bytes())?;
        self.out.flush()
    }

    /// Finishes the export (a document without rows is its `header` alone)
    /// and returns the writer.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn finish(mut self, header: &str) -> io::Result<W> {
        self.start(header)?;
        self.out.flush()?;
        Ok(self.out)
    }

    fn start(&mut self, header: &str) -> io::Result<()> {
        if !self.started {
            self.out.write_all(header.as_bytes())?;
            self.started = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_server::config::ServerConfig;
    use apc_server::fleet::{Fleet, FleetMember};
    use apc_sim::SimDuration;
    use apc_workloads::spec::WorkloadSpec;

    use crate::export::{fleet_result_json, run_csv_line, RUN_CSV_HEADER};

    fn small_fleet() -> FleetResult {
        let mut fleet = Fleet::new();
        for i in 0..3 {
            let config = ServerConfig::c_pc1a()
                .with_duration(SimDuration::from_millis(2))
                .with_seed(Fleet::member_seed(7, i));
            fleet.push(FleetMember::new(
                config,
                WorkloadSpec::memcached_etc(),
                20_000.0,
            ));
        }
        fleet.run()
    }

    #[test]
    fn streamed_fleet_json_matches_buffered_bytes() {
        let result = small_fleet();
        let labels: Vec<String> = (0..3).map(|i| format!("server {i}")).collect();

        let mut buffered = fleet_result_json(&result);
        buffered.push(
            "labels",
            JsonValue::Array(labels.iter().map(|l| JsonValue::Str(l.clone())).collect()),
        );
        let buffered = buffered.to_pretty_string();

        let mut w = JsonRunsWriter::new(Vec::new()).unwrap();
        for r in &result.runs {
            w.push(r).unwrap();
        }
        let streamed = w.finish(&result, Some(&labels)).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), buffered);
    }

    #[test]
    fn streamed_fleet_json_without_labels_matches_exporter() {
        let result = small_fleet();
        let mut w = JsonRunsWriter::new(Vec::new()).unwrap();
        for r in &result.runs {
            w.push(r).unwrap();
        }
        let streamed = w.finish(&result, None).unwrap();
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            fleet_result_json(&result).to_pretty_string()
        );
    }

    #[test]
    fn empty_fleet_still_closes_the_document() {
        let empty = FleetResult { runs: Vec::new() };
        let streamed = JsonRunsWriter::new(Vec::new())
            .unwrap()
            .finish(&empty, None)
            .unwrap();
        let text = String::from_utf8(streamed).unwrap();
        assert_eq!(text, fleet_result_json(&empty).to_pretty_string());
        assert!(JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn streamed_array_matches_buffered_bytes() {
        let elements = vec![
            {
                let mut o = JsonValue::object();
                o.push("a", JsonValue::Int(1));
                o
            },
            JsonValue::Array(vec![JsonValue::Bool(true)]),
        ];
        let buffered = JsonValue::Array(elements.clone()).to_pretty_string();
        let mut w = JsonArrayWriter::new(Vec::new());
        for e in &elements {
            w.push(e).unwrap();
        }
        assert_eq!(String::from_utf8(w.finish().unwrap()).unwrap(), buffered);

        let empty = JsonArrayWriter::new(Vec::new()).finish().unwrap();
        assert_eq!(
            String::from_utf8(empty).unwrap(),
            JsonValue::Array(Vec::new()).to_pretty_string()
        );
    }

    #[test]
    fn csv_header_goes_out_once_with_the_first_rows() {
        let result = small_fleet();
        let header = format!("label,{RUN_CSV_HEADER}\n");
        let mut w = CsvWriter::new(Vec::new());
        let mut expected = header.clone();
        for (i, r) in result.runs.iter().enumerate() {
            let line = run_csv_line(&format!("server {i}"), r);
            w.push(&header, &line).unwrap();
            expected.push_str(&line);
        }
        assert_eq!(
            String::from_utf8(w.finish(&header).unwrap()).unwrap(),
            expected
        );
        assert_eq!(expected.lines().count(), 4, "one header, three rows");

        // No rows: the document is the header alone.
        let empty = CsvWriter::new(Vec::new()).finish(&header).unwrap();
        assert_eq!(String::from_utf8(empty).unwrap(), header);
    }
}
