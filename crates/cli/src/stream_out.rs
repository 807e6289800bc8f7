//! The result writer: the one code path from finished results to the JSON,
//! CSV and table artefacts and the `--timeseries-out` CSV.
//!
//! [`execute`] runs a plan and hands each result to the writer as soon as
//! it, and every earlier member, has finished: the in-order frontier of the
//! worker pool, so the bytes never depend on the worker count. With `--out`
//! the writer goes straight to a file created before the simulation
//! starts: an unwritable path fails before anything is simulated, and a
//! consumer can `tail -f` complete CSV rows or JSON array elements while
//! the run goes on. Stdout, `merge`, [`Outcome::render`] and
//! [`Outcome::timeseries_csv`] run the same writer over memory, and
//! [`replay`] feeds it a finished outcome. Tables need every result for
//! their column widths, so the writer renders them whole at the end.
//!
//! Writing as results finish changes when bytes reach the file, not how
//! much memory a run takes: the pool keeps every result until the run
//! ends, and the outcome goes on to `--trace-out`.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use apc_analysis::export::{
    chain_csv_header, chain_csv_row, chain_result_json, cluster_csv_header, cluster_csv_rows,
    cluster_result_json, run_csv_line, timeseries_csv, RUN_CSV_HEADER,
};
use apc_analysis::stream::{CsvWriter, JsonArrayWriter, JsonRunsWriter};
use apc_server::chain::ChainResult;
use apc_server::cluster::ClusterResult;
use apc_server::fleet::FleetResult;
use apc_server::result::RunResult;

use crate::runner::{ExecutionPlan, Outcome, OutputFormat};
use crate::CliError;

/// Where an artefact goes.
pub(crate) enum Sink {
    /// A file; its write errors name its path, and `bytes` counts what it
    /// accepted, for the `wrote` line.
    File {
        path: String,
        out: BufWriter<File>,
        bytes: u64,
    },
    /// Memory: stdout's text and the in-process renderings.
    Memory(Vec<u8>),
}

impl Sink {
    /// Creates (or truncates) the file at `path`.
    pub(crate) fn create(path: &str) -> Result<Sink, CliError> {
        let file =
            File::create(path).map_err(|e| CliError::Io(format!("cannot write `{path}`: {e}")))?;
        Ok(Sink::File {
            path: path.to_owned(),
            out: BufWriter::new(file),
            bytes: 0,
        })
    }

    /// A file's `wrote` line, or the text written to memory.
    fn into_text(self) -> String {
        match self {
            Sink::File { path, bytes, .. } => format!("wrote {path} ({bytes} bytes)\n"),
            Sink::Memory(text) => String::from_utf8(text).expect("the exporters write UTF-8"),
        }
    }
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Sink::File { path, out, bytes } => {
                let n = out.write(buf).map_err(|e| named(path, &e))?;
                *bytes += n as u64;
                Ok(n)
            }
            Sink::Memory(text) => text.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Sink::File { path, out, .. } => out.flush().map_err(|e| named(path, &e)),
            Sink::Memory(_) => Ok(()),
        }
    }
}

fn named(path: &str, e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot write `{path}`: {e}"))
}

/// Which results a plan yields: it picks the JSON document and the CSV
/// header.
#[derive(Clone, Copy)]
enum Kind {
    Runs,
    Clusters,
    Chains,
}

impl Kind {
    /// The CSV header line; `network` only matters to clusters and chains.
    fn csv_header(self, network: bool) -> String {
        match self {
            Kind::Runs => format!("label,{RUN_CSV_HEADER}\n"),
            Kind::Clusters => cluster_csv_header(network),
            Kind::Chains => chain_csv_header(network),
        }
    }
}

/// The artefact being written.
enum Document {
    /// Run-level JSON: the fleet object.
    Fleet(JsonRunsWriter<Sink>),
    /// Cluster or chain JSON: an array of results.
    Array(JsonArrayWriter<Sink>),
    Csv(CsvWriter<Sink>),
    /// A table, rendered whole from the finished outcome.
    Table(Sink),
}

/// The `--timeseries-out` CSV: every recorded series under one header.
struct Series {
    out: Sink,
    /// Whether a block was written yet.
    any: bool,
}

impl Series {
    fn push(&mut self, label: &str, run: &RunResult) -> io::Result<()> {
        let Some(ts) = &run.timeseries else {
            return Ok(());
        };
        let block = timeseries_csv(label, ts);
        // One header tops the file: later blocks drop theirs.
        let text = if self.any {
            block.split_once('\n').map_or("", |(_, rest)| rest)
        } else {
            &block
        };
        self.any = true;
        self.out.write_all(text.as_bytes())?;
        self.out.flush()
    }
}

/// The writer over one plan's (or outcome's) results, fed in member order.
struct ResultWriter {
    kind: Kind,
    doc: Option<Document>,
    series: Option<Series>,
    /// Member count: above one, cluster and chain series label their nodes
    /// `repeat <r> node <i>`, else `node <i>`.
    members: usize,
    /// Whether a cluster or chain CSV carries the fabric columns: the first
    /// result decides, and the header goes out with its rows.
    network: Option<bool>,
}

impl ResultWriter {
    fn new(
        kind: Kind,
        members: usize,
        doc: Option<(OutputFormat, Sink)>,
        series: Option<Sink>,
    ) -> io::Result<Self> {
        let doc = match doc {
            None => None,
            Some((OutputFormat::Table, out)) => Some(Document::Table(out)),
            Some((OutputFormat::Csv, out)) => Some(Document::Csv(CsvWriter::new(out))),
            Some((OutputFormat::Json, out)) => Some(match kind {
                Kind::Runs => Document::Fleet(JsonRunsWriter::new(out)?),
                Kind::Clusters | Kind::Chains => Document::Array(JsonArrayWriter::new(out)),
            }),
        };
        Ok(ResultWriter {
            kind,
            doc,
            series: series.map(|out| Series { out, any: false }),
            members,
            network: None,
        })
    }

    fn run(&mut self, label: &str, run: &RunResult) -> io::Result<()> {
        match &mut self.doc {
            Some(Document::Fleet(w)) => w.push(run)?,
            Some(Document::Csv(w)) => {
                w.push(&self.kind.csv_header(false), &run_csv_line(label, run))?;
            }
            _ => {}
        }
        match &mut self.series {
            Some(series) => series.push(label, run),
            None => Ok(()),
        }
    }

    fn cluster(&mut self, repeat: usize, c: &ClusterResult) -> io::Result<()> {
        let network = *self.network.get_or_insert(c.network.is_some());
        match &mut self.doc {
            Some(Document::Array(w)) => w.push(&cluster_result_json(c))?,
            Some(Document::Csv(w)) => w.push(
                &self.kind.csv_header(network),
                &cluster_csv_rows(repeat, c, network),
            )?,
            _ => {}
        }
        self.node_series(repeat, &c.nodes)
    }

    fn chain(&mut self, repeat: usize, c: &ChainResult) -> io::Result<()> {
        let network = *self.network.get_or_insert(c.network.is_some());
        match &mut self.doc {
            Some(Document::Array(w)) => w.push(&chain_result_json(c))?,
            Some(Document::Csv(w)) => w.push(
                &self.kind.csv_header(network),
                &chain_csv_row(repeat, c, network),
            )?,
            _ => {}
        }
        self.node_series(repeat, &c.nodes)
    }

    fn node_series(&mut self, repeat: usize, nodes: &FleetResult) -> io::Result<()> {
        let Some(series) = &mut self.series else {
            return Ok(());
        };
        for (i, run) in nodes.runs.iter().enumerate() {
            let label = if self.members > 1 {
                format!("repeat {repeat} node {i}")
            } else {
                format!("node {i}")
            };
            series.push(&label, run)?;
        }
        Ok(())
    }

    /// Closes the document — the fleet object's aggregates and labels and
    /// a whole table come from `outcome` — and hands back the sinks.
    fn finish(self, outcome: &Outcome) -> io::Result<Written> {
        let doc = match self.doc {
            None => None,
            Some(Document::Fleet(w)) => {
                let Outcome::Runs { labels, fleet, .. } = outcome else {
                    unreachable!("a fleet document belongs to a run-level outcome");
                };
                Some(w.finish(fleet, Some(labels))?)
            }
            Some(Document::Array(w)) => Some(w.finish()?),
            Some(Document::Csv(w)) => {
                Some(w.finish(&self.kind.csv_header(self.network.unwrap_or(false)))?)
            }
            Some(Document::Table(mut out)) => {
                out.write_all(outcome.table().as_bytes())?;
                out.flush()?;
                Some(out)
            }
        };
        Ok(Written {
            doc,
            series: self.series,
        })
    }
}

/// The sinks of a finished writer.
pub(crate) struct Written {
    doc: Option<Sink>,
    series: Option<Series>,
}

impl Written {
    /// The text to print: the document itself when it went to memory, else
    /// its `wrote` line, then the series' `wrote` line.
    pub(crate) fn report(self) -> String {
        let mut stdout = self.doc.map(Sink::into_text).unwrap_or_default();
        if let Some(series) = self.series {
            stdout.push_str(&series.out.into_text());
        }
        stdout
    }

    /// The series CSV written to memory, or `None` when no run recorded one.
    pub(crate) fn series_csv(self) -> Option<String> {
        let series = self.series.filter(|s| s.any)?;
        Some(series.out.into_text())
    }
}

/// Executes `plan`, writing the `doc` document and the `series` CSV as
/// results finish, and returns the outcome with the finished sinks.
///
/// # Errors
///
/// Returns the first write failure, naming its file.
pub(crate) fn execute(
    plan: ExecutionPlan,
    doc: Option<(OutputFormat, Sink)>,
    series: Option<Sink>,
) -> io::Result<(Outcome, Written)> {
    let (kind, members) = match &plan {
        ExecutionPlan::Fleet { fleet, .. } => (Kind::Runs, fleet.len()),
        ExecutionPlan::Cluster { fleet, .. } => (Kind::Clusters, fleet.len()),
        ExecutionPlan::Chain { fleet, .. } => (Kind::Chains, fleet.len()),
    };
    let mut w = ResultWriter::new(kind, members, doc, series)?;
    let outcome = match plan {
        ExecutionPlan::Fleet {
            name,
            labels,
            fleet,
        } => {
            let fleet = fleet.run_streamed(|i, r| w.run(&labels[i], r))?;
            Outcome::Runs {
                name,
                labels,
                fleet,
            }
        }
        ExecutionPlan::Cluster { name, fleet } => Outcome::Clusters {
            name,
            results: fleet.run_streamed(|i, c| w.cluster(i, c))?,
        },
        ExecutionPlan::Chain { name, fleet } => Outcome::Chains {
            name,
            results: fleet.run_streamed(|i, c| w.chain(i, c))?,
        },
    };
    let written = w.finish(&outcome)?;
    Ok((outcome, written))
}

/// Feeds every result of a finished `outcome` to a new writer, in member
/// order, and finishes it.
///
/// # Errors
///
/// Returns the first write failure, naming its file.
pub(crate) fn replay(
    outcome: &Outcome,
    doc: Option<(OutputFormat, Sink)>,
    series: Option<Sink>,
) -> io::Result<Written> {
    let mut w;
    match outcome {
        Outcome::Runs { labels, fleet, .. } => {
            w = ResultWriter::new(Kind::Runs, fleet.runs.len(), doc, series)?;
            for (label, run) in labels.iter().zip(&fleet.runs) {
                w.run(label, run)?;
            }
        }
        Outcome::Clusters { results, .. } => {
            w = ResultWriter::new(Kind::Clusters, results.len(), doc, series)?;
            for (repeat, c) in results.iter().enumerate() {
                w.cluster(repeat, c)?;
            }
        }
        Outcome::Chains { results, .. } => {
            w = ResultWriter::new(Kind::Chains, results.len(), doc, series)?;
            for (repeat, c) in results.iter().enumerate() {
                w.chain(repeat, c)?;
            }
        }
    }
    w.finish(outcome)
}
