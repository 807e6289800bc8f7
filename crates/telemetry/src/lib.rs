//! # `apc-telemetry` — residency, idle-period and latency telemetry
//!
//! The measurement layer of the reproduction: the counters and traces from
//! which every figure of the paper's evaluation is computed.
//!
//! * [`residency`] — per-core and package C-state residency counters
//!   (Fig. 6(a)/(b), 8(a), 9(a));
//! * [`idle`] — fully-idle period tracking with the SoCWatch 10 µs floor
//!   and the 20–200 µs band (Fig. 6(b)/(c));
//! * [`latency`] — end-to-end latency summaries (Fig. 5, 7(c));
//! * [`sketch`] — the bounded-memory relative-error quantile sketch behind
//!   every latency summary (1 % error contract, exact merge);
//! * [`timeseries`] — periodic samples of power, residency deltas and queue
//!   depth over simulated time (the time-domain figures).

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod idle;
pub mod latency;
pub mod residency;
pub mod sketch;
pub mod timeseries;

pub use idle::IdlePeriodTracker;
pub use latency::LatencySummary;
pub use residency::{CoreResidencySet, PackageResidency, StateResidency};
pub use sketch::{QuantileSketch, SketchParts};
pub use timeseries::{TimeSeries, TimeSeriesSample};
