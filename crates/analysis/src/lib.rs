//! # `apc-analysis` — the paper's analytical models and report formatting
//!
//! * [`savings`] — the Sec. 2 / Eq. 1 power-savings model and the 41 % idle
//!   saving;
//! * [`impact`] — the Sec. 6/7.3 performance-impact model
//!   (#transitions × transition cost vs. baseline latency);
//! * [`report`] — fixed-width table rendering shared by the experiment
//!   harnesses;
//! * [`export`] — deterministic JSON values and CSV rows of run, fleet,
//!   cluster, chain and time-series results, and the JSON parser;
//! * [`stream`] — the incremental writers that compose those pieces into
//!   whole JSON/CSV documents, one result at a time (the `apc-cli` output
//!   layer).
//!
//! # Example
//!
//! ```
//! use apc_analysis::savings::SavingsInputs;
//! use apc_power::units::Watts;
//!
//! // Eq. 1 for an idle server, every moment PC1A-eligible, with Table 1's
//! // PC0, PC0idle and PC1A SoC + DRAM power.
//! let idle = SavingsInputs::new(1.0, Watts(92.0), Watts(49.5), Watts(29.1));
//! assert!((idle.savings_fraction() - 0.41).abs() < 0.02);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod export;
pub mod impact;
pub mod report;
pub mod savings;
pub mod stream;

pub use export::JsonValue;
pub use impact::ImpactInputs;
pub use report::TextTable;
pub use savings::SavingsInputs;
