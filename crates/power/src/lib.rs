//! # `apc-power` — per-domain power model and energy accounting
//!
//! This crate turns component states from [`apc_soc`] into watts and energy:
//!
//! * [`units`] — the [`units::Watts`] newtype;
//! * [`model`] — the calibrated per-domain [`model::PowerModel`] and the
//!   [`model::PowerBreakdown`] snapshot;
//! * [`energy`] — exact integer (nW × ns) integration of piecewise-constant
//!   power over a simulated timeline;
//! * [`table`] — the model quantised to whole-nanowatt per-state constants,
//!   the form per-event accounting reads.
//!
//! [`PowerModel::snapshot`] is the one float composition of component power
//! into package power, and [`PowerTable`] its whole-nanowatt twin. The
//! closed-form Table 1 and Sec. 5.4 figures are snapshots of sockets that
//! `apc-core` drives to rest through the package flows
//! (`apc_core::power::resident_soc`).
//!
//! # Example
//!
//! ```
//! use apc_power::PowerModel;
//! use apc_soc::cstate::CoreCState;
//! use apc_soc::topology::SkxSoc;
//!
//! let mut soc = SkxSoc::xeon_silver_4114();
//! soc.force_all_cores(CoreCState::CC1);
//! let idle = PowerModel::skx_calibrated().snapshot(&soc, 0.0);
//!
//! // Table 1's PC0idle row, and the Sec. 2 motivation: with every core in
//! // CC1 the uncore and DRAM draw over 65 % of SoC + DRAM power.
//! assert!((idle.total().as_f64() - 49.5).abs() < 0.4);
//! assert!(idle.uncore_and_dram_fraction() > 0.65);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod energy;
pub mod model;
pub mod table;
pub mod units;

pub use energy::{EnergyBreakdown, EnergyMeter, PowerLevel};
pub use model::{PowerBreakdown, PowerModel};
pub use table::PowerTable;
pub use units::Watts;
