//! # `apc-pmu` — baseline power management
//!
//! The pre-APC power-management stack of the modelled server:
//!
//! * [`config`] — platform configurations (`Cshallow`, `Cdeep`, `CPC1A`)
//!   matching the paper's Sec. 6 baselines;
//! * [`governor`] — the OS idle governor selecting core C-states;
//! * [`gpmu`] — the firmware Global PMU with the microsecond-scale PC6
//!   entry/exit flow (paper Fig. 2).
//!
//! The APC additions (APMU, PC1A flow) live in `apc-core` and layer on top of
//! the GPMU via the wakeup/`InPC1A` interface described in the paper.
//!
//! # Example
//!
//! ```
//! use apc_pmu::config::PlatformConfig;
//! use apc_pmu::governor::IdleGovernor;
//! use apc_sim::SimDuration;
//! use apc_soc::cstate::CoreCState;
//!
//! // The datacenter baseline only ever uses CC1, no matter how long the
//! // predicted idle period is — this is what strands the package in PC0.
//! let governor = IdleGovernor::new(&PlatformConfig::c_shallow());
//! assert_eq!(governor.select(SimDuration::from_millis(10)), CoreCState::CC1);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod config;
pub mod governor;
pub mod gpmu;

pub use config::{PackagePolicy, PlatformConfig};
pub use governor::IdleGovernor;
pub use gpmu::{Gpmu, GpmuPhase, Pc6LatencyModel};
