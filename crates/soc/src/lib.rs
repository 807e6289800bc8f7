//! # `apc-soc` — Skylake-SP class server SoC structural model
//!
//! This crate is the hardware substrate of the AgilePkgC (APC) reproduction:
//! a structural model of an Intel Skylake-SP (SKX) server socket with the
//! components the paper's package C-state flows observe and drive.
//!
//! * [`cstate`] — core (`CCx`) C-states with their latencies, and the
//!   package (`PCx`) C-states as names only: the package flows (`apc-pmu`'s
//!   GPMU, `apc-core`'s APMU) set what each costs in power and latency;
//! * [`core`] — CPU cores, their power-management agents and the aggregated
//!   `InCC1` status signal;
//! * [`clm`] — the CHA/LLC/mesh ("CLM") domain as one unit with its
//!   gateable clock tree and its two FIVRs, which one `Ret` signal drives
//!   as one;
//! * [`io`] — PCIe/DMI/UPI controllers with LTSSM link power states
//!   (L0/L0p/L0s/L1) and the `AllowL0s`/`InL0s` signals;
//! * [`memory`] — the memory controllers, their one DDR4 power mode
//!   (CKE-off, self-refresh) and the `Allow_CKE_OFF` signal;
//! * [`pll`] — the core and uncore PLL counts, the uncore PLLs' one lock
//!   state and its re-lock latency;
//! * [`vr`] — the CLM FIVRs with their retention voltage and `PwrOk`;
//! * [`clock`] — the gateable CLM clock tree and the PMU clock;
//! * [`topology`] — [`topology::SocConfig`] / [`topology::SkxSoc`] aggregate.
//!
//! # Example
//!
//! ```
//! use apc_soc::topology::SkxSoc;
//! use apc_soc::cstate::CoreCState;
//!
//! let mut soc = SkxSoc::xeon_silver_4114();
//! assert_eq!(soc.cores().len(), 10);
//!
//! // Idle the whole socket: the aggregated InCC1 signal asserts.
//! soc.force_all_cores(CoreCState::CC1);
//! assert!(soc.cores().all_in_cc1_or_deeper());
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod changes;
pub mod clm;
pub mod clock;
pub mod core;
pub mod cstate;
pub mod io;
pub mod memory;
pub mod pll;
pub mod topology;
pub mod vr;

pub use cstate::{CoreCState, PackageCState};
pub use topology::{SkxSoc, SocConfig};
