//! # `apc-core` — the AgilePkgC (APC) architecture
//!
//! This crate implements the paper's contribution: the **PC1A** agile deep
//! package C-state and the three hardware components that realise it.
//!
//! * [`apmu`] — the Agile Power Management Unit: the hardware FSM that
//!   detects all-cores-in-CC1, orchestrates the PC1A entry/exit flow
//!   (paper Fig. 4) and interfaces with the firmware GPMU;
//! * [`iosm`] — IO Standby Mode: `AllowL0s`, `InL0s` and `Allow_CKE_OFF`
//!   control of the high-speed IO links and memory controllers;
//! * [`clmr`] — CLM Retention: `ClkGate`, `Ret`, `PwrOk` control of the
//!   CLM clock tree and FIVRs, with PLLs kept locked;
//! * [`latency`] — the Sec. 5.5 PC1A transition-latency budget
//!   (≈ 18 ns entry, ≤ 150 ns exit, < 200 ns round trip);
//! * [`power`] — the Sec. 5.4 (Eq. 2–3) PC1A power derivation;
//! * [`area`] — the Sec. 5.1–5.3 area-overhead model (< 0.75 % of the die).
//!
//! # Example
//!
//! ```
//! use apc_core::apmu::{Apmu, WakeCause};
//! use apc_soc::topology::SkxSoc;
//! use apc_soc::cstate::CoreCState;
//! use apc_sim::SimTime;
//!
//! let mut soc = SkxSoc::xeon_silver_4114();
//! let mut apmu = Apmu::new();
//!
//! // All cores idle in CC1, all links idle: the APMU walks the PC1A flow.
//! let t0 = SimTime::from_micros(100);
//! soc.force_all_cores(CoreCState::CC1);
//! for link in soc.ios_mut().iter_mut() {
//!     link.end_traffic(t0);
//! }
//! let standby_deadline = apmu.on_all_cores_idle(&mut soc).unwrap();
//! let resident_at = apmu.on_standby_deadline(&mut soc, standby_deadline).unwrap();
//! apmu.on_entry_complete();
//! assert!(apmu.in_pc1a());
//!
//! // A request arrives 40 µs later: the exit is nanosecond-scale.
//! let outcome = apmu.wakeup(&mut soc, resident_at + apc_sim::SimDuration::from_micros(40),
//!                           WakeCause::IoTraffic);
//! assert!(outcome.latency().as_nanos() <= 200);
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod apmu;
pub mod area;
pub mod clmr;
pub mod iosm;
pub mod latency;
pub mod power;

pub use apmu::{Apmu, ApmuState, ApmuStats, WakeCause, WakeOutcome};
pub use area::{ApcAreaModel, ApcAreaReport};
pub use clmr::ClmRetention;
pub use iosm::IoStandbyMode;
pub use latency::Pc1aLatencyModel;
pub use power::{Pc1aPowerEstimate, Pc1aPowerEstimator};
