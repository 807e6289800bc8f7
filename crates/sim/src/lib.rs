//! # `apc-sim` — discrete-event simulation engine
//!
//! Foundation crate of the AgilePkgC (APC) reproduction. It provides:
//!
//! * [`time`] — nanosecond-granularity [`time::SimTime`] / [`time::SimDuration`]
//!   types used by every other crate;
//! * [`engine`] — a deterministic discrete-event [`engine::EventQueue`];
//! * [`component`] — the component framework: [`component::Simulation`]
//!   driver, [`component::EventHandler`] trait and
//!   [`component::SimulationContext`] through which registered components
//!   schedule events and draw per-component deterministic randomness;
//! * [`rng`] — seeded, forkable random number generation;
//! * [`dist`] — the log-normal service-time distribution.
//!
//! # Example
//!
//! ```
//! use apc_sim::engine::EventQueue;
//! use apc_sim::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Event {
//!     RequestArrival,
//!     CoreWakeupDone,
//! }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_micros(10), Event::RequestArrival);
//! queue.schedule(SimTime::from_micros(10) + SimDuration::from_nanos(200),
//!                Event::CoreWakeupDone);
//!
//! let (t, e) = queue.pop().unwrap();
//! assert_eq!(e, Event::RequestArrival);
//! assert_eq!(t, SimTime::from_micros(10));
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod component;
pub mod dist;
pub mod engine;
pub mod rng;
pub mod time;

pub use component::{ComponentId, EventHandler, Simulation, SimulationContext};
pub use engine::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
