//! Discrete-event scheduling primitives.
//!
//! The full-system server simulation (crate `apc-server`) is written as a
//! classic discrete-event simulation: components schedule future events into
//! an [`EventQueue`], the main loop repeatedly pops the earliest event,
//! advances the simulated clock to its timestamp and dispatches it.
//!
//! The queue is deliberately generic over the event payload so that every
//! layer (workload generators, C-state governors, package flows) can define
//! its own event enumeration while sharing the same scheduling machinery.
//!
//! # Delivery contract
//!
//! Timestamps are non-decreasing, ties are broken FIFO by scheduling order,
//! cancellation is exact, and a past timestamp is clamped to the last
//! delivered instant. An event scheduled at the last delivered instant,
//! directly or by clamping, is therefore delivered after every event already
//! queued for that instant.
//!
//! ```
//! use apc_sim::engine::EventQueue;
//! use apc_sim::time::SimTime;
//!
//! let mut queue = EventQueue::new();
//! let t = SimTime::from_micros(1);
//! queue.schedule(t, "first");
//! queue.schedule(t, "second");
//! assert_eq!(queue.pop(), Some((t, "first")));
//! // The clock stands at `t`: a past timestamp is clamped to it and queues
//! // behind the tie still pending there.
//! let late = queue.schedule(SimTime::ZERO, "late");
//! assert_eq!(queue.pop(), Some((t, "second")));
//! assert_eq!(queue.pop(), Some((t, "late")));
//! // A delivered event can no longer be cancelled.
//! assert!(!queue.cancel(late));
//! assert_eq!(queue.pop(), None);
//! ```
//!
//! [`EventQueue`] is the one implementation: a hierarchical timer wheel with
//! slab-backed event entries, per-level occupancy bitmaps, an overflow heap
//! for far-future events, batched same-timestamp dispatch and a FIFO lane
//! for events scheduled at the current instant. Schedule and pop are O(1)
//! amortized, cancel is O(1) (O(log n) in the lane), and all three are
//! allocation-free in steady state.
//!
//! The contract is pinned by `tests/event_core_differential.rs`, which runs
//! the wheel in lockstep with a model of the contract (an ordered map keyed
//! by `(time, scheduling sequence)`) under randomized schedule / cancel /
//! causality-clamp interleavings and compares every observable after every
//! operation.

mod wheel;

pub use wheel::{EventId, EventQueue, KindCounters, QueueCounters, QueueFootprint};
