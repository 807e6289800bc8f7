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
//! and a past timestamp is clamped to the last delivered instant. An event
//! scheduled at the last delivered instant, directly or by clamping, is
//! therefore delivered after every event already queued for that instant.
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
//! queue.schedule(SimTime::ZERO, "late");
//! assert_eq!(queue.pop(), Some((t, "second")));
//! assert_eq!(queue.pop(), Some((t, "late")));
//! assert_eq!(queue.pop(), None);
//! ```
//!
//! # Superseded events
//!
//! A scheduled event cannot be cancelled. A component that may supersede an
//! event it has scheduled (a wake-up overtaken by new work, say) keeps an
//! epoch counter, bumps it when the pending event goes stale, carries the
//! epoch in the event's payload and ignores a delivery whose epoch is no
//! longer current. The server's core model does this for its wake and idle
//! entry completions.
//!
//! [`EventQueue`] is the one implementation: a one-level calendar of
//! 1,024 ns slots over a 4.19 ms span, each slot's list kept in delivery
//! order and delivered from its head, with a far heap beyond the span,
//! batched same-timestamp dispatch and a FIFO lane for events scheduled at
//! the current instant. Schedule and pop are O(1) amortized for near-term
//! events and allocation-free in steady state, and an event is moved only
//! into the queue and out of it. `pop_before` fuses the run loop's horizon
//! check into the pop.
//!
//! The contract is pinned by `tests/event_core_differential.rs`, which runs
//! the queue in lockstep with a model of the contract (an ordered map keyed
//! by `(time, scheduling sequence)`) under randomized schedule, pop,
//! horizon-bounded pop and causality-clamp interleavings and compares every
//! observable after every operation.

mod calendar;

pub use calendar::{EventQueue, KindCounters, QueueCounters};
