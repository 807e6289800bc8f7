//! Component registry, event dispatch and the simulation driver.
//!
//! This module turns the bare scheduling primitives of [`crate::engine`] into
//! a full discrete-event simulation framework in the style of DSLab's
//! simulation core: user-defined *components* are registered with a
//! [`Simulation`], each receives events through the [`EventHandler`] trait,
//! and produces new events through a [`SimulationContext`] that exposes the
//! clock, the event queue and a per-component deterministic RNG stream.
//!
//! Two type parameters thread through everything:
//!
//! * `E` — the event payload type, typically one enum shared by all
//!   components of a simulation;
//! * `S` — the *shared state* visible to every component (the modelled
//!   hardware, work queues, telemetry). Component-private state lives inside
//!   the component struct itself; anything two components must both observe
//!   belongs in `S`.
//!
//! Determinism: [`Simulation::new`] seeds one root [`SimRng`]; every
//! registered component receives a stream forked from that root by component
//! name, so identical seeds yield bit-identical runs regardless of how much
//! randomness any individual component consumes.
//!
//! The driver has no generic dispatch hooks: [`Simulation::step`] pops the
//! next event and hands it to its destination's handler, nothing else, and
//! [`Simulation::run_until`] does the same through
//! [`EventQueue::pop_before`], so the horizon check costs no separate peek.
//! Work that must bracket a group of components' events (the server crate's
//! energy and residency accounting, say) belongs in a handler that wraps
//! those components, so it costs only their events and is dispatched
//! statically.
//!
//! Unlike DSLab's context, [`SimulationContext`] cannot cancel an emitted
//! event. A component that may supersede its own pending event carries an
//! epoch in the payload and ignores stale deliveries (see the
//! [`engine`](crate::engine) module docs).
//!
//! # Example
//!
//! ```
//! use apc_sim::component::{EventHandler, Simulation, SimulationContext};
//! use apc_sim::{SimDuration, SimTime};
//!
//! #[derive(Debug, Clone, Copy, PartialEq, Eq)]
//! enum Event {
//!     Ping,
//!     Pong,
//! }
//!
//! #[derive(Default)]
//! struct Counter {
//!     pings: u64,
//! }
//!
//! struct PingPong;
//!
//! impl EventHandler<Event, Counter> for PingPong {
//!     fn on_event(
//!         &mut self,
//!         event: Event,
//!         shared: &mut Counter,
//!         ctx: &mut SimulationContext<'_, Event>,
//!     ) {
//!         if event == Event::Ping {
//!             shared.pings += 1;
//!             if shared.pings < 3 {
//!                 ctx.emit_self(SimDuration::from_micros(1), Event::Ping);
//!             }
//!             ctx.emit_self(SimDuration::ZERO, Event::Pong);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42, Counter::default());
//! let player = sim.add_component("player", PingPong);
//! sim.schedule(player, SimTime::from_micros(1), Event::Ping);
//! sim.run_until(SimTime::from_millis(1));
//! assert_eq!(sim.shared().pings, 3);
//! ```

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::engine::EventQueue;
use crate::rng::SimRng;
use crate::time::SimTime;

/// Identifier of a registered simulation component. Returned by
/// [`Simulation::add_component`] and used as the destination of emitted
/// events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Builds an id from a raw index.
    ///
    /// Ids are assigned by [`Simulation::add_component`] in registration
    /// order starting at 0, so a driver with a fixed registration layout can
    /// pre-compute peer ids for components that reference each other
    /// cyclically (and should assert the layout with the returned ids).
    #[must_use]
    pub const fn from_raw(index: usize) -> Self {
        ComponentId(index)
    }
}

/// An event in flight: destination component plus user payload.
#[derive(Debug)]
struct Envelope<E> {
    dst: ComponentId,
    payload: E,
}

/// The per-component face of the simulation: clock access, event emission and
/// a deterministic private RNG stream.
///
/// A fresh context is constructed for every dispatched event, borrowing the
/// queue and the receiving component's RNG from the [`Simulation`].
pub struct SimulationContext<'a, E> {
    now: SimTime,
    self_id: ComponentId,
    queue: &'a mut EventQueue<Envelope<E>>,
    rng: &'a mut SimRng,
}

impl<E> SimulationContext<'_, E> {
    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component this context belongs to.
    #[must_use]
    pub fn id(&self) -> ComponentId {
        self.self_id
    }

    /// The component's private deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Emits an event to `dst` at absolute time `at`.
    fn emit_at(&mut self, dst: ComponentId, at: SimTime, payload: E) {
        self.queue.schedule(at, Envelope { dst, payload });
    }

    /// Emits an event to `dst` after `delay`.
    pub fn emit(&mut self, dst: ComponentId, delay: crate::time::SimDuration, payload: E) {
        self.emit_at(dst, self.now + delay, payload);
    }

    /// Emits a zero-delay event to `dst`, delivered at the current timestamp
    /// after all events already queued for this instant (FIFO).
    pub fn emit_now(&mut self, dst: ComponentId, payload: E) {
        self.emit_at(dst, self.now, payload);
    }

    /// Emits an event to the component itself after `delay`.
    pub fn emit_self(&mut self, delay: crate::time::SimDuration, payload: E) {
        self.emit(self.self_id, delay, payload);
    }

    /// Emits an event to the component itself at absolute time `at`.
    pub fn emit_self_at(&mut self, at: SimTime, payload: E) {
        self.emit_at(self.self_id, at, payload);
    }
}

/// A simulation component: consumes the events addressed to it.
///
/// Components receive `&mut` access to the shared state `S` and produce new
/// events through the [`SimulationContext`].
pub trait EventHandler<E, S> {
    /// Delivers an event addressed to this component.
    fn on_event(&mut self, event: E, shared: &mut S, ctx: &mut SimulationContext<'_, E>);
}

/// Registering an `Rc<RefCell<T>>` lets the caller keep a handle to the
/// component and inspect its private state after (or between) runs, in the
/// style of DSLab's shared component handles.
impl<E, S, T: EventHandler<E, S>> EventHandler<E, S> for Rc<RefCell<T>> {
    fn on_event(&mut self, event: E, shared: &mut S, ctx: &mut SimulationContext<'_, E>) {
        self.borrow_mut().on_event(event, shared, ctx);
    }
}

/// The simulation driver: owns the clock, the event queue, the root RNG, the
/// shared state and the registered components, and runs the main loop.
///
/// Component storage is a struct-of-arrays (`rngs` / `handlers` indexed
/// by [`ComponentId`]) so the dispatch loop can borrow a handler,
/// the destination's RNG and the shared state simultaneously as disjoint
/// fields — no `Option` dance or per-event moves. A name → id map beside
/// them answers [`Simulation::lookup`] and the uniqueness check of every
/// registration in O(log n), so building an n-component simulation is not
/// quadratic in n.
pub struct Simulation<E, S> {
    queue: EventQueue<Envelope<E>>,
    root_rng: SimRng,
    ids: BTreeMap<String, ComponentId>,
    rngs: Vec<SimRng>,
    handlers: Vec<Box<dyn EventHandler<E, S>>>,
    shared: S,
}

impl<E, S> Simulation<E, S> {
    /// Creates a simulation with the given root seed and shared state.
    #[must_use]
    pub fn new(seed: u64, shared: S) -> Self {
        Simulation {
            queue: EventQueue::new(),
            root_rng: SimRng::from_seed(seed),
            ids: BTreeMap::new(),
            rngs: Vec::new(),
            handlers: Vec::new(),
            shared,
        }
    }

    /// Registers a component under a unique name and returns its id.
    ///
    /// The component's RNG stream is forked from the root seed by name, so
    /// registration order does not affect determinism.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        handler: impl EventHandler<E, S> + 'static,
    ) -> ComponentId {
        let name = name.into();
        let rng = self.root_rng.fork(&name);
        self.add_component_with_stream(name, handler, rng)
    }

    /// Registers a component under a unique name with an explicitly supplied
    /// RNG stream instead of the default root-seed-by-name fork.
    ///
    /// This decouples a component's *registration name* (which must be
    /// unique within the simulation) from its *randomness stream* (which the
    /// caller may want to derive from some other root). The cluster layer
    /// relies on this: node components are registered under prefixed names
    /// (`"node 1 nic"`, …) while their streams are forked from the node's
    /// own seed by the unprefixed label, so a node draws exactly the same
    /// streams whatever its index and whatever else shares its simulation
    /// (see [`SimRng::fork`], which is a pure function of
    /// `(parent seed, label)`).
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_component_with_stream(
        &mut self,
        name: impl Into<String>,
        handler: impl EventHandler<E, S> + 'static,
        rng: SimRng,
    ) -> ComponentId {
        let id = ComponentId(self.handlers.len());
        match self.ids.entry(name.into()) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                panic!("component name {:?} registered twice", slot.key())
            }
        }
        self.rngs.push(rng);
        self.handlers.push(Box::new(handler));
        id
    }

    /// Finds a component id by registration name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<ComponentId> {
        self.ids.get(name).copied()
    }

    /// The number of registered components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.handlers.len()
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of events dispatched so far.
    #[must_use]
    pub fn dispatched(&self) -> u64 {
        self.queue.delivered()
    }

    /// Snapshot of the event queue's always-on self-profiling counters.
    #[must_use]
    pub fn queue_counters(&self) -> crate::engine::QueueCounters {
        self.queue.counters()
    }

    /// Enables per-event-kind profiling on the underlying queue: `classify`
    /// maps each payload to a kind index in `0..kinds`. Purely observational —
    /// dispatch order and component behaviour are unaffected.
    pub fn enable_event_profile(&mut self, kinds: usize, classify: impl Fn(&E) -> usize + 'static)
    where
        E: 'static,
    {
        self.queue
            .enable_profile(kinds, move |env: &Envelope<E>| classify(&env.payload));
    }

    /// Per-event-kind counter rows, if [`Simulation::enable_event_profile`]
    /// was called.
    #[must_use]
    pub fn event_profile(&self) -> Option<&[crate::engine::KindCounters]> {
        self.queue.kind_counters()
    }

    /// Shared state, read-only.
    #[must_use]
    pub fn shared(&self) -> &S {
        &self.shared
    }

    /// Shared state, mutable (for bootstrap and result extraction).
    pub fn shared_mut(&mut self) -> &mut S {
        &mut self.shared
    }

    /// Schedules an event from outside any component (bootstrap).
    pub fn schedule(&mut self, dst: ComponentId, at: SimTime, payload: E) {
        self.queue.schedule(at, Envelope { dst, payload });
    }

    /// The timestamp of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Dispatches the next event: advances the clock and delivers the event
    /// to its destination. Returns the event's timestamp, or `None` when the
    /// queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered component.
    pub fn step(&mut self) -> Option<SimTime> {
        let (time, envelope) = self.queue.pop()?;
        self.dispatch(time, envelope);
        Some(time)
    }

    /// Runs the simulation until the queue drains or the next event's
    /// timestamp reaches `horizon` (events at or after the horizon stay
    /// queued; the clock stays at the last dispatched event). Returns the
    /// number of events dispatched.
    ///
    /// # Panics
    ///
    /// Panics if an event addresses an unregistered component.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut dispatched = 0;
        while let Some((time, envelope)) = self.queue.pop_before(horizon) {
            self.dispatch(time, envelope);
            dispatched += 1;
        }
        dispatched
    }

    /// Delivers a popped event to its destination's handler.
    #[inline]
    fn dispatch(&mut self, time: SimTime, envelope: Envelope<E>) {
        let dst = envelope.dst.0;
        assert!(
            dst < self.handlers.len(),
            "event addressed to unregistered component {dst}"
        );
        let mut ctx = SimulationContext {
            now: time,
            self_id: envelope.dst,
            queue: &mut self.queue,
            rng: &mut self.rngs[dst],
        };
        self.handlers[dst].on_event(envelope.payload, &mut self.shared, &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick,
        Forward,
        Noise,
    }

    #[derive(Default)]
    struct Shared {
        ticks: u64,
        forwards: u64,
        draws: Vec<u64>,
    }

    struct Ticker {
        peer: Option<ComponentId>,
    }

    impl EventHandler<Ev, Shared> for Ticker {
        fn on_event(
            &mut self,
            event: Ev,
            shared: &mut Shared,
            ctx: &mut SimulationContext<'_, Ev>,
        ) {
            match event {
                Ev::Tick => {
                    shared.ticks += 1;
                    if let Some(peer) = self.peer {
                        ctx.emit_now(peer, Ev::Forward);
                    }
                    if shared.ticks < 5 {
                        ctx.emit_self(SimDuration::from_micros(10), Ev::Tick);
                    }
                }
                Ev::Noise => shared.draws.push(ctx.rng().next_u64()),
                Ev::Forward => unreachable!("ticker never receives forwards"),
            }
        }
    }

    struct Sink;

    impl EventHandler<Ev, Shared> for Sink {
        fn on_event(
            &mut self,
            event: Ev,
            shared: &mut Shared,
            _ctx: &mut SimulationContext<'_, Ev>,
        ) {
            assert_eq!(event, Ev::Forward);
            shared.forwards += 1;
        }
    }

    fn build() -> (Simulation<Ev, Shared>, ComponentId, ComponentId) {
        let mut sim = Simulation::new(7, Shared::default());
        let sink = sim.add_component("sink", Sink);
        let ticker = sim.add_component("ticker", Ticker { peer: Some(sink) });
        (sim, ticker, sink)
    }

    #[test]
    fn events_route_to_their_destination() {
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.shared().ticks, 5);
        assert_eq!(sim.shared().forwards, 5);
        assert_eq!(sim.now(), SimTime::from_micros(41));
    }

    #[test]
    fn event_profile_classifies_payloads_without_perturbing_the_run() {
        let run = |profile: bool| {
            let (mut sim, ticker, _sink) = build();
            if profile {
                sim.enable_event_profile(3, |e: &Ev| match e {
                    Ev::Tick => 0,
                    Ev::Forward => 1,
                    Ev::Noise => 2,
                });
            }
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
            sim.run_until(SimTime::from_secs(1));
            sim
        };
        let plain = run(false);
        let profiled = run(true);
        assert_eq!(plain.shared().ticks, profiled.shared().ticks);
        assert_eq!(plain.dispatched(), profiled.dispatched());
        assert!(plain.event_profile().is_none());
        let kinds = profiled.event_profile().expect("profile enabled");
        assert_eq!(kinds[0].dispatched, 5, "five ticks");
        assert_eq!(kinds[1].dispatched, 5, "five forwards");
        assert_eq!(kinds[2].dispatched, 0);
        let counters = profiled.queue_counters();
        assert_eq!(counters.dispatched, profiled.dispatched());
        assert_eq!(
            counters.scheduled, 10,
            "bootstrap tick + 4 re-arms + 5 forwards"
        );
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        // First tick at 1 us, second at 11 us: a horizon of 11 us must
        // dispatch only the first tick (and its zero-delay forward).
        let n = sim.run_until(SimTime::from_micros(11));
        assert_eq!(n, 2);
        assert_eq!(sim.shared().ticks, 1);
        assert!(sim.peek_time() == Some(SimTime::from_micros(11)));
    }

    #[test]
    fn run_until_resumes_after_an_event_at_the_horizon() {
        // The second tick sits exactly at the first horizon: it stays
        // queued, a bootstrap event scheduled between the runs for an
        // earlier instant goes first, and the later horizon resumes.
        let (mut sim, ticker, sink) = build();
        sim.schedule(ticker, SimTime::from_micros(1), Ev::Tick);
        assert_eq!(sim.run_until(SimTime::from_micros(11)), 2);
        assert_eq!(sim.run_until(SimTime::from_micros(11)), 0);
        assert_eq!(sim.now(), SimTime::from_micros(1));
        sim.schedule(sink, SimTime::from_micros(5), Ev::Forward);
        assert_eq!(sim.run_until(SimTime::from_micros(12)), 3);
        assert_eq!(sim.now(), SimTime::from_micros(11));
        assert_eq!((sim.shared().ticks, sim.shared().forwards), (2, 3));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!((sim.shared().ticks, sim.shared().forwards), (5, 6));
        assert_eq!(sim.peek_time(), None);
    }

    #[test]
    fn component_rng_streams_are_deterministic_and_independent() {
        let run = |seed| {
            let mut sim = Simulation::new(seed, Shared::default());
            let ticker = sim.add_component("ticker", Ticker { peer: None });
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Noise);
            sim.schedule(ticker, SimTime::from_micros(2), Ev::Noise);
            sim.run_until(SimTime::from_secs(1));
            sim.shared().draws.clone()
        };
        assert_eq!(run(42), run(42), "identical seeds, identical streams");
        assert_ne!(run(42), run(43), "different seeds diverge");
    }

    #[test]
    fn lookup_and_names_round_trip() {
        let (sim, ticker, sink) = build();
        assert_eq!(sim.lookup("ticker"), Some(ticker));
        assert_eq!(sim.lookup("sink"), Some(sink));
        assert_eq!(sim.lookup("nope"), None);
        assert_eq!(sim.component_count(), 2);
    }

    #[test]
    fn explicit_streams_decouple_name_from_randomness() {
        // A component registered under any name but with a stream forked
        // from (seed, "ticker") must draw exactly what `add_component`'s
        // default name-fork would give a component named "ticker".
        let run = |explicit: bool| {
            let mut sim = Simulation::new(42, Shared::default());
            let ticker = if explicit {
                let rng = SimRng::from_seed(42).fork("ticker");
                sim.add_component_with_stream("prefixed ticker", Ticker { peer: None }, rng)
            } else {
                sim.add_component("ticker", Ticker { peer: None })
            };
            sim.schedule(ticker, SimTime::from_micros(1), Ev::Noise);
            sim.schedule(ticker, SimTime::from_micros(2), Ev::Noise);
            sim.run_until(SimTime::from_secs(1));
            sim.shared().draws.clone()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        sim.add_component("dup", Sink);
        sim.add_component("dup", Sink);
    }

    #[test]
    fn a_rejected_duplicate_leaves_the_registry_unchanged() {
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        let first = sim.add_component("dup", Sink);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_component("dup", Sink);
        }));
        assert!(rejected.is_err());
        assert_eq!(sim.lookup("dup"), Some(first));
        assert_eq!(sim.component_count(), 1);
        let next = sim.add_component("next", Sink);
        assert_ne!(next, first);
        assert_eq!(sim.lookup("next"), Some(next));
    }

    #[test]
    fn lookup_is_exact_across_many_prefixed_names() {
        // Cluster-style names share prefixes ("node 1", "node 1 nic",
        // "node 10 nic"); the index matches whole names only.
        let mut sim: Simulation<Ev, Shared> = Simulation::new(1, Shared::default());
        let mut registered = Vec::new();
        for node in 0..300 {
            for part in ["", " nic", " apmu"] {
                let name = format!("node {node}{part}");
                registered.push((sim.add_component(name.clone(), Sink), name));
            }
        }
        assert_eq!(sim.component_count(), 900);
        for (id, name) in &registered {
            assert_eq!(sim.lookup(name), Some(*id));
        }
        assert_eq!(sim.lookup("node 300"), None);
        assert_eq!(sim.lookup("node 1 ni"), None);
    }

    #[test]
    fn zero_delay_events_are_fifo_at_one_instant() {
        // The forward emitted during a tick is delivered after the tick
        // handler returns but at the same timestamp.
        let (mut sim, ticker, _sink) = build();
        sim.schedule(ticker, SimTime::from_micros(3), Ev::Tick);
        sim.step();
        assert_eq!(sim.shared().ticks, 1);
        assert_eq!(sim.shared().forwards, 0);
        assert_eq!(sim.peek_time(), Some(SimTime::from_micros(3)));
        sim.step();
        assert_eq!(sim.shared().forwards, 1);
    }
}
