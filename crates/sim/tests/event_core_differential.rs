//! Differential test suite for the event core: the timer-wheel
//! [`EventQueue`] against [`Model`], a model of its delivery contract,
//! driven in lockstep through randomized interleavings of every queue
//! operation.
//!
//! The contract (see `src/engine/mod.rs`) is: non-decreasing timestamps,
//! FIFO tie-break by scheduling order, exact cancellation with `bool`
//! results, and causality clamping of past timestamps to the last delivered
//! instant. The model states it directly as an ordered map keyed by
//! `(clamped time, scheduling sequence)`. Each scenario here applies an
//! identical operation sequence to the wheel and the model and asserts every
//! observable — popped `(time, payload)` pairs, `peek_time`, `len`,
//! `is_empty`, `now`, `delivered`, `cancel` return values — stays identical
//! throughout, so any behavioural drift in the wheel (cursor advance,
//! overflow-heap demotion, slab reuse, batch staging, the same-instant lane)
//! is caught at the exact operation that introduced it. (One scenario,
//! `unpeeked_interleavings_stay_bit_identical`, compares `peek_time` only at
//! intervals, because reading it changes which paths `pop` takes.)
//!
//! Randomness comes from the crate's own deterministic xoshiro streams
//! ([`SimRng`]), so every failure reproduces from the seed printed in the
//! assertion message.

use apc_sim::engine::{EventId, EventQueue, KindCounters};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;

use std::collections::{BTreeMap, HashMap};

/// A model event's identity: its clamped delivery time and scheduling
/// sequence number, which is also its place in the delivery order.
type Key = (SimTime, u64);

/// The delivery contract as an ordered map from [`Key`] to payload: the
/// first key is the next event to deliver, and a key leaves the map exactly
/// once, when its event is delivered or cancelled.
#[derive(Default)]
struct Model {
    pending: BTreeMap<Key, u64>,
    next_seq: u64,
    /// The last delivered instant.
    now: SimTime,
    delivered: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) -> Key {
        let key = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, payload);
        key
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((time, _), payload) = self.pending.pop_first()?;
        self.now = time;
        self.delivered += 1;
        Some((time, payload))
    }

    fn cancel(&mut self, key: Key) -> bool {
        self.pending.remove(&key).is_some()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(time, _), _)| time)
    }
}

/// Drives the wheel and the model through one identical operation and
/// checks every observable the operation exposes.
struct Lockstep {
    wheel: EventQueue<u64>,
    model: Model,
    /// Live (not yet popped or cancelled) events by payload.
    live: HashMap<u64, (EventId, Key)>,
    /// A bounded pool of dead ids for stale-cancel probes.
    dead: Vec<(EventId, Key)>,
    next_payload: u64,
    seed: u64,
    /// Whether every check compares `peek_time` too; reading it warms the
    /// wheel's next-event hint and skips cancelled entries ahead of `pop`.
    peek: bool,
}

impl Lockstep {
    fn new(seed: u64) -> Self {
        Lockstep {
            wheel: EventQueue::new(),
            model: Model::default(),
            live: HashMap::new(),
            dead: Vec::new(),
            next_payload: 0,
            seed,
            peek: true,
        }
    }

    fn schedule(&mut self, at: SimTime) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let w = self.wheel.schedule(at, payload);
        let m = self.model.schedule(at, payload);
        self.live.insert(payload, (w, m));
        self.check_observables("schedule");
        payload
    }

    fn pop(&mut self) {
        let w = self.wheel.pop();
        let m = self.model.pop();
        assert_eq!(
            w, m,
            "pop diverged (seed {}): wheel {w:?} vs model {m:?}",
            self.seed
        );
        if let Some((_, payload)) = w {
            let ids = self
                .live
                .remove(&payload)
                .expect("popped a payload that was never scheduled or already left");
            self.push_dead(ids);
        }
        self.check_observables("pop");
    }

    /// Cancels a drawn live event and returns its payload.
    fn cancel_live(&mut self, rng: &mut SimRng) -> Option<u64> {
        // Deterministic pick: order the live payloads, then index.
        let mut payloads: Vec<u64> = self.live.keys().copied().collect();
        payloads.sort_unstable();
        self.cancel_drawn(&payloads, rng)
    }

    /// Cancels a drawn live event among those due next, at the model's
    /// first timestamp (the rest of a staged batch or lane round), and
    /// returns its payload.
    fn cancel_due(&mut self, rng: &mut SimRng) -> Option<u64> {
        let t = self.model.peek_time()?;
        let due = self.model.pending.range((t, 0)..=(t, u64::MAX));
        let payloads: Vec<u64> = due.map(|(_, &payload)| payload).collect();
        self.cancel_drawn(&payloads, rng)
    }

    fn cancel_drawn(&mut self, payloads: &[u64], rng: &mut SimRng) -> Option<u64> {
        if payloads.is_empty() {
            return None;
        }
        let payload = payloads[rng.index(payloads.len())];
        self.cancel_payload(payload);
        Some(payload)
    }

    /// Cancels the live event carrying `payload`.
    fn cancel_payload(&mut self, payload: u64) {
        let (w, m) = self
            .live
            .remove(&payload)
            .expect("cancelling a live payload");
        let cw = self.wheel.cancel(w);
        let cm = self.model.cancel(m);
        assert_eq!(
            cw, cm,
            "live-cancel result diverged (seed {}): wheel {cw} vs model {cm}",
            self.seed
        );
        assert!(
            cw,
            "cancelling a live event must succeed (seed {})",
            self.seed
        );
        self.push_dead((w, m));
        self.check_observables("cancel_live");
    }

    fn cancel_stale(&mut self, rng: &mut SimRng) {
        if self.dead.is_empty() {
            return;
        }
        let (w, m) = self.dead[rng.index(self.dead.len())];
        let cw = self.wheel.cancel(w);
        let cm = self.model.cancel(m);
        assert_eq!(
            cw, cm,
            "stale-cancel result diverged (seed {}): wheel {cw} vs model {cm}",
            self.seed
        );
        assert!(
            !cw,
            "cancelling a dead event must report false (seed {})",
            self.seed
        );
        self.check_observables("cancel_stale");
    }

    fn push_dead(&mut self, ids: (EventId, Key)) {
        // Bound the pool so slab slots get recycled underneath the stale ids,
        // exercising the generation tags.
        if self.dead.len() >= 64 {
            self.dead.remove(0);
        }
        self.dead.push(ids);
    }

    fn check_observables(&mut self, op: &str) {
        let seed = self.seed;
        assert_eq!(
            self.wheel.len(),
            self.model.pending.len(),
            "len diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.is_empty(),
            self.model.pending.is_empty(),
            "is_empty diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.now(),
            self.model.now,
            "now diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.delivered(),
            self.model.delivered,
            "delivered diverged after {op} (seed {seed})"
        );
        if self.peek {
            self.check_peek(op);
        }
    }

    fn check_peek(&mut self, op: &str) {
        assert_eq!(
            self.wheel.peek_time(),
            self.model.peek_time(),
            "peek_time diverged after {op} (seed {})",
            self.seed
        );
    }

    fn drain(&mut self) {
        while !self.wheel.is_empty() || !self.model.pending.is_empty() {
            self.pop();
        }
        assert!(self.live.is_empty(), "drain left live entries behind");
    }
}

/// Picks a schedule timestamp that exercises every placement class the wheel
/// has: the current slot, near slots, higher levels, the overflow heap, and
/// the causality clamp (a past timestamp).
fn pick_time(rng: &mut SimRng, now: SimTime) -> SimTime {
    let base = now.as_nanos();
    match rng.index(8) {
        // Same-timestamp burst fodder: exactly `now`.
        0 => SimTime::from_nanos(base),
        // Causality clamp: strictly in the past (when possible).
        1 => SimTime::from_nanos(base.saturating_sub(1 + rng.next_u64() % 1_000_000)),
        // First-level slots (< 64 ns).
        2 => SimTime::from_nanos(base + rng.next_u64() % 64),
        // Mid-level slots (up to ~4 µs .. ~17 min across levels).
        3 => SimTime::from_nanos(base + rng.next_u64() % 4_096),
        4 => SimTime::from_nanos(base + rng.next_u64() % 1_000_000_000),
        5 => SimTime::from_nanos(base + rng.next_u64() % (1 << 40)),
        // Beyond the wheel span (2^42 ns): lands in the overflow heap.
        6 => SimTime::from_nanos(base + (1 << 42) + rng.next_u64() % (1 << 44)),
        // Far future: deep overflow, later demoted back into the wheel.
        _ => SimTime::from_nanos(base.saturating_add(rng.next_u64() % (1 << 50))),
    }
}

/// The main property: under a long randomized interleaving of schedule /
/// cancel / stale-cancel / pop, every observable of the wheel equals the
/// model's, and the final drain yields the same delivery sequence.
#[test]
fn randomized_interleavings_stay_bit_identical() {
    for seed in [0x5eed_0001_u64, 0xdead_beef, 0x0123_4567_89ab_cdef, 42] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        for _ in 0..20_000 {
            let now = lock.wheel.now();
            match rng.index(10) {
                // Scheduling dominates so the queues grow deep enough to
                // keep several wheel levels and the overflow heap populated.
                0..=4 => {
                    let at = pick_time(&mut rng, now);
                    lock.schedule(at);
                }
                5..=7 => lock.pop(),
                8 => {
                    lock.cancel_live(&mut rng);
                }
                _ => lock.cancel_stale(&mut rng),
            }
        }
        lock.drain();
    }
}

/// Interleavings that read `peek_time` only every 97th operation. A peek
/// skips cancelled entries at the head of the dispatch batch, so when one
/// runs after every operation `pop` never meets such an entry. Here bursts
/// at one instant stage multi-event batches, events due next are cancelled
/// out of them, and `pop` must skip the holes itself.
#[test]
fn unpeeked_interleavings_stay_bit_identical() {
    for seed in [0x0c01d_u64, 0xfeed_f00d] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        lock.peek = false;
        for op in 0..20_000 {
            let now = lock.wheel.now();
            match rng.index(8) {
                0 | 1 if lock.live.len() < 64 => {
                    let at = SimTime::from_nanos(now.as_nanos() + rng.next_u64() % 200);
                    for _ in 0..1 + rng.index(5) {
                        lock.schedule(at);
                    }
                }
                2 if lock.live.len() < 64 => {
                    let at = pick_time(&mut rng, now);
                    lock.schedule(at);
                }
                3 | 4 => {
                    lock.cancel_due(&mut rng);
                }
                5 => lock.cancel_stale(&mut rng),
                _ => lock.pop(),
            }
            if op % 97 == 0 {
                lock.check_peek("a run of unpeeked operations");
            }
        }
        lock.peek = true;
        lock.drain();
    }
}

/// Same-timestamp bursts: many events at one instant must come back in FIFO
/// scheduling order (the wheel's batched dispatch must not reorder ties),
/// including when cancellations punch holes in the batch.
#[test]
fn same_timestamp_bursts_preserve_fifo_order() {
    let seed = 0xba7c4_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for round in 0..200u64 {
        let at = SimTime::from_nanos(lock.wheel.now().as_nanos() + rng.next_u64() % 10_000);
        let burst = 2 + rng.index(30);
        for _ in 0..burst {
            lock.schedule(at);
        }
        // Punch a few holes, then deliver the whole batch.
        for _ in 0..rng.index(3) {
            lock.cancel_live(&mut rng);
        }
        for _ in 0..burst {
            lock.pop();
        }
        // Every few rounds, fully drain to restart from an empty queue.
        if round % 31 == 0 {
            lock.drain();
        }
    }
    lock.drain();
}

/// Causality clamping: events scheduled into the past are delivered at the
/// queue's current time, in scheduling order.
#[test]
fn past_timestamps_clamp_identically() {
    let seed = 0xc1a_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    // Advance the clock to a non-zero time first.
    lock.schedule(SimTime::from_micros(5));
    lock.pop();
    for _ in 0..2_000 {
        let now = lock.wheel.now().as_nanos();
        let at = SimTime::from_nanos(now.saturating_sub(rng.next_u64() % 10_000_000));
        lock.schedule(at);
        if rng.chance(0.5) {
            lock.pop();
        }
    }
    lock.drain();
}

/// Cancel/rearm churn at a bounded queue depth: slab slots are recycled many
/// times over, so stale ids from long ago must keep reporting `false` (the
/// generation tag does its job) while the wheel keeps matching the model.
#[test]
fn cancel_rearm_churn_recycles_slots_identically() {
    let seed = 0x5ab_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..5_000 {
        let now = lock.wheel.now();
        if lock.live.len() < 16 {
            let at = pick_time(&mut rng, now);
            lock.schedule(at);
        } else {
            lock.cancel_live(&mut rng);
        }
        match rng.index(4) {
            0 => lock.pop(),
            1 => lock.cancel_stale(&mut rng),
            _ => {}
        }
    }
    lock.drain();
}

/// Same-instant work, the wheel's lane: handlers scheduling at exactly
/// `now` from inside a multi-event batch, past timestamps clamped to `now`,
/// chains of same-instant rounds, and cancels of live and stale lane ids
/// (events scheduled at `now` since the clock last moved), interleaved with
/// future bursts so wheel batches and lane rounds alternate.
#[test]
fn same_instant_work_stays_bit_identical() {
    for seed in [0x1a4e_u64, 0x5a3e_1a4e, 7] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        // Payloads scheduled at the current instant (lane events), and the
        // ids of the most recent lane events for stale-cancel probes.
        let mut lane: Vec<u64> = Vec::new();
        let mut lane_ids: Vec<(u64, (EventId, Key))> = Vec::new();
        for _ in 0..30_000 {
            let now = lock.wheel.now();
            let at = match rng.index(14) {
                // Zero-delay signals, and past timestamps clamped to `now`.
                0..=2 => Some(now),
                3 => Some(SimTime::from_nanos(
                    now.as_nanos().saturating_sub(1 + rng.next_u64() % 5_000),
                )),
                // A future burst at one timestamp: a multi-event wheel batch
                // that later same-instant schedules land inside.
                4 => {
                    let at = SimTime::from_nanos(now.as_nanos() + 1 + rng.next_u64() % 3_000);
                    for _ in 0..1 + rng.index(4) {
                        lock.schedule(at);
                    }
                    None
                }
                5..=9 => {
                    lock.pop();
                    if lock.wheel.now() != now {
                        lane.clear();
                    }
                    None
                }
                10 | 11 => {
                    lane.retain(|p| lock.live.contains_key(p));
                    if !lane.is_empty() {
                        let payload = lane.swap_remove(rng.index(lane.len()));
                        lock.cancel_payload(payload);
                    }
                    None
                }
                12 => {
                    lock.cancel_live(&mut rng);
                    None
                }
                _ => {
                    // A lane id that was delivered or cancelled stays dead.
                    let stale: Vec<_> = lane_ids
                        .iter()
                        .filter(|(p, _)| !lock.live.contains_key(p))
                        .map(|&(_, ids)| ids)
                        .collect();
                    if !stale.is_empty() {
                        let (w, m) = stale[rng.index(stale.len())];
                        let (cw, cm) = (lock.wheel.cancel(w), lock.model.cancel(m));
                        assert_eq!((cw, cm), (false, false), "stale lane id (seed {seed})");
                        lock.check_observables("cancel_stale_lane");
                    }
                    None
                }
            };
            if let Some(at) = at {
                let payload = lock.schedule(at);
                lane.push(payload);
                if lane_ids.len() >= 64 {
                    lane_ids.remove(0);
                }
                lane_ids.push((payload, lock.live[&payload]));
            }
        }
        lock.drain();
    }
}

/// Long same-instant chains: many rounds at one instant, each delivery
/// scheduling zero to two successors there, with live lane cancels mixed
/// in, so the lane drops spent rounds mid-instant while the wheel keeps
/// matching the model.
#[test]
fn long_same_instant_chains_stay_bit_identical() {
    let seed = 0xc4a1_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..20 {
        let now = lock.wheel.now();
        let mut lane: Vec<u64> = (0..1 + rng.index(8)).map(|_| lock.schedule(now)).collect();
        lock.schedule(SimTime::from_nanos(
            now.as_nanos() + 1 + rng.next_u64() % 100,
        ));
        for _ in 0..2_000 {
            if lock.wheel.now() != now {
                break;
            }
            lock.pop();
            for _ in 0..rng.index(3) {
                lane.push(lock.schedule(now));
            }
            if rng.chance(0.1) {
                lane.retain(|p| lock.live.contains_key(p));
                if !lane.is_empty() {
                    let payload = lane.swap_remove(rng.index(lane.len()));
                    lock.cancel_payload(payload);
                }
            }
        }
    }
    lock.drain();
}

/// Times on the edges of the cursor's aligned spans. An entry's wheel level
/// is the highest bit in which its time differs from the cursor's, so an
/// event one nanosecond past the end of the current aligned 64^k ns span
/// goes a level up (past the 2^42 ns span, to the overflow heap) although
/// it is close, and one nanosecond earlier stays a level down.
#[test]
fn aligned_span_edges_stay_bit_identical() {
    let seed = 0xed6e_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..4_000 {
        let span_end = lock.wheel.now().as_nanos() | ((1 << (6 * (1 + rng.index(7)))) - 1);
        let at = (span_end + rng.index(3) as u64).saturating_sub(1);
        lock.schedule(SimTime::from_nanos(at));
        if rng.chance(0.45) {
            lock.pop();
        }
        if rng.chance(0.1) {
            lock.cancel_live(&mut rng);
        }
    }
    lock.drain();
}

/// The overflow heap under churn: most events lie past the wheel's span,
/// the next one due is often cancelled (a dead reference on top of the
/// heap, and a rebuild once dead references outnumber live ones), and pops
/// carry the cursor into later top-level spans, migrating the heap's due
/// entries into the wheel.
#[test]
fn overflow_heap_churn_stays_bit_identical() {
    let seed = 0x0f10_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..8_000 {
        let now = lock.wheel.now().as_nanos();
        let spans = 1 + rng.next_u64() % 4;
        match rng.index(8) {
            0..=3 => {
                let at = now + spans * (1 << 42) + rng.next_u64() % (1 << 42);
                lock.schedule(SimTime::from_nanos(at));
            }
            4 => {
                lock.cancel_due(&mut rng);
            }
            5 => {
                lock.cancel_live(&mut rng);
            }
            6 => lock.pop(),
            _ => lock.cancel_stale(&mut rng),
        }
    }
    lock.drain();
}

/// The end of simulated time: events at and just below `SimTime::MAX`,
/// reached through the overflow heap and from within the last wheel span,
/// ties at `MAX`, and, once the clock stands at `MAX`, schedules clamped to
/// it.
#[test]
fn timestamps_at_the_end_of_time_stay_bit_identical() {
    let seed = 0xe0d_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..4_000 {
        let before_end = [0, 64, 1 << 42, 1 << 50][rng.index(4)];
        let at = u64::MAX - rng.next_u64() % (before_end + 1);
        lock.schedule(SimTime::from_nanos(at));
        if rng.chance(0.4) {
            lock.pop();
        }
        if rng.chance(0.1) {
            lock.cancel_live(&mut rng);
        }
    }
    lock.schedule(SimTime::MAX);
    lock.drain();
    assert_eq!(lock.wheel.now(), SimTime::MAX);
    for _ in 0..200 {
        lock.schedule(SimTime::from_nanos(rng.next_u64()));
        if rng.chance(0.5) {
            lock.pop();
        }
    }
    lock.drain();
}

/// Emptying and restarting: `pop` on an empty queue returns `None` and
/// leaves the clock alone, ids from before a drain stay dead, and the first
/// events after a drain (at the last instant, near it, or past the wheel's
/// span) restart the wheel from wherever its cursor was left.
#[test]
fn drained_queues_restart_bit_identically() {
    let seed = 0xd2a1_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..500 {
        for _ in 0..rng.index(12) {
            let now = lock.wheel.now();
            lock.schedule(pick_time(&mut rng, now));
        }
        if rng.chance(0.3) {
            lock.cancel_live(&mut rng);
        }
        lock.drain();
        lock.pop();
        lock.cancel_stale(&mut rng);
    }
}

/// Ties that reach one dispatch batch by different routes. Events for one
/// instant `t` are scheduled while the clock steps towards it, so the early
/// ones wait in the overflow heap or an upper level and cascade down while
/// the late ones go straight to a low level: the batch mixes insertion
/// passes and must be put back into scheduling order.
#[test]
fn ties_arriving_by_every_route_stay_bit_identical() {
    let seed = 0x7e5_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..300 {
        let now = lock.wheel.now().as_nanos();
        let t = now + 2 + rng.next_u64() % (1 << 44);
        let mut gap = t - now;
        while gap > 1 {
            for _ in 0..1 + rng.index(3) {
                lock.schedule(SimTime::from_nanos(t));
            }
            if rng.chance(0.2) {
                lock.cancel_live(&mut rng);
            }
            // A stepping stone between the clock and `t`, delivered next.
            gap = 1 + rng.next_u64() % (gap - 1);
            lock.schedule(SimTime::from_nanos(t - gap));
            lock.pop();
        }
        lock.drain();
    }
}

/// The opt-in per-kind profiler agrees with counts kept beside the model:
/// every schedule, delivery and successful cancel is counted once under its
/// payload's kind, whether the event sat in the wheel, the overflow heap, a
/// staged batch or the same-instant lane, and failed cancels count nothing.
#[test]
fn kind_profile_counts_match_the_model() {
    let kind = |payload: u64| (payload % 3) as usize;
    let seed = 0x9f0_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    lock.wheel.enable_profile(3, move |&payload| kind(payload));
    let mut rows = [KindCounters::default(); 3];
    for op in 0..20_000 {
        let now = lock.wheel.now();
        let at = match rng.index(12) {
            0..=2 => vec![pick_time(&mut rng, now)],
            3 => vec![now],
            // A burst at one future instant: a multi-event staged batch.
            4 => vec![
                SimTime::from_nanos(now.as_nanos() + 1 + rng.next_u64() % 3_000);
                1 + rng.index(4)
            ],
            _ => Vec::new(),
        };
        for at in at {
            rows[kind(lock.schedule(at))].scheduled += 1;
        }
        let cancelled = match rng.index(12) {
            0 | 1 => lock.cancel_live(&mut rng),
            2 => lock.cancel_due(&mut rng),
            _ => None,
        };
        if let Some(payload) = cancelled {
            rows[kind(payload)].cancelled += 1;
        }
        if op % 2 == 0 {
            if let Some((_, &payload)) = lock.model.pending.first_key_value() {
                rows[kind(payload)].dispatched += 1;
            }
            lock.pop();
        } else if op % 5 == 0 {
            lock.cancel_stale(&mut rng);
        }
        assert_eq!(lock.wheel.kind_counters(), Some(&rows[..]), "seed {seed}");
    }
    let c = lock.wheel.counters();
    let sum = |field: fn(&KindCounters) -> u64| rows.iter().map(field).sum::<u64>();
    assert_eq!(
        (c.scheduled, c.dispatched, c.cancelled),
        (
            sum(|r| r.scheduled),
            sum(|r| r.dispatched),
            sum(|r| r.cancelled)
        )
    );
}
