//! Differential test suite for the event core: the calendar [`EventQueue`]
//! against [`Model`], a model of its delivery contract, driven in lockstep
//! through randomized interleavings of every queue operation.
//!
//! The contract (see `src/engine/mod.rs`) is: non-decreasing timestamps,
//! FIFO tie-break by scheduling order, causality clamping of past timestamps
//! to the last delivered instant, and `pop_before(h)` delivering exactly
//! what `pop` would when that event is due before `h`, and nothing
//! otherwise. The model states it directly as an ordered map keyed by
//! `(clamped time, scheduling sequence)`. Each scenario here applies an
//! identical operation sequence to the queue and the model and asserts
//! every observable — popped `(time, payload)` pairs, `peek_time`, `len`,
//! `is_empty`, `now`, `delivered` — stays identical throughout, so any
//! behavioural drift in the queue (slot staging, run insertion, far-heap
//! migration, node reuse, the same-instant lane) is caught at the exact
//! operation that introduced it.
//!
//! Randomness comes from the crate's own deterministic xoshiro streams
//! ([`SimRng`]), so every failure reproduces from the seed printed in the
//! assertion message.

use apc_sim::engine::{EventQueue, KindCounters};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;

use std::collections::BTreeMap;

/// Width of a calendar slot and the calendar's span, in nanoseconds: the
/// edges the queue's placement decisions turn on.
const SLOT_NS: u64 = 1 << 10;
const SPAN_NS: u64 = 4_096 * SLOT_NS;

/// A model event's identity: its clamped delivery time and scheduling
/// sequence number, which is also its place in the delivery order.
type Key = (SimTime, u64);

/// The delivery contract as an ordered map from [`Key`] to payload: the
/// first key is the next event to deliver, and a key leaves the map exactly
/// once, when its event is delivered.
#[derive(Default)]
struct Model {
    pending: BTreeMap<Key, u64>,
    next_seq: u64,
    /// The last delivered instant.
    now: SimTime,
    delivered: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        let key = (at.max(self.now), self.next_seq);
        self.next_seq += 1;
        self.pending.insert(key, payload);
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((time, _), payload) = self.pending.pop_first()?;
        self.now = time;
        self.delivered += 1;
        Some((time, payload))
    }

    fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_time()? >= horizon {
            return None;
        }
        self.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(time, _), _)| time)
    }
}

/// Drives the queue and the model through one identical operation and
/// checks every observable the operation exposes.
struct Lockstep {
    queue: EventQueue<u64>,
    model: Model,
    next_payload: u64,
    seed: u64,
}

impl Lockstep {
    fn new(seed: u64) -> Self {
        Lockstep {
            queue: EventQueue::new(),
            model: Model::default(),
            next_payload: 0,
            seed,
        }
    }

    fn now(&self) -> SimTime {
        self.queue.now()
    }

    fn schedule(&mut self, at: SimTime) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        self.queue.schedule(at, payload);
        self.model.schedule(at, payload);
        self.check_observables("schedule");
        payload
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let q = self.queue.pop();
        let m = self.model.pop();
        self.compare("pop", q, m)
    }

    /// Pops through `pop_before(horizon)`.
    fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, u64)> {
        let q = self.queue.pop_before(horizon);
        let m = self.model.pop_before(horizon);
        self.compare("pop_before", q, m)
    }

    /// Pops everything due before `horizon`, as `Simulation::run_until`
    /// does, and returns how many events that was.
    fn run_until(&mut self, horizon: SimTime) -> usize {
        let mut n = 0;
        while self.pop_before(horizon).is_some() {
            n += 1;
        }
        if let Some(next) = self.queue.peek_time() {
            assert!(
                next >= horizon,
                "run_until stopped early (seed {})",
                self.seed
            );
        }
        n
    }

    fn compare(
        &mut self,
        op: &str,
        q: Option<(SimTime, u64)>,
        m: Option<(SimTime, u64)>,
    ) -> Option<(SimTime, u64)> {
        assert_eq!(
            q, m,
            "{op} diverged (seed {}): queue {q:?} vs model {m:?}",
            self.seed
        );
        self.check_observables(op);
        q
    }

    fn check_observables(&self, op: &str) {
        let seed = self.seed;
        assert_eq!(
            self.queue.len(),
            self.model.pending.len(),
            "len diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.queue.is_empty(),
            self.model.pending.is_empty(),
            "is_empty diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.queue.now(),
            self.model.now,
            "now diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.queue.delivered(),
            self.model.delivered,
            "delivered diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.queue.peek_time(),
            self.model.peek_time(),
            "peek_time diverged after {op} (seed {seed})"
        );
    }

    fn drain(&mut self) {
        while !self.queue.is_empty() || !self.model.pending.is_empty() {
            self.pop();
        }
    }
}

/// Picks a schedule timestamp that exercises every placement class the
/// queue has: the current instant (the lane), the staged slot, the
/// calendar, the far heap, and the causality clamp (a past timestamp).
fn pick_time(rng: &mut SimRng, now: SimTime) -> SimTime {
    let base = now.as_nanos();
    match rng.index(8) {
        // Same-timestamp burst fodder: exactly `now`.
        0 => SimTime::from_nanos(base),
        // Causality clamp: strictly in the past (when possible).
        1 => SimTime::from_nanos(base.saturating_sub(1 + rng.next_u64() % 1_000_000)),
        // Within a slot or two of `now`.
        2 => SimTime::from_nanos(base + rng.next_u64() % 64),
        3 => SimTime::from_nanos(base + rng.next_u64() % 4_096),
        // Across the calendar's span, and well past it.
        4 => SimTime::from_nanos(base + rng.next_u64() % 1_000_000_000),
        5 => SimTime::from_nanos(base + rng.next_u64() % (1 << 40)),
        // Past the 2^42 ns overflow-counter horizon.
        6 => SimTime::from_nanos(base + (1 << 42) + rng.next_u64() % (1 << 44)),
        // Far future: deep in the far heap, later migrated into the calendar.
        _ => SimTime::from_nanos(base.saturating_add(rng.next_u64() % (1 << 50))),
    }
}

/// The main property: under a long randomized interleaving of schedule /
/// pop / horizon-bounded pop, every observable of the queue equals the
/// model's, and the final drain yields the same delivery sequence.
#[test]
fn randomized_interleavings_stay_bit_identical() {
    for seed in [0x5eed_0001_u64, 0xdead_beef, 0x0123_4567_89ab_cdef, 42] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        for _ in 0..20_000 {
            let now = lock.now();
            match rng.index(10) {
                // Scheduling dominates so the queue grows deep enough to
                // keep the calendar and the far heap populated.
                0..=4 => {
                    let at = pick_time(&mut rng, now);
                    lock.schedule(at);
                }
                5..=7 => {
                    lock.pop();
                }
                _ => {
                    let horizon = pick_time(&mut rng, now);
                    lock.pop_before(horizon);
                }
            }
        }
        lock.drain();
    }
}

/// Bursts at one instant a few hundred nanoseconds ahead, at a bounded
/// depth: multi-event groups staged together, with schedules landing in
/// the staged slot between their deliveries.
#[test]
fn burst_interleavings_stay_bit_identical() {
    for seed in [0x0c01d_u64, 0xfeed_f00d] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        for _ in 0..20_000 {
            let now = lock.now();
            match rng.index(8) {
                0 | 1 if lock.queue.len() < 64 => {
                    let at = SimTime::from_nanos(now.as_nanos() + rng.next_u64() % 200);
                    for _ in 0..1 + rng.index(5) {
                        lock.schedule(at);
                    }
                }
                2 if lock.queue.len() < 64 => {
                    let at = pick_time(&mut rng, now);
                    lock.schedule(at);
                }
                3 => {
                    let horizon = SimTime::from_nanos(now.as_nanos() + rng.next_u64() % 300);
                    lock.pop_before(horizon);
                }
                _ => {
                    lock.pop();
                }
            }
        }
        lock.drain();
    }
}

/// Same-timestamp bursts: many events at one instant must come back in FIFO
/// scheduling order (group delivery must not reorder ties).
#[test]
fn same_timestamp_bursts_preserve_fifo_order() {
    let seed = 0xba7c4_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for round in 0..200u64 {
        let at = SimTime::from_nanos(lock.now().as_nanos() + rng.next_u64() % 10_000);
        let burst = 2 + rng.index(30);
        for _ in 0..burst {
            lock.schedule(at);
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
        let now = lock.now().as_nanos();
        let at = SimTime::from_nanos(now.saturating_sub(rng.next_u64() % 10_000_000));
        lock.schedule(at);
        if rng.chance(0.5) {
            lock.pop();
        }
    }
    lock.drain();
}

/// Churn at a bounded depth: calendar nodes are freed and reused many times
/// over while the queue keeps matching the model.
#[test]
fn bounded_depth_churn_reuses_nodes_identically() {
    let seed = 0x5ab_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..5_000 {
        let now = lock.now();
        if lock.queue.len() < 16 {
            let at = pick_time(&mut rng, now);
            lock.schedule(at);
        } else {
            lock.pop();
        }
        if rng.index(4) == 0 {
            lock.pop();
        }
    }
    lock.drain();
}

/// Same-instant work, the lane: handlers scheduling at exactly `now` from
/// inside a multi-event group, past timestamps clamped to `now`, and chains
/// of same-instant rounds, interleaved with future bursts so groups and lane
/// rounds alternate, and with horizon-bounded pops that stop at `now`.
#[test]
fn same_instant_work_stays_bit_identical() {
    for seed in [0x1a4e_u64, 0x5a3e_1a4e, 7] {
        let mut rng = SimRng::from_seed(seed);
        let mut lock = Lockstep::new(seed);
        for _ in 0..30_000 {
            let now = lock.now();
            match rng.index(14) {
                // Zero-delay signals, and past timestamps clamped to `now`.
                0..=2 => {
                    lock.schedule(now);
                }
                3 => {
                    lock.schedule(SimTime::from_nanos(
                        now.as_nanos().saturating_sub(1 + rng.next_u64() % 5_000),
                    ));
                }
                // A future burst at one timestamp: a multi-event group that
                // later same-instant schedules land behind.
                4 => {
                    let at = SimTime::from_nanos(now.as_nanos() + 1 + rng.next_u64() % 3_000);
                    for _ in 0..1 + rng.index(4) {
                        lock.schedule(at);
                    }
                }
                5..=9 => {
                    lock.pop();
                }
                // A horizon at `now` delivers nothing; one just past it
                // delivers the instant's remaining events one at a time.
                10 => {
                    lock.pop_before(now);
                }
                11 | 12 => {
                    lock.pop_before(SimTime::from_nanos(now.as_nanos() + 1));
                }
                _ => {
                    let at = pick_time(&mut rng, now);
                    lock.schedule(at);
                }
            }
        }
        lock.drain();
    }
}

/// Long same-instant chains: many rounds at one instant, each delivery
/// scheduling zero to two successors there, so the lane runs many rounds
/// while the queue keeps matching the model.
#[test]
fn long_same_instant_chains_stay_bit_identical() {
    let seed = 0xc4a1_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..20 {
        let now = lock.now();
        for _ in 0..1 + rng.index(8) {
            lock.schedule(now);
        }
        lock.schedule(SimTime::from_nanos(
            now.as_nanos() + 1 + rng.next_u64() % 100,
        ));
        for _ in 0..2_000 {
            if lock.now() != now {
                break;
            }
            lock.pop();
            for _ in 0..rng.index(3) {
                lock.schedule(now);
            }
        }
    }
    lock.drain();
}

/// Times on the edges of aligned spans: a slot (2^10 ns), the calendar's
/// span (2^22 ns), the overflow counter's 2^42 ns, and the 64^k ns spans of
/// the retired timer wheel. One nanosecond either side of an edge takes a
/// different placement decision.
#[test]
fn aligned_span_edges_stay_bit_identical() {
    let seed = 0xed6e_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..4_000 {
        let bits = [6, 10, 12, 18, 22, 24, 30, 36, 42][rng.index(9)];
        let span_end = lock.now().as_nanos() | ((1 << bits) - 1);
        let at = (span_end + rng.index(3) as u64).saturating_sub(1);
        lock.schedule(SimTime::from_nanos(at));
        if rng.chance(0.45) {
            lock.pop();
        }
    }
    lock.drain();
}

/// The far heap under churn: most events lie past the calendar's span, and
/// pops carry the clock into later spans, migrating the heap's due entries
/// into the calendar (or straight into the staged run).
#[test]
fn far_heap_churn_stays_bit_identical() {
    let seed = 0x0f10_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..8_000 {
        let now = lock.now().as_nanos();
        match rng.index(8) {
            0..=3 => {
                let spans = 1 + rng.next_u64() % 4;
                let unit = [SPAN_NS, 1 << 42][rng.index(2)];
                let at = now + spans * unit + rng.next_u64() % unit;
                lock.schedule(SimTime::from_nanos(at));
            }
            4 => {
                let at = now + rng.next_u64() % (2 * SPAN_NS);
                lock.schedule(SimTime::from_nanos(at));
            }
            5 | 6 => {
                lock.pop();
            }
            _ => {
                let horizon = now + rng.next_u64() % (4 * SPAN_NS);
                lock.pop_before(SimTime::from_nanos(horizon));
            }
        }
    }
    lock.drain();
}

/// Far events migrating across an empty calendar: the clock jumps whole
/// spans to the far heap's earliest event, which is staged with every far
/// event of its slot, while the rest of the new span moves into the
/// calendar; schedules between the jumps land in every structure.
#[test]
fn far_heap_migrates_across_an_empty_span() {
    let seed = 0x0e3d_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..300 {
        let now = lock.now().as_nanos();
        let jump = now + SPAN_NS * (1 + rng.next_u64() % 1_000);
        for _ in 0..1 + rng.index(12) {
            // The target slot, the rest of the new span, and beyond it.
            let offset = match rng.index(3) {
                0 => rng.next_u64() % SLOT_NS,
                1 => rng.next_u64() % SPAN_NS,
                _ => rng.next_u64() % (3 * SPAN_NS),
            };
            lock.schedule(SimTime::from_nanos(jump + offset));
        }
        lock.pop();
        for _ in 0..rng.index(4) {
            let at = pick_time(&mut rng, lock.now());
            lock.schedule(at);
        }
        for _ in 0..rng.index(6) {
            lock.pop();
        }
    }
    lock.drain();
}

/// The end of simulated time: events at and just below `SimTime::MAX`,
/// reached through the far heap and from within the last span, ties at
/// `MAX`, and, once the clock stands at `MAX`, schedules clamped to it.
#[test]
fn timestamps_at_the_end_of_time_stay_bit_identical() {
    let seed = 0xe0d_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..4_000 {
        let before_end = [0, 64, SLOT_NS, SPAN_NS, 1 << 42, 1 << 50][rng.index(6)];
        let at = u64::MAX - rng.next_u64() % (before_end + 1);
        lock.schedule(SimTime::from_nanos(at));
        if rng.chance(0.4) {
            lock.pop();
        }
        if rng.chance(0.1) {
            lock.pop_before(SimTime::MAX);
        }
    }
    lock.schedule(SimTime::MAX);
    lock.drain();
    assert_eq!(lock.now(), SimTime::MAX);
    for _ in 0..200 {
        lock.schedule(SimTime::from_nanos(rng.next_u64()));
        if rng.chance(0.5) {
            lock.pop();
        }
    }
    lock.drain();
}

/// Emptying and restarting: `pop` on an empty queue returns `None` and
/// leaves the clock alone, and the first events after a drain (at the last
/// instant, inside the slot of `now`, near it, or past the calendar's span)
/// restart the queue from wherever its window was left.
#[test]
fn drained_queues_restart_bit_identically() {
    let seed = 0xd2a1_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..500 {
        for _ in 0..rng.index(12) {
            let now = lock.now();
            let at = if rng.chance(0.3) {
                // Inside the slot the clock stands in.
                SimTime::from_nanos(now.as_nanos() | (rng.next_u64() % SLOT_NS))
            } else {
                pick_time(&mut rng, now)
            };
            lock.schedule(at);
        }
        lock.drain();
        lock.pop();
    }
}

/// Ties that reach one group by different routes. Events for one instant
/// `t` are scheduled while the clock steps towards it, so the early ones
/// wait in the far heap or the calendar and migrate or are staged, while
/// the late ones are inserted into the staged run: the group must still
/// come out in scheduling order.
#[test]
fn ties_arriving_by_every_route_stay_bit_identical() {
    let seed = 0x7e5_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..300 {
        let now = lock.now().as_nanos();
        let t = now + 2 + rng.next_u64() % (1 << 44);
        let mut gap = t - now;
        while gap > 1 {
            for _ in 0..1 + rng.index(3) {
                lock.schedule(SimTime::from_nanos(t));
            }
            // A stepping stone between the clock and `t`, delivered next.
            gap = 1 + rng.next_u64() % (gap - 1);
            lock.schedule(SimTime::from_nanos(t - gap));
            lock.pop();
        }
        lock.drain();
    }
}

/// A boot window as at a 256-node cluster: 2,560 events (ten cores per
/// node) inside the first slots, most of them ties, delivered while each
/// delivery schedules follow-ups into the same window, the lane and later
/// slots.
#[test]
fn a_boot_window_of_2560_events_stays_bit_identical() {
    let seed = 0xb007_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..2_560 {
        let at = [0, 1, 500, 1_000][rng.index(4)];
        lock.schedule(SimTime::from_nanos(at));
    }
    for _ in 0..6_000 {
        let now = lock.now().as_nanos();
        let Some(_) = lock.pop() else { break };
        let at = match rng.index(4) {
            0 => now,
            1 => now + rng.next_u64() % 64,
            2 => now + rng.next_u64() % (4 * SLOT_NS),
            _ => now + rng.next_u64() % SPAN_NS,
        };
        if rng.chance(0.6) {
            lock.schedule(SimTime::from_nanos(at));
        }
    }
    let c = lock.queue.counters();
    assert!(c.max_batch >= 500, "boot ties form large groups: {c:?}");
    lock.drain();
}

/// Many ties in one future slot: bursts of hundreds of events at one or two
/// instants of a slot ahead of the clock, scheduled between earlier and
/// later times of the same slot and followed by more ties after pops, so
/// the slot's list takes tail appends, head inserts and walks from its
/// head while it is delivered.
#[test]
fn many_ties_in_one_future_slot_stay_bit_identical() {
    let seed = 0x7135_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    for _ in 0..40 {
        let slot_start = (lock.now().as_nanos() / SLOT_NS + 1 + rng.next_u64() % 8) * SLOT_NS;
        let instants = [
            slot_start + rng.next_u64() % SLOT_NS,
            slot_start + rng.next_u64() % SLOT_NS,
        ];
        for _ in 0..300 + rng.index(300) {
            let at = match rng.index(10) {
                0 => slot_start + rng.next_u64() % SLOT_NS,
                1..=6 => instants[0],
                _ => instants[1],
            };
            lock.schedule(SimTime::from_nanos(at));
        }
        while lock.queue.len() > 100 {
            lock.pop();
            if rng.chance(0.2) {
                let now = lock.now().as_nanos();
                let at = match rng.index(3) {
                    0 => now,
                    1 => instants[rng.index(2)].max(now),
                    _ => now + rng.next_u64() % SLOT_NS,
                };
                lock.schedule(SimTime::from_nanos(at));
            }
        }
    }
    let c = lock.queue.counters();
    assert!(c.max_batch >= 150, "the ties form large groups: {c:?}");
    lock.drain();
}

/// `run_until` through `pop_before`: an event exactly at the horizon stays
/// queued, schedules made between two runs (into the past, at the horizon,
/// inside the slot staged while looking ahead) are delivered in order by
/// the next run, and a later horizon resumes where the first stopped.
#[test]
fn pop_before_at_the_horizon_then_a_later_run_until() {
    let seed = 0x4021_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    let mut horizon = 0;
    for _ in 0..2_000 {
        horizon += 1 + rng.next_u64() % (3 * SLOT_NS);
        let h = SimTime::from_nanos(horizon);
        for _ in 0..rng.index(6) {
            let at = match rng.index(4) {
                0 => h,
                1 => SimTime::from_nanos(horizon.saturating_sub(rng.next_u64() % (2 * SLOT_NS))),
                2 => SimTime::from_nanos(horizon + rng.next_u64() % (2 * SLOT_NS)),
                _ => pick_time(&mut rng, lock.now()),
            };
            lock.schedule(at);
        }
        lock.run_until(h);
        if rng.chance(0.5) {
            // The horizon again: nothing is due before it.
            assert_eq!(lock.run_until(h), 0, "seed {seed}");
        }
    }
    lock.drain();
}

/// The opt-in per-kind profiler agrees with counts kept beside the model:
/// every schedule and delivery is counted once under its payload's kind,
/// whether the event sat in the calendar, the far heap, the staged run or
/// the same-instant lane.
#[test]
fn kind_profile_counts_match_the_model() {
    let kind = |payload: u64| (payload % 3) as usize;
    let seed = 0x9f0_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    lock.queue.enable_profile(3, move |&payload| kind(payload));
    let mut rows = [KindCounters::default(); 3];
    for op in 0..20_000 {
        let now = lock.now();
        let at = match rng.index(12) {
            0..=2 => vec![pick_time(&mut rng, now)],
            3 => vec![now],
            // A burst at one future instant: a multi-event group.
            4 => vec![
                SimTime::from_nanos(now.as_nanos() + 1 + rng.next_u64() % 3_000);
                1 + rng.index(4)
            ],
            _ => Vec::new(),
        };
        for at in at {
            rows[kind(lock.schedule(at))].scheduled += 1;
        }
        let popped = if op % 2 == 0 {
            lock.pop()
        } else if op % 5 == 0 {
            let horizon = pick_time(&mut rng, now);
            lock.pop_before(horizon)
        } else {
            None
        };
        if let Some((_, payload)) = popped {
            rows[kind(payload)].dispatched += 1;
        }
        assert_eq!(lock.queue.kind_counters(), Some(&rows[..]), "seed {seed}");
    }
    let c = lock.queue.counters();
    let sum = |field: fn(&KindCounters) -> u64| rows.iter().map(field).sum::<u64>();
    assert_eq!(
        (c.scheduled, c.dispatched),
        (sum(|r| r.scheduled), sum(|r| r.dispatched))
    );
}
