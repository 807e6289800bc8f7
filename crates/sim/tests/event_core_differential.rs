//! Differential test suite for the event core: the production timer-wheel
//! [`EventQueue`] against the reference binary-heap [`HeapEventQueue`],
//! driven in lockstep through randomized interleavings of every queue
//! operation.
//!
//! The two implementations promise the *same delivery contract* (see
//! `src/engine/mod.rs`): non-decreasing timestamps, FIFO tie-break by
//! scheduling order, O(1) cancellation with exact `bool` results, and
//! causality clamping of past timestamps to the queue's current time. Each
//! scenario here applies an identical operation sequence to both queues and
//! asserts every observable — popped `(time, payload)` pairs, `peek_time`,
//! `len`, `now`, `delivered`, `cancel` return values — stays bit-identical
//! throughout, so any behavioural drift in the wheel (cursor advance,
//! overflow-heap demotion, slab reuse, batch staging) is caught at the exact
//! operation that introduced it.
//!
//! Randomness comes from the crate's own deterministic xoshiro streams
//! ([`SimRng`]), so every failure reproduces from the seed printed in the
//! assertion message.

use apc_sim::engine::{EventId, EventQueue, HeapEventId, HeapEventQueue};
use apc_sim::rng::SimRng;
use apc_sim::SimTime;

use std::collections::HashMap;

/// Drives both queues through one identical operation and checks every
/// observable the operation exposes.
struct Lockstep {
    wheel: EventQueue<u64>,
    heap: HeapEventQueue<u64>,
    /// Live (not yet popped or cancelled) events by payload.
    live: HashMap<u64, (EventId, HeapEventId)>,
    /// A bounded pool of dead ids for stale-cancel probes.
    dead: Vec<(EventId, HeapEventId)>,
    next_payload: u64,
    seed: u64,
}

impl Lockstep {
    fn new(seed: u64) -> Self {
        Lockstep {
            wheel: EventQueue::new(),
            heap: HeapEventQueue::new(),
            live: HashMap::new(),
            dead: Vec::new(),
            next_payload: 0,
            seed,
        }
    }

    fn schedule(&mut self, at: SimTime) -> u64 {
        let payload = self.next_payload;
        self.next_payload += 1;
        let w = self.wheel.schedule(at, payload);
        let h = self.heap.schedule(at, payload);
        self.live.insert(payload, (w, h));
        self.check_observables("schedule");
        payload
    }

    fn pop(&mut self) {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(
            w, h,
            "pop diverged (seed {}): wheel {w:?} vs heap {h:?}",
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

    fn cancel_live(&mut self, rng: &mut SimRng) {
        if self.live.is_empty() {
            return;
        }
        // Deterministic pick: order the live payloads, then index.
        let mut payloads: Vec<u64> = self.live.keys().copied().collect();
        payloads.sort_unstable();
        self.cancel_payload(payloads[rng.index(payloads.len())]);
    }

    /// Cancels the live event carrying `payload`.
    fn cancel_payload(&mut self, payload: u64) {
        let (w, h) = self
            .live
            .remove(&payload)
            .expect("cancelling a live payload");
        let cw = self.wheel.cancel(w);
        let ch = self.heap.cancel(h);
        assert_eq!(
            cw, ch,
            "live-cancel result diverged (seed {}): wheel {cw} vs heap {ch}",
            self.seed
        );
        assert!(
            cw,
            "cancelling a live event must succeed (seed {})",
            self.seed
        );
        self.push_dead((w, h));
        self.check_observables("cancel_live");
    }

    fn cancel_stale(&mut self, rng: &mut SimRng) {
        if self.dead.is_empty() {
            return;
        }
        let (w, h) = self.dead[rng.index(self.dead.len())];
        let cw = self.wheel.cancel(w);
        let ch = self.heap.cancel(h);
        assert_eq!(
            cw, ch,
            "stale-cancel result diverged (seed {}): wheel {cw} vs heap {ch}",
            self.seed
        );
        assert!(
            !cw,
            "cancelling a dead event must report false (seed {})",
            self.seed
        );
        self.check_observables("cancel_stale");
    }

    fn push_dead(&mut self, ids: (EventId, HeapEventId)) {
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
            self.heap.len(),
            "len diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.is_empty(),
            self.heap.is_empty(),
            "is_empty diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.now(),
            self.heap.now(),
            "now diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.delivered(),
            self.heap.delivered(),
            "delivered diverged after {op} (seed {seed})"
        );
        assert_eq!(
            self.wheel.peek_time(),
            self.heap.peek_time(),
            "peek_time diverged after {op} (seed {seed})"
        );
    }

    fn drain(&mut self) {
        while !self.wheel.is_empty() || !self.heap.is_empty() {
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
/// cancel / stale-cancel / pop, every observable of the two queues stays
/// bit-identical, and the final drain yields the same delivery sequence.
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
                8 => lock.cancel_live(&mut rng),
                _ => lock.cancel_stale(&mut rng),
            }
        }
        lock.drain();
    }
}

/// Same-timestamp bursts: many events at one instant must come back in FIFO
/// scheduling order from both queues (the wheel's batched dispatch must not
/// reorder ties), including when cancellations punch holes in the batch.
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
/// queue's current time, in scheduling order, identically by both queues.
#[test]
fn past_timestamps_clamp_identically() {
    let seed = 0xc1a_u64;
    let mut rng = SimRng::from_seed(seed);
    let mut lock = Lockstep::new(seed);
    // Advance both queues to a non-zero time first.
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
/// generation tag does its job) while the queues stay observably identical.
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
        let mut lane_ids: Vec<(u64, (EventId, HeapEventId))> = Vec::new();
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
                        let (w, h) = stale[rng.index(stale.len())];
                        let (cw, ch) = (lock.wheel.cancel(w), lock.heap.cancel(h));
                        assert_eq!((cw, ch), (false, false), "stale lane id (seed {seed})");
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
/// in, so the lane drops spent rounds mid-instant while both queues stay
/// observably identical.
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
