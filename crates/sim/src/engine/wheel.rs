//! Hierarchical timer-wheel event queue with slab-backed entries.
//!
//! The simulator's [`EventQueue`] is a Linux-style hierarchical timer wheel.
//! See the `engine` module docs for the delivery contract and
//! `ARCHITECTURE.md` ("Event core") for the design discussion.
//!
//! Structure:
//!
//! * **Levels.** [`LEVELS`] wheel levels of [`SLOTS`] slots each; a level-0
//!   slot spans exactly one nanosecond (one timestamp), level `l` slots span
//!   `64^l` ns, so the wheel covers `64^7` ns ≈ 73 minutes of simulated
//!   future from the wheel cursor. An event at time `t` lives at the level of
//!   the most significant bit in which `t` differs from the cursor — which is
//!   why a slot index, once occupied, is always *ahead* of the cursor's index
//!   at that level and per-level occupancy bitmaps can be scanned with a
//!   single `trailing_zeros`.
//! * **Overflow.** Events beyond the wheel horizon (including
//!   "never"-sentinel timestamps near [`SimTime::MAX`]) go to a small binary
//!   min-heap and migrate into the wheel when the cursor's top-level span
//!   reaches them. Cancelled overflow entries are reaped once they outnumber
//!   live ones, keeping memory O(live).
//! * **Slab.** Entries live in a free-listed slab and are threaded through
//!   wheel buckets as doubly-linked lists of `u32` indices: schedule, cancel
//!   and pop are allocation-free in steady state, and cancellation physically
//!   unlinks the entry in O(1) — no lazy deletion in the wheel itself.
//! * **Batched dispatch.** `pop` drains an entire level-0 slot (all events
//!   sharing one timestamp) into a staging batch sorted by scheduling
//!   sequence number, then hands events out one by one without re-touching
//!   the priority structure.
//! * **Same-instant lane.** An event scheduled at exactly the last delivered
//!   timestamp — a zero-delay signal, or a past timestamp clamped to it —
//!   comes after everything already queued for that instant, and the wheel
//!   holds nothing else for it (all of that is staged). So it skips the
//!   slab and the wheel: it is appended to a FIFO lane that `pop` drains
//!   after the staged batch and before the next refill. The lane is handed
//!   out in rounds, each exactly the batch the level-0 bucket at that
//!   instant would have staged, so the batch counters read as if the bucket
//!   had been used. A lane id is the event's scheduling sequence number
//!   with the top bit set, and cancelling one is a binary search over the
//!   lane.
//!
//! The wheel cursor only advances inside `pop`, immediately before an event
//! is delivered, so a `schedule` between `peek_time` and `pop` can never
//! land behind the cursor: anything earlier than the last *delivered*
//! timestamp is causality-clamped to it, as the delivery contract requires.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the number of slots per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; times within `2^(LEVEL_BITS * LEVELS)` ns of the
/// cursor's aligned span are wheel-resident, everything farther overflows.
const LEVELS: usize = 7;
/// Total bits of simulated time covered by the wheel (42 ⇒ ~73 minutes).
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// Sentinel "null" slab index for bucket links and the free list.
const NIL: u32 = u32::MAX;

/// Slab generations count modulo 2^31, so a slab id never sets the top bit.
const GENERATION_MASK: u32 = u32::MAX >> 1;

/// The top id bit: set on the ids of same-instant lane events.
const LANE_TAG: u64 = 1 << 63;

/// Spent lane entries kept before a new round drops them.
const LANE_SPENT_MAX: usize = 64;

/// Identifier of a scheduled event, used for cancellation.
///
/// The id packs the event's slab slot and a per-slot generation counter, so
/// cancellation is a bounds-checked array access plus a generation compare —
/// no hashing. Within one [`EventQueue`] an id never aliases a different
/// event until a single slab slot has been reused 2^31 times, which no
/// realistic simulation approaches. An event scheduled at the current
/// instant never enters the slab (see the same-instant lane in the module
/// docs): its id is its scheduling sequence number with the top bit set,
/// which never aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// The raw identifier value (mostly useful for logging).
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    const fn pack(generation: u32, index: u32) -> Self {
        EventId(((generation as u64) << 32) | index as u64)
    }

    const fn unpack(self) -> (u32, u32) {
        ((self.0 >> 32) as u32, self.0 as u32)
    }
}

/// Where a slab entry currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// On the free list (not a scheduled event).
    Free,
    /// Linked into wheel bucket `slot` of `level`.
    Wheel { level: u8, slot: u8 },
    /// Referenced by the overflow heap.
    Overflow,
    /// Drained into the current dispatch batch, awaiting delivery.
    Staged,
}

/// One slab-backed event entry.
#[derive(Debug)]
struct Slot<E> {
    time: u64,
    seq: u64,
    /// Bumped (modulo 2^31) every time the slot is freed; ids carry the
    /// generation they were created under, so stale ids (delivered/cancelled
    /// events, or reused slots) are rejected by a single compare.
    generation: u32,
    /// Previous entry in the wheel bucket (NIL at the head).
    prev: u32,
    /// Next entry in the wheel bucket, or next free slot on the free list.
    next: u32,
    loc: Loc,
    payload: Option<E>,
}

/// Overflow-heap reference: `(time, seq)` min-order, pointing back into the
/// slab. Cancels leave stale references behind (detected by generation
/// mismatch) which are reaped once they outnumber live overflow entries.
#[derive(Debug, PartialEq, Eq)]
struct OverflowRef {
    time: u64,
    seq: u64,
    index: u32,
    generation: u32,
}

impl PartialOrd for OverflowRef {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OverflowRef {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to obtain earliest-first ordering.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Always-on self-profiling counters maintained by the queue.
///
/// These are plain monotonic integers incremented alongside existing
/// operations — cheap enough to keep unconditionally, and purely
/// observational: no queue decision reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueCounters {
    /// Events scheduled (every `schedule` call).
    pub scheduled: u64,
    /// Events delivered to `pop` callers.
    pub dispatched: u64,
    /// Events cancelled while still pending.
    pub cancelled: u64,
    /// Level-0 dispatch batches staged by `refill_batch`.
    pub level0_batches: u64,
    /// Events staged through level-0 batches (sum of batch sizes).
    pub batched_events: u64,
    /// Largest single level-0 batch staged.
    pub max_batch: u64,
    /// Schedules that missed the wheel horizon and went to the overflow heap.
    pub overflow_hits: u64,
}

/// Scheduled/dispatched/cancelled counts for one event kind, as classified by
/// the opt-in profiler (see [`EventQueue::enable_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindCounters {
    /// Events of this kind scheduled.
    pub scheduled: u64,
    /// Events of this kind dispatched.
    pub dispatched: u64,
    /// Events of this kind cancelled.
    pub cancelled: u64,
}

/// Opt-in per-event-kind profiler: a caller-supplied classifier plus one
/// counter row per kind.
struct QueueProfile<E> {
    classify: Box<dyn Fn(&E) -> usize>,
    kinds: Vec<KindCounters>,
}

impl<E> QueueProfile<E> {
    fn count(&mut self, payload: &E, bump: impl FnOnce(&mut KindCounters)) {
        let kind = (self.classify)(payload);
        if let Some(row) = self.kinds.get_mut(kind) {
            bump(row);
        }
    }
}

impl<E> std::fmt::Debug for QueueProfile<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueProfile")
            .field("kinds", &self.kinds)
            .finish_non_exhaustive()
    }
}

/// Memory footprint of a queue's backing storage, for tests and diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct QueueFootprint {
    /// Slab slots allocated (live + free-listed).
    pub slab_slots: usize,
    /// Entries physically held by the overflow heap, including cancelled
    /// entries awaiting the reap pass.
    pub overflow_entries: usize,
    /// Entries physically held by the same-instant lane, including
    /// delivered and cancelled ones not yet dropped.
    pub lane_entries: usize,
}

/// A deterministic pending-event queue for discrete-event simulation.
///
/// Events are delivered in non-decreasing timestamp order; ties are broken by
/// scheduling order (FIFO). Internally this is a hierarchical timer wheel
/// plus a same-instant lane (see the module docs): `schedule` and `pop` run
/// in O(1) amortized time, `cancel` in O(1) (O(log n) for an event at the
/// current instant), and none of them allocates in steady state.
///
/// # Examples
///
/// ```
/// use apc_sim::engine::EventQueue;
/// use apc_sim::time::SimTime;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(SimTime::from_nanos(20), "b");
/// queue.schedule(SimTime::from_nanos(10), "a");
/// let id = queue.schedule(SimTime::from_nanos(30), "cancelled");
/// queue.cancel(id);
///
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(20), "b")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// Head of the free list threaded through `Slot::next`.
    free_head: u32,
    /// Per-level occupancy bitmap: bit `s` set ⇔ bucket `s` is non-empty.
    occupied: [u64; LEVELS],
    /// Bucket heads (slab indices) per level and slot.
    buckets: Box<[[u32; SLOTS]; LEVELS]>,
    overflow: BinaryHeap<OverflowRef>,
    /// Stale (cancelled) references still inside `overflow`.
    overflow_dead: usize,
    /// Current dispatch batch: `(seq, index, generation)` of every event at
    /// `batch_time`, sorted by seq. Drained via `batch_pos`.
    batch: Vec<(u64, u32, u32)>,
    batch_pos: usize,
    batch_time: u64,
    /// The same-instant lane: `(seq, payload)` of every event scheduled at
    /// exactly `now`, in scheduling order; the payload is `None` once the
    /// event was delivered or cancelled.
    lane: Vec<(u64, Option<E>)>,
    /// Next lane entry to deliver.
    lane_pos: usize,
    /// End (exclusive) of the lane round being delivered: the entries the
    /// level-0 bucket at `now` would have staged as one batch.
    round_end: usize,
    /// Live lane entries at or after `round_end`: the next round's size.
    lane_pending: usize,
    /// Wheel reference time. Only advances inside `pop`, so schedules
    /// observed between pops can never land behind it (they clamp to `now`,
    /// and `now == cursor` once a batch is being delivered).
    cursor: u64,
    /// Timestamp of the most recently delivered event, in nanoseconds.
    now: u64,
    next_seq: u64,
    live: usize,
    delivered: u64,
    /// Cached next-event timestamp: `None` = stale (recompute on demand),
    /// `Some(None)` = known empty, `Some(Some(t))` = next event at `t`.
    /// Keeps `peek_time` O(1) on the run-loop's peek-then-pop pattern.
    cached_next: Option<Option<u64>>,
    /// Always-on self-profiling counters (`dispatched` mirrors `delivered`).
    counters: QueueCounters,
    /// Opt-in per-event-kind profiler.
    profile: Option<QueueProfile<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue with the clock at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free_head: NIL,
            occupied: [0; LEVELS],
            buckets: Box::new([[NIL; SLOTS]; LEVELS]),
            overflow: BinaryHeap::new(),
            overflow_dead: 0,
            batch: Vec::new(),
            batch_pos: 0,
            batch_time: 0,
            lane: Vec::new(),
            lane_pos: 0,
            round_end: 0,
            lane_pending: 0,
            cursor: 0,
            now: 0,
            next_seq: 0,
            live: 0,
            delivered: 0,
            cached_next: Some(None),
            counters: QueueCounters::default(),
            profile: None,
        }
    }

    /// The timestamp of the most recently delivered event (the current
    /// simulated time from the queue's perspective).
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now)
    }

    /// Number of events delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events currently pending (cancelled events are excluded).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no live events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Self-profiling counter snapshot (`dispatched` equals
    /// [`EventQueue::delivered`]).
    #[must_use]
    pub fn counters(&self) -> QueueCounters {
        QueueCounters {
            dispatched: self.delivered,
            ..self.counters
        }
    }

    /// Enables per-event-kind profiling: `classify` maps every payload to a
    /// kind index in `0..kinds` (out-of-range indices are ignored), and the
    /// queue keeps scheduled/dispatched/cancelled counts per kind. Purely
    /// observational — delivery order and results are unaffected.
    pub fn enable_profile(&mut self, kinds: usize, classify: impl Fn(&E) -> usize + 'static) {
        self.profile = Some(QueueProfile {
            classify: Box::new(classify),
            kinds: vec![KindCounters::default(); kinds],
        });
    }

    /// Per-kind counter rows, if [`EventQueue::enable_profile`] was called.
    #[must_use]
    pub fn kind_counters(&self) -> Option<&[KindCounters]> {
        self.profile.as_ref().map(|p| p.kinds.as_slice())
    }

    /// Backing-storage sizes, for O(live)-memory tests and diagnostics.
    #[must_use]
    pub fn footprint(&self) -> QueueFootprint {
        QueueFootprint {
            slab_slots: self.slab.len(),
            overflow_entries: self.overflow.len(),
            lane_entries: self.lane.len(),
        }
    }

    /// Schedules `payload` for delivery at time `at` and returns a handle
    /// that can be used to cancel it.
    ///
    /// Scheduling an event in the past (before the last delivered event) is a
    /// causality violation; the event is clamped to the current time so that
    /// it is delivered next, which mirrors how hardware would observe a
    /// "should already have happened" condition immediately.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let t = at.as_nanos().max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.counters.scheduled += 1;
        if let Some(p) = &mut self.profile {
            p.count(&payload, |row| row.scheduled += 1);
        }
        self.live += 1;
        if t == self.now {
            self.lane.push((seq, Some(payload)));
            self.lane_pending += 1;
            return EventId(LANE_TAG | seq);
        }
        let index = self.alloc(t, seq, payload);
        let generation = self.slab[index as usize].generation;
        self.place(index, t, seq);
        // A valid cache only needs a min-update; a stale one stays stale.
        if let Some(next) = &mut self.cached_next {
            match next {
                Some(c) => *c = (*c).min(t),
                None => *next = Some(t),
            }
        }
        EventId::pack(generation, index)
    }

    /// Cancels a previously scheduled event in O(1), or in O(log n) for an
    /// event in the same-instant lane.
    ///
    /// Returns `true` if the event was still pending, `false` if it had
    /// already been delivered or cancelled. Wheel-resident entries are
    /// unlinked and freed immediately; overflow entries are freed and their
    /// heap references reaped once dead references outnumber live ones.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 & LANE_TAG != 0 {
            return self.cancel_in_lane(id.0 & !LANE_TAG);
        }
        let (generation, index) = id.unpack();
        let Some(slot) = self.slab.get(index as usize) else {
            return false;
        };
        if slot.generation != generation || slot.loc == Loc::Free {
            return false;
        }
        let time = slot.time;
        self.counters.cancelled += 1;
        if let Some(p) = &mut self.profile {
            if let Some(payload) = slot.payload.as_ref() {
                p.count(payload, |row| row.cancelled += 1);
            }
        }
        match slot.loc {
            Loc::Wheel { level, slot: s } => {
                self.unlink(index, level as usize, s as usize);
            }
            Loc::Overflow => {
                self.overflow_dead += 1;
                if self.overflow_dead * 2 > self.overflow.len() {
                    self.reap_overflow(index);
                }
            }
            // Staged entries are skipped at delivery via the generation check.
            Loc::Staged => {}
            Loc::Free => unreachable!(),
        }
        self.free_slot(index);
        self.live -= 1;
        // Cancelling the (possibly sole) earliest event invalidates the hint.
        if self.cached_next == Some(Some(time)) {
            self.cached_next = None;
        }
        true
    }

    /// The timestamp of the next live event, if any — O(1) amortized: served
    /// from the in-flight dispatch batch or a cached hint, recomputed with a
    /// bitmap scan only after the structure actually changed.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&(_, index, generation)) = self.batch.get(self.batch_pos) {
            let slot = &self.slab[index as usize];
            if slot.generation == generation && slot.loc == Loc::Staged {
                return Some(SimTime::from_nanos(self.batch_time));
            }
            // Cancelled while staged; skip permanently.
            self.batch_pos += 1;
        }
        // The lane comes next, and it is always at `now`.
        while self.lane_pos < self.round_end && self.lane[self.lane_pos].1.is_none() {
            self.lane_pos += 1;
        }
        if self.lane_pos < self.round_end || self.lane_pending > 0 {
            return Some(SimTime::from_nanos(self.now));
        }
        let next = match self.cached_next {
            Some(next) => next,
            None => {
                let next = self.compute_next();
                self.cached_next = Some(next);
                next
            }
        };
        next.map(SimTime::from_nanos)
    }

    /// Removes and returns the earliest live event together with its
    /// timestamp, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while let Some(&(_, index, generation)) = self.batch.get(self.batch_pos) {
                self.batch_pos += 1;
                let slot = &mut self.slab[index as usize];
                if slot.generation != generation || slot.loc != Loc::Staged {
                    continue; // cancelled while staged
                }
                let payload = slot.payload.take().expect("staged event has a payload");
                self.free_slot(index);
                self.live -= 1;
                self.delivered += 1;
                self.now = self.batch_time;
                if let Some(p) = &mut self.profile {
                    p.count(&payload, |row| row.dispatched += 1);
                }
                return Some((SimTime::from_nanos(self.batch_time), payload));
            }
            if let Some(payload) = self.pop_lane() {
                return Some((SimTime::from_nanos(self.now), payload));
            }
            if !self.refill_batch() {
                return None;
            }
        }
    }

    /// Delivers the next live lane event, opening a new round when the
    /// current one is used up. A round holds the lane events that were live
    /// when it opened, exactly the batch the level-0 bucket at `now` would
    /// have staged, and the batch counters record it as one. `None` once
    /// the lane is empty.
    fn pop_lane(&mut self) -> Option<E> {
        loop {
            while self.lane_pos < self.round_end {
                let entry = self.lane[self.lane_pos].1.take();
                self.lane_pos += 1;
                if let Some(payload) = entry {
                    self.live -= 1;
                    self.delivered += 1;
                    if let Some(p) = &mut self.profile {
                        p.count(&payload, |row| row.dispatched += 1);
                    }
                    return Some(payload);
                }
            }
            if self.lane_pending == 0 {
                self.lane.clear();
                self.lane_pos = 0;
                self.round_end = 0;
                return None;
            }
            // A long chain of same-instant events drops its spent rounds
            // once they add up, so the lane stays O(live events); each
            // pending entry moves at most once.
            if self.round_end >= LANE_SPENT_MAX {
                self.lane.drain(..self.round_end);
                self.lane_pos = 0;
            }
            let size = self.lane_pending as u64;
            self.counters.level0_batches += 1;
            self.counters.batched_events += size;
            self.counters.max_batch = self.counters.max_batch.max(size);
            self.round_end = self.lane.len();
            self.lane_pending = 0;
        }
    }

    /// Cancels the lane event scheduled with sequence number `seq`, if it is
    /// still pending.
    fn cancel_in_lane(&mut self, seq: u64) -> bool {
        let Ok(pos) = self.lane.binary_search_by_key(&seq, |&(s, _)| s) else {
            return false;
        };
        let Some(payload) = self.lane[pos].1.take() else {
            return false;
        };
        self.counters.cancelled += 1;
        if let Some(p) = &mut self.profile {
            p.count(&payload, |row| row.cancelled += 1);
        }
        // An event of the round being delivered stays counted in it, as a
        // staged entry does; a later one leaves its round, as an entry
        // unlinked from its bucket does.
        if pos >= self.round_end {
            self.lane_pending -= 1;
        }
        self.live -= 1;
        true
    }

    /// Allocates a slab slot (reusing the free list when possible).
    fn alloc(&mut self, time: u64, seq: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slab[index as usize];
            self.free_head = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.payload = Some(payload);
            index
        } else {
            assert!(self.slab.len() < NIL as usize, "event slab full");
            self.slab.push(Slot {
                time,
                seq,
                generation: 0,
                prev: NIL,
                next: NIL,
                loc: Loc::Free,
                payload: Some(payload),
            });
            (self.slab.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list, bumping its generation so every id
    /// handed out for it so far goes stale.
    fn free_slot(&mut self, index: u32) {
        let slot = &mut self.slab[index as usize];
        slot.generation = (slot.generation + 1) & GENERATION_MASK;
        slot.loc = Loc::Free;
        slot.payload = None;
        slot.next = self.free_head;
        self.free_head = index;
    }

    /// Links entry `index` (time `t`) into the wheel or the overflow heap.
    ///
    /// The level is the position of the most significant bit in which `t`
    /// differs from the cursor; because `t >= cursor` always holds (schedule
    /// clamps, cascades re-place forward), the computed slot index is never
    /// behind the cursor's own index at that level.
    fn place(&mut self, index: u32, t: u64, seq: u64) {
        let x = t ^ self.cursor;
        if x >> WHEEL_BITS != 0 {
            self.counters.overflow_hits += 1;
            let generation = self.slab[index as usize].generation;
            self.slab[index as usize].loc = Loc::Overflow;
            self.overflow.push(OverflowRef {
                time: t,
                seq,
                index,
                generation,
            });
            return;
        }
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / LEVEL_BITS) as usize
        };
        let s = ((t >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let head = self.buckets[level][s];
        {
            let slot = &mut self.slab[index as usize];
            slot.prev = NIL;
            slot.next = head;
            slot.loc = Loc::Wheel {
                level: level as u8,
                slot: s as u8,
            };
        }
        if head != NIL {
            self.slab[head as usize].prev = index;
        }
        self.buckets[level][s] = index;
        self.occupied[level] |= 1 << s;
    }

    /// Unlinks entry `index` from wheel bucket `(level, s)` in O(1).
    fn unlink(&mut self, index: u32, level: usize, s: usize) {
        let (prev, next) = {
            let slot = &self.slab[index as usize];
            (slot.prev, slot.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.buckets[level][s] = next;
            if next == NIL {
                self.occupied[level] &= !(1 << s);
            }
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Drops stale (cancelled) references off the top of the overflow heap.
    fn clean_overflow_top(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let slot = &self.slab[top.index as usize];
            if slot.generation == top.generation && slot.loc == Loc::Overflow {
                break;
            }
            self.overflow.pop();
            self.overflow_dead = self.overflow_dead.saturating_sub(1);
        }
    }

    /// Rebuilds the overflow heap from live references only. O(n), amortized
    /// O(1) per cancel because it only runs once dead references outnumber
    /// live ones. `cancelling` is the entry being cancelled right now (its
    /// slot has not been freed yet, so it still looks live).
    fn reap_overflow(&mut self, cancelling: u32) {
        let slab = &self.slab;
        let mut refs = std::mem::take(&mut self.overflow).into_vec();
        refs.retain(|r| {
            let slot = &slab[r.index as usize];
            r.index != cancelling && slot.generation == r.generation && slot.loc == Loc::Overflow
        });
        self.overflow = BinaryHeap::from(refs);
        self.overflow_dead = 0;
    }

    /// Migrates every overflow entry that now fits the cursor's wheel span.
    fn migrate_overflow(&mut self) {
        loop {
            self.clean_overflow_top();
            match self.overflow.peek() {
                Some(top) if (top.time ^ self.cursor) >> WHEEL_BITS == 0 => {
                    let r = self.overflow.pop().expect("peeked entry exists");
                    self.place(r.index, r.time, r.seq);
                }
                _ => return,
            }
        }
    }

    /// Exact next-event timestamp, without advancing the cursor: the first
    /// occupied bucket in level order is the earliest one (bucket time ranges
    /// are disjoint and increase with level and slot index), and overflow
    /// entries are always beyond every wheel entry.
    fn compute_next(&mut self) -> Option<u64> {
        for level in 0..LEVELS {
            let bits = self.occupied[level];
            if bits == 0 {
                continue;
            }
            let s = bits.trailing_zeros() as usize;
            // A level-0 bucket holds a single timestamp; higher buckets span
            // a range, so scan for the minimum.
            let mut t = u64::MAX;
            let mut i = self.buckets[level][s];
            while i != NIL {
                let slot = &self.slab[i as usize];
                t = t.min(slot.time);
                i = slot.next;
            }
            return Some(t);
        }
        self.clean_overflow_top();
        self.overflow.peek().map(|top| top.time)
    }

    /// Finds the earliest non-empty level-0 bucket (cascading higher levels
    /// and migrating overflow as needed) and stages it as the next dispatch
    /// batch, sorted by scheduling order. Returns `false` when no live events
    /// remain. This is the only place the cursor advances.
    fn refill_batch(&mut self) -> bool {
        self.batch.clear();
        self.batch_pos = 0;
        self.cached_next = None;
        loop {
            self.migrate_overflow();
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                self.clean_overflow_top();
                // The wheel is empty, so jumping the cursor straight to the
                // next overflow timestamp (a new top-level span) is safe.
                let Some(top) = self.overflow.peek() else {
                    self.cached_next = Some(None);
                    return false;
                };
                self.cursor = top.time;
                continue;
            };
            let s = self.occupied[level].trailing_zeros() as usize;
            let head = self.buckets[level][s];
            self.buckets[level][s] = NIL;
            self.occupied[level] &= !(1 << s);
            if level == 0 {
                // One timestamp per level-0 bucket: stage and deliver.
                let mut i = head;
                let mut t = self.cursor;
                while i != NIL {
                    let slot = &mut self.slab[i as usize];
                    slot.loc = Loc::Staged;
                    self.batch.push((slot.seq, i, slot.generation));
                    t = slot.time;
                    i = slot.next;
                }
                // FIFO is restored by seq, but a full sort is rarely needed:
                // bucket insertion is head-first (LIFO), so entries that
                // arrived in one pass — direct schedules and single-level
                // cascades, the overwhelming steady-state case — read back
                // exactly reversed. Only a multi-pass mix (a cascade landing
                // in a bucket that already had direct entries) pays the sort.
                if self.batch.len() > 1 {
                    if self.batch.windows(2).all(|w| w[0] >= w[1]) {
                        self.batch.reverse();
                    } else if !self.batch.windows(2).all(|w| w[0] <= w[1]) {
                        self.batch.sort_unstable();
                    }
                }
                self.counters.level0_batches += 1;
                self.counters.batched_events += self.batch.len() as u64;
                self.counters.max_batch = self.counters.max_batch.max(self.batch.len() as u64);
                self.batch_time = t;
                self.cursor = t;
                return true;
            }
            // Cascade: advance the cursor to the bucket's base time and
            // re-place its entries one or more levels down.
            let shift = LEVEL_BITS * level as u32;
            let high_mask = !((1u64 << (shift + LEVEL_BITS)) - 1);
            self.cursor = (self.cursor & high_mask) | ((s as u64) << shift);
            let mut i = head;
            while i != NIL {
                let slot = &self.slab[i as usize];
                let (next, t, seq) = (slot.next, slot.time, slot.seq);
                self.place(i, t, seq);
                i = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), "a");
        let b = q.schedule(SimTime::from_nanos(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert!(!q.cancel(b), "cannot cancel a delivered event");
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "first");
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(10));
        q.schedule(SimTime::from_micros(1), "late");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(5), "a");
        q.schedule(SimTime::from_nanos(9), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    fn tracks_delivered_count_and_now() {
        let mut q = EventQueue::new();
        let t0 = SimTime::ZERO + SimDuration::from_micros(1);
        q.schedule(t0, ());
        q.schedule(t0 + SimDuration::from_micros(1), ());
        while q.pop().is_some() {}
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.now(), SimTime::from_micros(2));
        assert!(q.is_empty());
    }

    #[test]
    fn cross_level_cascades_preserve_order() {
        // Spread events across every wheel level (spans from ns to minutes)
        // with a deterministic LCG, then check global (time, seq) order.
        let mut q = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % (1 << 40); // up to ~18 simulated minutes
            q.schedule(SimTime::from_nanos(t), (t, i));
            expected.push((t, i));
        }
        expected.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = EventQueue::new();
        let far = 1u64 << 50; // beyond the 2^42 ns wheel horizon
        q.schedule(SimTime::from_nanos(far + 7), "later");
        q.schedule(SimTime::from_nanos(far), "sooner");
        q.schedule(SimTime::from_nanos(5), "near");
        let sentinel = q.schedule(SimTime::MAX, "never");
        assert_eq!(q.footprint().overflow_entries, 3);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "near")));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(far)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "sooner")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 7), "later")));
        assert!(q.cancel(sentinel));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn events_scheduled_at_now_during_a_batch_run_after_it() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 1);
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        // Mid-batch follow-up at the same timestamp: delivered after the
        // rest of the batch, in scheduling order.
        q.schedule(t, 3);
        q.schedule(SimTime::from_nanos(1), 4); // causality-clamped to t
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t, 3)));
        assert_eq!(q.pop(), Some((t, 4)));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn ties_dispatch_in_scheduling_order_across_wheel_levels() {
        // Three events share timestamp `t` but reach the dispatch batch by
        // different routes: through the overflow heap (scheduled from 0,
        // past the wheel horizon), from an upper level (scheduled with the
        // cursor 100 ns away) and straight into level 0 (3 ns away).
        // Scheduling order alone ranks them.
        let mut q = EventQueue::new();
        let t = (1u64 << WHEEL_BITS) + 100;
        q.schedule(SimTime::from_nanos(t), "overflow");
        q.schedule(SimTime::from_nanos(1 << WHEEL_BITS), "step");
        assert_eq!(q.counters().overflow_hits, 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        q.schedule(SimTime::from_nanos(t), "upper");
        q.schedule(SimTime::from_nanos(t - 3), "step");
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        q.schedule(SimTime::from_nanos(t), "level0");
        assert_eq!(
            q.counters().overflow_hits,
            2,
            "later ties stay in the wheel"
        );
        let at = SimTime::from_nanos(t);
        let ties: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(ties, [(at, "overflow"), (at, "upper"), (at, "level0")]);
    }

    #[test]
    fn cancel_heavy_rearm_keeps_storage_bounded() {
        // NIC-coalescing pattern in the wheel: cancel + re-arm one deadline.
        let mut q = EventQueue::new();
        let mut pending = q.schedule(SimTime::from_nanos(100), 0u32);
        for i in 1..10_000u32 {
            assert!(q.cancel(pending));
            pending = q.schedule(SimTime::from_nanos(100 + u64::from(i)), i);
            assert!(q.footprint().slab_slots <= 2, "slab grew unbounded");
        }
        // Same pattern through the overflow heap.
        let far = 1u64 << 50;
        let mut sentinel = q.schedule(SimTime::from_nanos(far), 0u32);
        for i in 1..10_000u32 {
            assert!(q.cancel(sentinel));
            sentinel = q.schedule(SimTime::from_nanos(far + u64::from(i)), i);
            let fp = q.footprint();
            assert!(fp.overflow_entries <= 4, "overflow heap grew unbounded");
            assert!(fp.slab_slots <= 4, "slab grew unbounded");
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(9_999));
    }

    #[test]
    fn peek_time_matches_pop_under_cancellation_churn() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64)
            .map(|i| q.schedule(SimTime::from_nanos(i * 37 % 512), i))
            .collect();
        for id in ids.iter().step_by(3) {
            q.cancel(*id);
        }
        while let Some(peeked) = q.peek_time() {
            let (t, _) = q.pop().expect("peeked event pops");
            assert_eq!(t, peeked);
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn self_profiling_counters_track_operations() {
        let mut q = EventQueue::new();
        q.enable_profile(2, |e: &u32| (*e % 2) as usize);
        let a = q.schedule(SimTime::from_nanos(10), 0u32);
        q.schedule(SimTime::from_nanos(10), 2);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(1 << 50), 3); // beyond the wheel horizon
        assert!(q.cancel(a));
        while q.pop().is_some() {}
        let c = q.counters();
        assert_eq!(c.scheduled, 4);
        assert_eq!(c.cancelled, 1);
        assert_eq!(c.dispatched, 3);
        assert_eq!(c.dispatched, q.delivered());
        assert_eq!(c.overflow_hits, 1);
        assert_eq!(c.level0_batches, 2);
        assert_eq!(c.batched_events, 3);
        assert_eq!(c.max_batch, 2);
        let kinds = q.kind_counters().expect("profile enabled");
        assert_eq!(
            kinds[0],
            KindCounters {
                scheduled: 2,
                dispatched: 1,
                cancelled: 1
            }
        );
        assert_eq!(
            kinds[1],
            KindCounters {
                scheduled: 2,
                dispatched: 2,
                cancelled: 0
            }
        );
    }

    #[test]
    fn kind_profile_ignores_kinds_outside_its_rows() {
        // Kinds 0 and 1 have rows; the classifier's 2 and 7 are dropped
        // without disturbing delivery or the aggregate counters.
        let mut q = EventQueue::new();
        q.enable_profile(2, |e: &usize| *e);
        for kind in [0, 7, 1, 2] {
            q.schedule(SimTime::from_nanos(5), kind);
        }
        let stray = q.schedule(SimTime::from_nanos(9), 7);
        assert!(q.cancel(stray));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 7, 1, 2]);
        let once = KindCounters {
            scheduled: 1,
            dispatched: 1,
            cancelled: 0,
        };
        assert_eq!(q.kind_counters(), Some(&[once, once][..]));
        let c = q.counters();
        assert_eq!((c.scheduled, c.dispatched, c.cancelled), (5, 4, 1));
    }

    #[test]
    fn lane_rounds_count_as_the_level0_batches_they_replace() {
        // Hand-built same-instant rounds at `t`, with the batch counters the
        // level-0 bucket at `t` would have produced pinned after each step.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(50);
        let later = SimTime::from_nanos(60);
        let counts = |q: &EventQueue<&str>| {
            let c = q.counters();
            (c.level0_batches, c.batched_events, c.max_batch)
        };
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(later, "h");
        assert_eq!(q.pop(), Some((t, "a")));
        assert_eq!(counts(&q), (1, 2, 2), "the wheel batch [a, b]");
        // Mid-batch schedules at `t`, one of them clamped from the past, go
        // to the lane: their ids carry the tag bit and take no slab slot.
        let c = q.schedule(t, "c");
        q.schedule(SimTime::from_nanos(3), "d");
        assert_eq!(c.as_u64() >> 63, 1);
        assert_eq!(q.footprint().slab_slots, 3);
        assert_eq!(q.pop(), Some((t, "b")));
        let e = q.schedule(t, "e");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(counts(&q), (2, 5, 3), "round [c, d, e]");
        // Cancelling `e` inside its round leaves it counted, as a staged
        // entry is, and leaves the next round alone; cancelling `g` before
        // its round drops it, as unlinking it from the bucket would.
        q.schedule(t, "f");
        assert!(q.cancel(e));
        let g = q.schedule(t, "g");
        assert!(q.cancel(g));
        assert_eq!(q.len(), 3, "d, f and h");
        assert_eq!(q.pop(), Some((t, "d")));
        assert_eq!(q.pop(), Some((t, "f")));
        assert_eq!(counts(&q), (3, 6, 3), "round [f]");
        // Stale lane ids report false.
        assert!(!q.cancel(c));
        assert!(!q.cancel(e));
        assert!(!q.cancel(g));
        assert_eq!(q.pop(), Some((later, "h")));
        assert_eq!(counts(&q), (4, 7, 3), "the wheel batch [h]");
        assert_eq!(q.pop(), None);
        let c = q.counters();
        assert_eq!((c.scheduled, c.dispatched, c.cancelled), (8, 6, 2));
    }

    #[test]
    fn a_long_same_instant_chain_keeps_the_lane_bounded() {
        // Every delivery schedules its successor at the same instant, as a
        // chain of zero-delay signals does: one round per event, and the
        // spent rounds are dropped as they add up.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, 0u32);
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((t, i)));
            q.schedule(t, i + 1);
            assert!(q.footprint().lane_entries <= LANE_SPENT_MAX + 1);
        }
        let c = q.counters();
        assert_eq!(
            (c.level0_batches, c.batched_events, c.max_batch),
            (10_000, 10_000, 1)
        );
        assert_eq!(
            q.footprint().slab_slots,
            1,
            "only the first event took a slot"
        );
    }

    #[test]
    fn ids_from_reused_slots_do_not_alias() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_nanos(10), "a");
        assert!(q.cancel(a));
        // The freed slab slot is reused; the stale id must not cancel it.
        let b = q.schedule(SimTime::from_nanos(20), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
        assert!(!q.cancel(b));
    }
}
