//! One-level calendar event queue with a same-instant lane.
//!
//! The simulator's [`EventQueue`] is sized for the traffic the simulation
//! produces: tens to hundreds of pending events, a third to a half of them
//! scheduled at the current instant, nearly all the rest within
//! milliseconds. See the `engine` module docs for the delivery contract and
//! `ARCHITECTURE.md` ("The event core") for the design discussion.
//!
//! Structure:
//!
//! * **Calendar.** 4,096 slots of 1,024 ns each cover a 4.19 ms span from
//!   the slot the clock is in. An event lands in the slot of its timestamp,
//!   linked into a singly linked list threaded through a free-listed node
//!   slab, so scheduling places every event once. A two-level occupancy
//!   bitmap (one bit per slot, one summary bit per 64 slots) finds the next
//!   occupied slot with two `trailing_zeros`.
//! * **In-order slot lists.** Each slot's list is kept in delivery order: a
//!   new event goes after every event of the slot due no later. Through the
//!   list's tail, which its head node keeps, that is an O(1) append
//!   whenever the event is due no earlier than the slot's last one (ties,
//!   and migrated far events, always are); an earlier event walks the list
//!   from its head. `pop` delivers straight from the head of the clock's
//!   slot, and when the clock reaches an instant, the run of equal-time
//!   heads there is its group.
//! * **Far heap.** Events beyond the span go to a binary min-heap keyed by
//!   `(time, scheduling sequence)` and move into the calendar when the span
//!   reaches them. A slot the span newly covers is empty then, so heap order
//!   is delivery order.
//! * **Same-instant lane.** An event scheduled at exactly the last delivered
//!   timestamp — a zero-delay signal, or a past timestamp clamped to it —
//!   comes after everything already queued for that instant, so it is
//!   appended to a FIFO of payloads that `pop` drains after the current
//!   group and before the clock moves on.
//!
//! Nothing is ever cancelled: a component whose pending event has been
//! superseded ignores it on delivery (an epoch guard; see the module docs).

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// log2 of a calendar slot's width in nanoseconds (1,024 ns).
const SLOT_BITS: u32 = 10;
/// Calendar slots: the span is `SLOTS << SLOT_BITS` ns (4.19 ms).
const SLOTS: usize = 4096;
/// Slot number → slot index.
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Occupancy words of 64 slots each.
const WORDS: usize = SLOTS / 64;
/// A schedule whose time differs from `now` in a bit at or above this one
/// counts as an overflow hit: the 2^42 ns (~73 min) horizon of the
/// hierarchical timer wheel this queue replaced, kept so the published
/// counter reads as it always has.
const OVERFLOW_BITS: u32 = 42;
/// Sentinel "null" node index for slot lists and the free list. Slab node 0
/// is never linked, so an empty calendar's heads are all zeros and come
/// from a zeroed allocation.
const NIL: u32 = 0;

/// A far-heap entry: an event with its delivery key.
#[derive(Debug)]
struct Timed<E> {
    time: u64,
    seq: u64,
    payload: E,
}

impl<E> Timed<E> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

// The far heap is a max-heap: order by reversed key so it pops the earliest.
impl<E> PartialEq for Timed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Timed<E> {}

impl<E> PartialOrd for Timed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Timed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A calendar slab node: a linked event, or a free node (`event: None`).
#[derive(Debug)]
struct Node<E> {
    time: u64,
    /// Next node in the slot's list, or on the free list.
    next: u32,
    /// On the head of a slot's list, the list's last node. It fills the
    /// padding after `next`, so the tails cost no memory of their own.
    tail: u32,
    event: Option<E>,
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
    /// Dispatch batches: one per distinct timestamp the clock reaches, plus
    /// one per round of the same-instant lane.
    pub level0_batches: u64,
    /// Events delivered through those batches (sum of batch sizes).
    pub batched_events: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Schedules at least 2^42 ns (~73 min) away from the current instant,
    /// measured as the retired timer wheel did: the scheduled time differs
    /// from `now` in bit 42 or above.
    pub overflow_hits: u64,
}

/// Scheduled/dispatched counts for one event kind, as classified by the
/// opt-in profiler (see [`EventQueue::enable_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindCounters {
    /// Events of this kind scheduled.
    pub scheduled: u64,
    /// Events of this kind dispatched.
    pub dispatched: u64,
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

/// A deterministic pending-event queue for discrete-event simulation.
///
/// Events are delivered in non-decreasing timestamp order; ties are broken by
/// scheduling order (FIFO). Internally this is a one-level calendar of
/// in-order slot lists with a far heap and a same-instant lane (see the
/// module docs): `schedule` and `pop` run in O(1) amortized time for the
/// near-term traffic a simulation produces, and neither allocates in steady
/// state.
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
/// queue.schedule(SimTime::from_nanos(30), "c");
///
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(queue.pop_before(SimTime::from_nanos(30)), Some((SimTime::from_nanos(20), "b")));
/// assert_eq!(queue.pop_before(SimTime::from_nanos(30)), None);
/// assert_eq!(queue.pop(), Some((SimTime::from_nanos(30), "c")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Calendar nodes; each slot's list is threaded through `Node::next`.
    /// Node 0 is the never-linked sentinel behind `NIL`.
    nodes: Vec<Node<E>>,
    /// Head of the free list threaded through `Node::next`.
    free: u32,
    /// First node of each slot's list.
    heads: Box<[u32; SLOTS]>,
    /// Occupancy: bit `b` of `words[w]` is set ⇔ slot index `64w + b` has
    /// a list.
    words: [u64; WORDS],
    /// Bit `w` is set ⇔ `words[w] != 0`.
    summary: u64,
    /// Events at or past slot number `(now >> SLOT_BITS) + SLOTS`; the
    /// calendar holds every other pending event outside the lane.
    far: BinaryHeap<Timed<E>>,
    /// Scheduling sequence of the next far-heap entry.
    next_seq: u64,
    /// Events at the head of the clock's slot still to deliver at `now`.
    group_left: usize,
    /// The same-instant lane: payloads scheduled at exactly `now`, in
    /// scheduling order.
    lane: VecDeque<E>,
    /// Lane events still to deliver in the round being delivered.
    round_left: usize,
    /// Timestamp of the most recently delivered event, in nanoseconds.
    now: u64,
    len: usize,
    /// Always-on self-profiling counters.
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
            nodes: vec![Node {
                time: 0,
                next: NIL,
                tail: NIL,
                event: None,
            }],
            free: NIL,
            heads: vec![NIL; SLOTS]
                .into_boxed_slice()
                .try_into()
                .expect("SLOTS entries"),
            words: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            group_left: 0,
            lane: VecDeque::new(),
            round_left: 0,
            now: 0,
            len: 0,
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
        self.counters.dispatched
    }

    /// Number of events currently pending.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Self-profiling counter snapshot (`dispatched` equals
    /// [`EventQueue::delivered`]).
    #[must_use]
    pub fn counters(&self) -> QueueCounters {
        self.counters
    }

    /// Enables per-event-kind profiling: `classify` maps every payload to a
    /// kind index in `0..kinds` (out-of-range indices are ignored), and the
    /// queue keeps scheduled/dispatched counts per kind. Purely
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

    /// Schedules `payload` for delivery at time `at`.
    ///
    /// Scheduling an event in the past (before the last delivered event) is a
    /// causality violation; the event is clamped to the current time so that
    /// it is delivered next, which mirrors how hardware would observe a
    /// "should already have happened" condition immediately.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let time = at.as_nanos().max(self.now);
        self.len += 1;
        self.counters.scheduled += 1;
        if let Some(p) = &mut self.profile {
            p.count(&payload, |row| row.scheduled += 1);
        }
        if time == self.now {
            self.lane.push_back(payload);
            return;
        }
        if (time ^ self.now) >> OVERFLOW_BITS != 0 {
            self.counters.overflow_hits += 1;
        }
        let slot = time >> SLOT_BITS;
        if slot - (self.now >> SLOT_BITS) < SLOTS as u64 {
            self.link(slot, time, payload);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.far.push(Timed { time, seq, payload });
        }
    }

    /// The timestamp of the next pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let time = if self.group_left > 0 || !self.lane.is_empty() {
            self.now
        } else if let Some(index) = self.next_index() {
            self.nodes[self.heads[index] as usize].time
        } else {
            self.far.peek()?.time
        };
        Some(SimTime::from_nanos(time))
    }

    /// Removes and returns the earliest pending event together with its
    /// timestamp, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_through(u64::MAX)
    }

    /// Removes and returns the earliest pending event if its timestamp is
    /// before `horizon`; otherwise leaves the queue as it is and returns
    /// `None`. This is `pop` behind a `peek_time` check, in one call.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let last = horizon.as_nanos().checked_sub(1)?;
        self.pop_through(last)
    }

    /// Delivers the earliest pending event if it is due at or before `last`.
    #[inline]
    fn pop_through(&mut self, last: u64) -> Option<(SimTime, E)> {
        // Everything pending is at or after `now`.
        if self.now > last {
            return None;
        }
        if self.group_left == 0
            && self.round_left == 0
            && !self.open_round()
            && !self.open_group(last)
        {
            return None;
        }
        self.len -= 1;
        self.counters.dispatched += 1;
        // The profiler reads the event where it waits, so the event moves
        // once, from the queue into the result, and never through a copy
        // whose address is taken.
        if let Some(p) = &mut self.profile {
            let next = if self.group_left > 0 {
                let index = ((self.now >> SLOT_BITS) & SLOT_MASK) as usize;
                self.nodes[self.heads[index] as usize].event.as_ref()
            } else {
                self.lane.front()
            };
            p.count(next.expect("an event is due"), |row| row.dispatched += 1);
        }
        let payload = if self.group_left > 0 {
            self.group_left -= 1;
            self.unlink_head()
        } else {
            self.round_left -= 1;
            self.lane.pop_front().expect("the round is queued")
        };
        Some((SimTime::from_nanos(self.now), payload))
    }

    /// Opens a lane round of every event queued at `now`, counted as one
    /// batch; `false` when the lane is empty.
    fn open_round(&mut self) -> bool {
        let size = self.lane.len();
        if size == 0 {
            return false;
        }
        self.round_left = size;
        self.count_batch(size);
        true
    }

    /// Moves the clock to the next timestamp if it is at or before `last`,
    /// and opens its group: the run of heads of that slot's list due then,
    /// counted as one batch. When the clock leaves its slot, the far events
    /// the span now reaches move into the calendar. `false`, with nothing
    /// changed, when nothing is due by `last`.
    fn open_group(&mut self, last: u64) -> bool {
        let time = match self.next_index() {
            Some(index) => self.nodes[self.heads[index] as usize].time,
            // An empty calendar: the span jumps to the far heap's earliest.
            None => match self.far.peek() {
                Some(e) => e.time,
                None => return false,
            },
        };
        if time > last {
            return false;
        }
        let slot = time >> SLOT_BITS;
        if slot != self.now >> SLOT_BITS {
            self.migrate(slot);
        }
        let mut size = 0;
        let mut node = self.heads[(slot & SLOT_MASK) as usize];
        while node != NIL && self.nodes[node as usize].time == time {
            size += 1;
            node = self.nodes[node as usize].next;
        }
        self.group_left = size;
        self.now = time;
        self.count_batch(size);
        true
    }

    fn count_batch(&mut self, size: usize) {
        let size = size as u64;
        self.counters.level0_batches += 1;
        self.counters.batched_events += size;
        self.counters.max_batch = self.counters.max_batch.max(size);
    }

    /// Moves every far event within the span that starts at slot number
    /// `slot` into the calendar, earliest key first. Far events lie past the
    /// old span, so each lands on an empty list or behind the ones moved
    /// before it.
    fn migrate(&mut self, slot: u64) {
        while let Some(e) = self.far.peek() {
            let far_slot = e.time >> SLOT_BITS;
            if far_slot - slot >= SLOTS as u64 {
                break;
            }
            let Timed { time, payload, .. } = self.far.pop().expect("peeked event exists");
            self.link(far_slot, time, payload);
        }
    }

    /// Links an event due at `time` into the list of calendar slot number
    /// `slot`, after every event of the slot due no later.
    fn link(&mut self, slot: u64, time: u64, event: E) {
        let index = (slot & SLOT_MASK) as usize;
        let node = Node {
            time,
            next: NIL,
            tail: NIL,
            event: Some(event),
        };
        let n = if self.free == NIL {
            let n = u32::try_from(self.nodes.len()).expect("event slab full");
            self.nodes.push(node);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let head = self.heads[index];
        if head == NIL {
            self.nodes[n as usize].tail = n;
            self.heads[index] = n;
            self.words[index / 64] |= 1 << (index % 64);
            self.summary |= 1 << (index / 64);
            return;
        }
        let tail = self.nodes[head as usize].tail;
        if self.nodes[tail as usize].time <= time {
            self.nodes[tail as usize].next = n;
            self.nodes[head as usize].tail = n;
        } else if self.nodes[head as usize].time > time {
            self.nodes[n as usize].next = head;
            self.nodes[n as usize].tail = tail;
            self.heads[index] = n;
        } else {
            // Due within the list: the tail is later, so the walk stops
            // before the end.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if self.nodes[next as usize].time > time {
                    break;
                }
                prev = next;
            }
            self.nodes[n as usize].next = self.nodes[prev as usize].next;
            self.nodes[prev as usize].next = n;
        }
    }

    /// Unlinks the head of the clock's slot and returns its event.
    fn unlink_head(&mut self) -> E {
        let index = ((self.now >> SLOT_BITS) & SLOT_MASK) as usize;
        let head = self.heads[index];
        let node = &mut self.nodes[head as usize];
        let event = node.event.take().expect("linked nodes hold an event");
        let next = std::mem::replace(&mut node.next, self.free);
        let tail = node.tail;
        self.free = head;
        self.heads[index] = next;
        if next == NIL {
            let word = &mut self.words[index / 64];
            *word &= !(1 << (index % 64));
            if *word == 0 {
                self.summary &= !(1 << (index / 64));
            }
        } else {
            self.nodes[next as usize].tail = tail;
        }
        event
    }

    /// Index of the first occupied calendar slot from the clock's slot on,
    /// if any.
    fn next_index(&self) -> Option<usize> {
        // Slot numbers from the clock's onwards map to the indices from
        // `start` onwards, wrapping round.
        let start = ((self.now >> SLOT_BITS) & SLOT_MASK) as usize;
        self.first_occupied_from(start)
            .or_else(|| self.first_occupied_from(0))
    }

    /// The first occupied slot index at or after `start`.
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        let w = start / 64;
        let bits = self.words[w] & (u64::MAX << (start % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let later = self.summary & u64::MAX.checked_shl(w as u32 + 1).unwrap_or(0);
        if later == 0 {
            return None;
        }
        let w = later.trailing_zeros() as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
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
    fn spread_times_come_back_in_key_order() {
        // Times from nanoseconds to ~18 simulated minutes: the staged slot,
        // the calendar and the far heap, with a deterministic LCG.
        let mut q = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for i in 0..5_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = x % (1 << 40);
            q.schedule(SimTime::from_nanos(t), (t, i));
            expected.push((t, i));
        }
        expected.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn far_future_events_wait_in_the_far_heap() {
        let mut q = EventQueue::new();
        let far = 1u64 << 50;
        let span = (SLOTS as u64) << SLOT_BITS;
        q.schedule(SimTime::from_nanos(far + 7), "later");
        q.schedule(SimTime::from_nanos(far), "sooner");
        q.schedule(SimTime::from_nanos(span), "just past the span");
        q.schedule(SimTime::from_nanos(span - 1), "last calendar slot");
        q.schedule(SimTime::from_nanos(5), "near");
        q.schedule(SimTime::MAX, "never");
        assert_eq!(q.far.len(), 4);
        assert_eq!(q.counters().overflow_hits, 3, "2^50, 2^50 + 7 and MAX");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "near")));
        assert_eq!(q.pop().map(|(_, e)| e), Some("last calendar slot"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("just past the span"));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(far)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far), "sooner")));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(far + 7), "later")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never")));
        assert_eq!(q.pop(), None);
        assert!(q.far.is_empty());
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
    fn events_scheduled_into_the_staged_window_keep_their_order() {
        // `t` and `t + 500` share the staged slot; schedules into it while
        // it is delivered are inserted into the run, behind staged ties.
        let mut q = EventQueue::new();
        let t = (3 << SLOT_BITS) + 10;
        q.schedule(SimTime::from_nanos(t), "a");
        q.schedule(SimTime::from_nanos(t + 500), "c");
        q.schedule(SimTime::from_nanos(t + 900), "e");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.schedule(SimTime::from_nanos(t + 500), "d");
        q.schedule(SimTime::from_nanos(t + 200), "b");
        q.schedule(SimTime::from_nanos(t + 2_000), "f");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["b", "c", "d", "e", "f"]);
    }

    #[test]
    fn ties_dispatch_in_scheduling_order_across_routes() {
        // Five events share timestamp `t` but reach its group by different
        // routes: through the far heap (scheduled a span away), through a
        // calendar slot (a few slots away), and straight into the staged
        // run (scheduled while `t`'s slot is being delivered). Scheduling
        // order alone ranks them.
        let mut q = EventQueue::new();
        let span = (SLOTS as u64) << SLOT_BITS;
        let t = span + 100;
        q.schedule(SimTime::from_nanos(t), "far");
        q.schedule(SimTime::from_nanos(span / 2), "step");
        assert_eq!(q.far.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        // The span now reaches `t`: the far event moved to its slot.
        assert!(q.far.is_empty());
        q.schedule(SimTime::from_nanos(t), "calendar");
        q.schedule(SimTime::from_nanos(t - 3), "step");
        assert_eq!(q.pop().map(|(_, e)| e), Some("step"));
        q.schedule(SimTime::from_nanos(t), "run");
        q.schedule(SimTime::from_nanos(t), "run again");
        let at = SimTime::from_nanos(t);
        let ties: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            ties,
            [
                (at, "far"),
                (at, "calendar"),
                (at, "run"),
                (at, "run again")
            ]
        );
        assert_eq!(q.counters().max_batch, 4);
    }

    #[test]
    fn self_profiling_counters_track_operations() {
        let mut q = EventQueue::new();
        q.enable_profile(2, |e: &u32| (*e % 2) as usize);
        q.schedule(SimTime::from_nanos(10), 2);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(1 << 50), 3); // 2^42 ns or more away
        while q.pop().is_some() {}
        let c = q.counters();
        assert_eq!(c.scheduled, 3);
        assert_eq!(c.dispatched, 3);
        assert_eq!(c.dispatched, q.delivered());
        assert_eq!(c.overflow_hits, 1);
        assert_eq!(c.level0_batches, 2);
        assert_eq!(c.batched_events, 3);
        assert_eq!(c.max_batch, 2);
        let kinds = q.kind_counters().expect("profile enabled");
        let row = |n| KindCounters {
            scheduled: n,
            dispatched: n,
        };
        assert_eq!(kinds, [row(1), row(2)]);
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
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 7, 1, 2]);
        let once = KindCounters {
            scheduled: 1,
            dispatched: 1,
        };
        assert_eq!(q.kind_counters(), Some(&[once, once][..]));
        let c = q.counters();
        assert_eq!((c.scheduled, c.dispatched), (4, 4));
    }

    #[test]
    fn lane_rounds_count_as_the_batches_at_their_instant() {
        // Hand-built same-instant rounds at `t`, with the batch counters
        // pinned after each step: one batch for the events pending when the
        // clock reached `t`, then one per lane round.
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
        assert_eq!(counts(&q), (1, 2, 2), "the batch [a, b]");
        // Mid-batch schedules at `t`, one of them clamped from the past, go
        // to the lane.
        q.schedule(t, "c");
        q.schedule(SimTime::from_nanos(3), "d");
        assert_eq!(q.lane.len(), 2);
        assert_eq!(q.pop(), Some((t, "b")));
        q.schedule(t, "e");
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!(q.pop(), Some((t, "c")));
        assert_eq!(counts(&q), (2, 5, 3), "round [c, d, e]");
        // A schedule during a round joins the next round.
        q.schedule(t, "f");
        assert_eq!(q.len(), 4, "d, e, f and h");
        assert_eq!(q.pop(), Some((t, "d")));
        assert_eq!(q.pop(), Some((t, "e")));
        assert_eq!(counts(&q), (2, 5, 3));
        assert_eq!(q.pop(), Some((t, "f")));
        assert_eq!(counts(&q), (3, 6, 3), "round [f]");
        assert_eq!(q.pop(), Some((later, "h")));
        assert_eq!(counts(&q), (4, 7, 3), "the batch [h]");
        assert_eq!(q.pop(), None);
        let c = q.counters();
        assert_eq!((c.scheduled, c.dispatched), (7, 7));
    }

    #[test]
    fn a_long_same_instant_chain_keeps_the_lane_bounded() {
        // Every delivery schedules its successor at the same instant, as a
        // chain of zero-delay signals does: one round per event.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, 0u32);
        for i in 0..10_000u32 {
            assert_eq!(q.pop(), Some((t, i)));
            q.schedule(t, i + 1);
            assert_eq!(q.lane.len(), 1);
            // The sentinel and the node the first event was linked into.
            assert_eq!(q.nodes.len(), 2, "the slab holds one node");
        }
        let c = q.counters();
        assert_eq!(
            (c.level0_batches, c.batched_events, c.max_batch),
            (10_000, 10_000, 1)
        );
    }

    #[test]
    fn a_burst_of_ties_in_one_slot_comes_back_in_scheduling_order() {
        // 100,000 ties at `t`, with earlier events of the same slot
        // interleaved and later ones after them and in the next slot: the
        // ties are tail appends, so the burst costs linear time, and they
        // come back in scheduling order as one batch.
        let mut q = EventQueue::new();
        let slot_start = 5u64 << SLOT_BITS;
        let t = slot_start + 600;
        let mut expected = Vec::new();
        for i in 0..100_000u64 {
            if i % 25_000 == 12_345 {
                let early = slot_start + i / 25_000;
                q.schedule(SimTime::from_nanos(early), (early, i));
                expected.push((early, i));
            }
            q.schedule(SimTime::from_nanos(t), (t, i));
            if i % 20_000 == 777 {
                let next_slot = slot_start + (1 << SLOT_BITS) + i / 20_000;
                q.schedule(SimTime::from_nanos(next_slot), (next_slot, i));
                expected.push((next_slot, i));
            }
        }
        q.schedule(SimTime::from_nanos(t + 1), (t + 1, 0));
        expected.extend((0..100_000).map(|i| (t, i)));
        expected.push((t + 1, 0));
        expected.sort_by_key(|&(time, _)| time);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, expected);
        assert_eq!(q.counters().max_batch, 100_000);
    }

    #[test]
    fn out_of_order_times_in_one_slot_are_linked_in_delivery_order() {
        // A later time scheduled before an earlier one, then ties at both
        // and a time between them: the list is walked from its head.
        let mut q = EventQueue::new();
        let s = 9u64 << SLOT_BITS;
        for (time, name) in [
            (s + 900, "late"),
            (s + 100, "early"),
            (s + 900, "late tie"),
            (s + 100, "early tie"),
            (s + 500, "middle"),
            (s + 100, "early tie 2"),
            (s + 50, "earliest"),
        ] {
            q.schedule(SimTime::from_nanos(time), name);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let at = |ns, name| (SimTime::from_nanos(s + ns), name);
        assert_eq!(
            order,
            [
                at(50, "earliest"),
                at(100, "early"),
                at(100, "early tie"),
                at(100, "early tie 2"),
                at(500, "middle"),
                at(900, "late"),
                at(900, "late tie"),
            ]
        );
        let c = q.counters();
        assert_eq!((c.level0_batches, c.max_batch), (4, 3));
    }

    #[test]
    fn pop_before_leaves_the_horizon_and_later_queued() {
        let mut q = EventQueue::new();
        let h = SimTime::from_micros(3);
        q.schedule(SimTime::from_micros(1), "before");
        q.schedule(h, "at");
        q.schedule(SimTime::from_micros(9), "after");
        assert_eq!(q.pop_before(SimTime::ZERO), None);
        assert_eq!(q.pop_before(h).map(|(_, e)| e), Some("before"));
        assert_eq!(q.pop_before(h), None);
        assert_eq!(q.pop_before(h), None, "a refused pop changes nothing");
        let c = q.counters();
        assert_eq!((c.dispatched, c.level0_batches), (1, 1));
        assert_eq!(q.now(), SimTime::from_micros(1));
        // Clamped and same-instant events are due at `now`, before `h`.
        q.schedule(SimTime::ZERO, "clamped");
        assert_eq!(q.pop_before(h).map(|(_, e)| e), Some("clamped"));
        assert_eq!(q.pop_before(SimTime::from_micros(1)), None);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ["at", "after"]);
    }
}
