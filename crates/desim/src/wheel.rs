//! Hierarchical timing wheel — the kernel's future-event list.
//!
//! The classic binary-heap event list pays O(log n) per push and pop, and the
//! scale sweeps drive it hundreds of thousands of events deep. This module
//! replaces it with a hashed-and-hierarchical timing wheel in the style of
//! Varghese & Lauer: six levels of 64 slots each, where level `L` buckets
//! deadlines by bits `[6L, 6L+6)` of their absolute microsecond timestamp.
//! A deadline lands on the level of its highest bit that differs from the
//! wheel's cursor, so near deadlines resolve to single-microsecond slots and
//! far ones to coarse buckets that are re-bucketed ("cascaded") into finer
//! levels as the cursor reaches them. Push is O(1); pop is O(1) amortized
//! (each event cascades at most once per level, ≤ 5 times total).
//!
//! Three structural guarantees matter for deterministic replay:
//!
//! * **Total order.** Pops come out in strictly ascending `(time, seq)`
//!   order, exactly as the heap produced — the sequence number assigned at
//!   push breaks same-instant ties in insertion order.
//! * **FIFO buckets.** Each slot chains its events through an intrusive
//!   singly-linked arena list, appended at the tail. Cascades walk the chain
//!   in order, so two events with the same timestamp can never swap places
//!   on their way down the levels.
//! * **Bounded cursor jumps.** The cursor (`elapsed`) advances only when an
//!   event is popped from the wheel proper or a coarse slot is cascaded;
//!   pops from the overdue/far fallbacks leave it alone, so no wheel-resident
//!   event can be skipped over.
//!
//! Two ordered fallback structures catch what the wheel cannot bucket:
//! pushes dated before the cursor (re-scheduled work in already-elapsed
//! time) go to an `overdue` min-heap, and deadlines beyond the wheel's
//! ~19-hour horizon (2^36 µs past the cursor) go to a `far` min-heap. Both
//! are tiny in practice; a pop takes the smallest `(time, seq)` across the
//! wheel head and the two heap tops.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An event payload tagged with its firing time and a tie-breaking sequence.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<T> {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Monotonically increasing insertion sequence; breaks ties at equal times.
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Mask selecting one level's digit of a timestamp.
const MASK: u64 = (SLOTS as u64) - 1;
/// Number of wheel levels; deadlines ≥ 2^(6·LEVELS) µs past the cursor
/// (~19.1 virtual hours) overflow to the ordered far-future heap.
const LEVELS: usize = 6;
/// Null link in the intrusive slot chains.
const NIL: u32 = u32::MAX;

/// One arena slot: an event plus its intrusive chain link.
#[derive(Debug, Clone)]
struct Node<T> {
    time: u64,
    seq: u64,
    next: u32,
    payload: Option<T>,
}

/// One wheel level: a 64-bit occupancy map plus head/tail indices of the
/// per-slot FIFO chains.
#[derive(Debug, Clone)]
struct Level {
    occupied: u64,
    head: [u32; SLOTS],
    tail: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
        }
    }
}

/// A deterministic min-priority queue of future events with O(1) push and
/// amortized-O(1) pop; see the module docs for the level layout and the
/// ordering guarantees. It is unmetered: a caller that counts kernel events
/// records them itself ([`crate::stats::kernel`]).
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    levels: Vec<Level>,
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    /// Events dated before the cursor: pops interleave them by `(time, seq)`.
    overdue: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Events beyond the wheel horizon, ordered the same way.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Cursor: all wheel-resident events fire at or after this instant.
    elapsed: u64,
    /// Live event count across the wheel and both fallback heaps.
    len: usize,
    /// Next insertion sequence number (never reset, even by `clear`).
    next_seq: u64,
    /// Cached earliest pending `(time)`, kept exact by push/pop so
    /// [`TimingWheel::peek_time`] is O(1) and needs only `&self`.
    cached_min: Option<SimTime>,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Create an empty wheel.
    pub fn new() -> Self {
        TimingWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            nodes: Vec::new(),
            free: Vec::new(),
            overdue: BinaryHeap::new(),
            far: BinaryHeap::new(),
            elapsed: 0,
            len: 0,
            next_seq: 0,
            cached_min: None,
        }
    }

    /// Create an empty wheel with arena room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut w = Self::new();
        w.nodes = Vec::with_capacity(capacity);
        w
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_min
    }

    fn alloc(&mut self, time: u64, seq: u64, payload: T) -> u32 {
        if let Some(idx) = self.free.pop() {
            let n = &mut self.nodes[idx as usize];
            n.time = time;
            n.seq = seq;
            n.next = NIL;
            n.payload = Some(payload);
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            idx
        }
    }

    fn release(&mut self, idx: u32) -> ScheduledEvent<T> {
        let n = &mut self.nodes[idx as usize];
        let ev = ScheduledEvent {
            time: SimTime(n.time),
            seq: n.seq,
            payload: n.payload.take().expect("released node holds a payload"),
        };
        self.free.push(idx);
        ev
    }

    /// File an arena node under the level/slot its deadline selects relative
    /// to the cursor, or into the far heap past the horizon. The caller
    /// guarantees `time >= self.elapsed`.
    fn schedule(&mut self, idx: u32) {
        let t = self.nodes[idx as usize].time;
        debug_assert!(t >= self.elapsed, "wheel events never predate the cursor");
        let dist = t ^ self.elapsed;
        let level = if dist == 0 {
            0
        } else {
            ((63 - dist.leading_zeros()) / SLOT_BITS) as usize
        };
        if level >= LEVELS {
            let seq = self.nodes[idx as usize].seq;
            self.far.push(Reverse((t, seq, idx)));
            return;
        }
        let slot = ((t >> (SLOT_BITS * level as u32)) & MASK) as usize;
        self.nodes[idx as usize].next = NIL;
        let tail = self.levels[level].tail[slot];
        if tail == NIL {
            self.levels[level].head[slot] = idx;
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.levels[level].tail[slot] = idx;
        self.levels[level].occupied |= 1u64 << slot;
    }

    /// Cascade until the wheel's earliest event sits in a level-0 slot, and
    /// return its `(time, seq, slot)`; `None` when the wheel proper is empty
    /// (the fallback heaps may still hold events). Advances the cursor to
    /// the start of every coarse slot it re-buckets.
    fn expose_next(&mut self) -> Option<(u64, u64, usize)> {
        loop {
            // Level 0: slots at or after the cursor's position in the
            // current 64-µs block. Events before the cursor cannot exist
            // (the cursor only advances onto pop times), so the occupancy
            // scan needs no wrap-around.
            let cur0 = (self.elapsed & MASK) as u32;
            let occ0 = self.levels[0].occupied >> cur0;
            if occ0 != 0 {
                let slot = (cur0 + occ0.trailing_zeros()) as usize;
                let head = self.levels[0].head[slot] as usize;
                return Some((self.nodes[head].time, self.nodes[head].seq, slot));
            }
            // Level 0 exhausted: cascade the next occupied slot of the
            // lowest non-empty level. Its occupied bits are strictly above
            // the cursor's digit (an event matching the digit would have
            // resolved to a lower level), so the same shift-scan applies.
            let mut cascaded = false;
            for level in 1..LEVELS {
                if self.levels[level].occupied == 0 {
                    continue;
                }
                let shift = SLOT_BITS * level as u32;
                let curl = ((self.elapsed >> shift) & MASK) as u32;
                let rel = self.levels[level].occupied >> curl;
                debug_assert!(
                    rel != 0 && rel & 1 == 0,
                    "occupied slots sit past the cursor"
                );
                let slot = (curl + rel.trailing_zeros()) as usize;
                // Jump the cursor to the slot's start, then re-file its
                // chain: every event lands at least one level lower, so
                // this loop terminates.
                let span_mask = (1u64 << (shift + SLOT_BITS)) - 1;
                let slot_start = (self.elapsed & !span_mask) | ((slot as u64) << shift);
                debug_assert!(slot_start >= self.elapsed);
                self.elapsed = slot_start;
                let mut cur = self.levels[level].head[slot];
                self.levels[level].head[slot] = NIL;
                self.levels[level].tail[slot] = NIL;
                self.levels[level].occupied &= !(1u64 << slot);
                while cur != NIL {
                    let next = self.nodes[cur as usize].next;
                    self.schedule(cur);
                    cur = next;
                }
                cascaded = true;
                break;
            }
            if !cascaded {
                return None;
            }
        }
    }

    /// Unlink and return the head of a level-0 slot chain.
    fn pop_slot_head(&mut self, slot: usize) -> u32 {
        let head = self.levels[0].head[slot];
        debug_assert_ne!(head, NIL);
        let next = self.nodes[head as usize].next;
        self.levels[0].head[slot] = next;
        if next == NIL {
            self.levels[0].tail[slot] = NIL;
            self.levels[0].occupied &= !(1u64 << slot);
        }
        head
    }

    /// Recompute the cached minimum after a removal.
    fn refresh_min(&mut self) {
        if self.len == 0 {
            self.cached_min = None;
            return;
        }
        let mut min = u64::MAX;
        if let Some((t, _, _)) = self.expose_next() {
            min = t;
        }
        if let Some(&Reverse((t, _, _))) = self.overdue.peek() {
            min = min.min(t);
        }
        if let Some(&Reverse((t, _, _))) = self.far.peek() {
            min = min.min(t);
        }
        self.cached_min = Some(SimTime(min));
    }

    /// Schedule `payload` to fire at absolute time `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.0;
        if self.len == 0 {
            // Empty wheel: any cursor position is equivalent, so re-anchor
            // at the new deadline. This keeps long-lived queues that drain
            // and refill out of the overdue/far fallbacks entirely.
            self.elapsed = t;
        }
        let idx = self.alloc(t, seq, payload);
        if t < self.elapsed {
            self.overdue.push(Reverse((t, seq, idx)));
        } else {
            self.schedule(idx);
        }
        self.len += 1;
        match self.cached_min {
            Some(m) if m <= time => {}
            _ => self.cached_min = Some(time),
        }
    }

    /// Locate the earliest pending event as `(time, source, slot, node)`.
    /// Three candidates — wheel head, overdue top, far top — are compared by
    /// `(time, seq)`; sequence numbers are globally unique, so the minimum
    /// is unambiguous. Source tags: 1 = wheel (`slot` is its level-0 slot),
    /// 2 = overdue, 3 = far.
    fn locate_min(&mut self) -> Option<(u64, u8, usize, u32)> {
        if self.len == 0 {
            return None;
        }
        let mut best: Option<(u64, u64, u8, usize, u32)> = self
            .expose_next()
            .map(|(t, s, slot)| (t, s, 1, slot, self.levels[0].head[slot]));
        for (heap, source) in [(&self.overdue, 2), (&self.far, 3)] {
            if let Some(&Reverse((t, s, idx))) = heap.peek() {
                if best.is_none_or(|(bt, bs, ..)| (t, s) < (bt, bs)) {
                    best = Some((t, s, source, 0, idx));
                }
            }
        }
        best.map(|(t, _, source, slot, idx)| (t, source, slot, idx))
    }

    /// The earliest pending event's firing time and payload, left in place:
    /// the next [`TimingWheel::pop`] returns exactly this event. Takes
    /// `&mut self` because exposing the wheel head may cascade a coarse
    /// slot, which moves the cursor but never the pop order.
    pub fn peek(&mut self) -> Option<(SimTime, &T)> {
        let (time, _, _, idx) = self.locate_min()?;
        let payload = self.nodes[idx as usize]
            .payload
            .as_ref()
            .expect("pending node holds a payload");
        Some((SimTime(time), payload))
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<T>> {
        let (time, source, slot, idx) = self.locate_min()?;
        match source {
            1 => {
                // The cursor lands exactly on the popped deadline; equal-time
                // events share the slot, so no chain is left behind it.
                self.elapsed = time;
                self.pop_slot_head(slot);
            }
            2 => {
                self.overdue.pop();
            }
            _ => {
                self.far.pop();
            }
        }
        self.len -= 1;
        let ev = self.release(idx);
        self.refresh_min();
        Some(ev)
    }

    /// Remove and return the earliest event only if it fires at or before `now`.
    /// When nothing is due this reads only the cached minimum: no cascade
    /// and no allocation, which is the per-tick fast path of every loop
    /// that drains a wheel.
    pub fn pop_due(&mut self, now: SimTime) -> Option<ScheduledEvent<T>> {
        if self.cached_min.map(|t| t <= now).unwrap_or(false) {
            self.pop()
        } else {
            None
        }
    }

    /// Drain every event due at or before `now` into `out` (cleared first),
    /// reusing its allocation; events arrive in `(time, seq)` order.
    pub fn drain_due_into(&mut self, now: SimTime, out: &mut Vec<ScheduledEvent<T>>) {
        out.clear();
        while let Some(ev) = self.pop_due(now) {
            out.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_across_levels() {
        let mut w = TimingWheel::new();
        // Deadlines spanning level 0 through the far heap.
        let times = [3u64, 1, 70, 4_096, 300_000, 50_000_000, (1u64 << 36) + 5, 2];
        for &t in &times {
            w.push(SimTime(t), t);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| w.pop().map(|e| e.payload)).collect();
        assert_eq!(got, sorted);
        assert!(w.is_empty());
    }

    #[test]
    fn same_instant_ties_fire_in_insertion_order() {
        let mut w = TimingWheel::new();
        // Seed the cursor low so the tied deadline starts on a coarse level
        // and must cascade before firing.
        w.push(SimTime(1), 999u64);
        let t = SimTime(100_000);
        for i in 0..100 {
            w.push(t, i);
        }
        assert_eq!(w.pop().unwrap().payload, 999);
        for i in 0..100 {
            let ev = w.pop().unwrap();
            assert_eq!((ev.time, ev.payload), (t, i));
        }
    }

    #[test]
    fn past_due_pushes_interleave_correctly() {
        let mut w = TimingWheel::new();
        w.push(SimTime(100), "future");
        w.push(SimTime(200), "later");
        assert_eq!(w.pop().unwrap().payload, "future");
        // The cursor now sits at 100; a push dated 50 is overdue.
        w.push(SimTime(50), "overdue");
        w.push(SimTime(150), "mid");
        assert_eq!(w.pop().unwrap().payload, "overdue");
        assert_eq!(w.pop().unwrap().payload, "mid");
        assert_eq!(w.pop().unwrap().payload, "later");
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_time_is_exact_through_mixed_operations() {
        let mut w = TimingWheel::new();
        assert_eq!(w.peek_time(), None);
        w.push(SimTime(500), ());
        w.push(SimTime(20), ());
        assert_eq!(w.peek_time(), Some(SimTime(20)));
        w.pop();
        assert_eq!(w.peek_time(), Some(SimTime(500)));
        w.push(SimTime(30), ()); // overdue relative to the cursor
        assert_eq!(w.peek_time(), Some(SimTime(30)));
        w.pop();
        w.pop();
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn peek_names_the_event_pop_returns() {
        let mut w = TimingWheel::new();
        assert!(w.peek().is_none());
        // A level-0 event, a coarse-level one, a far-future one and (after
        // the first pop moves the cursor) an overdue one.
        w.push(SimTime(100), "near");
        w.push(SimTime(5_000), "coarse");
        w.push(SimTime((1u64 << 36) + 7), "far");
        assert_eq!(w.peek().map(|(t, &p)| (t, p)), Some((SimTime(100), "near")));
        assert_eq!(w.pop().unwrap().payload, "near");
        w.push(SimTime(50), "overdue");
        let mut order = Vec::new();
        while let Some((t, &p)) = w.peek() {
            let ev = w.pop().unwrap();
            assert_eq!((ev.time, ev.payload), (t, p));
            order.push(p);
        }
        assert_eq!(order, ["overdue", "coarse", "far"]);
    }

    #[test]
    fn far_future_deadlines_survive_the_horizon() {
        let mut w = TimingWheel::new();
        let near = SimTime(10);
        let far = SimTime((1u64 << 36) + 123); // beyond the wheel horizon
        w.push(near, "near");
        w.push(far, "far");
        assert_eq!(w.pop().unwrap().payload, "near");
        assert_eq!(w.peek_time(), Some(far));
        let ev = w.pop().unwrap();
        assert_eq!((ev.time, ev.payload), (far, "far"));
    }

    #[test]
    fn empty_refill_reanchors_without_fallbacks() {
        let mut w = TimingWheel::new();
        w.push(SimTime(1_000_000), 1u32);
        assert_eq!(w.pop().unwrap().payload, 1);
        // Refill at an earlier absolute time: with the wheel empty this
        // re-anchors the cursor instead of classifying the push as overdue.
        w.push(SimTime(5), 2);
        assert!(w.overdue.is_empty());
        assert_eq!(w.pop().unwrap().payload, 2);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = TimingWheel::new();
        w.push(SimTime::from_secs(10), 1u32);
        assert!(w.pop_due(SimTime::from_secs(9)).is_none());
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop_due(SimTime::from_secs(10)).unwrap().payload, 1);
        assert!(w.is_empty());
    }

    #[test]
    fn drain_due_into_reuses_the_buffer() {
        let mut w = TimingWheel::new();
        let mut buf = Vec::with_capacity(8);
        for s in [1u64, 2, 3] {
            w.push(SimTime::from_secs(s), s);
        }
        w.drain_due_into(SimTime::from_secs(2), &mut buf);
        assert_eq!(
            buf.iter().map(|e| e.payload).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let cap = buf.capacity();
        w.drain_due_into(SimTime::from_secs(5), &mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.capacity(), cap, "buffer allocation is reused");
    }

    #[test]
    fn drain_due_into_collects_in_order() {
        let mut w = TimingWheel::new();
        let mut buf = Vec::new();
        for t in [5u64, 1, 3, 2, 4] {
            w.push(SimTime(t), t);
        }
        w.drain_due_into(SimTime(3), &mut buf);
        assert_eq!(buf.iter().map(|e| e.payload).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(w.len(), 2);
    }
}
