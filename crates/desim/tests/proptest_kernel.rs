//! Property-based tests for the DES kernel invariants.

use first_desim::{Histogram, IdWindow, SimRng, SimTime, TimingWheel};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Counting allocator: lets the drain-due property assert its empty case is
/// allocation-free (the per-tick hot path of every event loop). The count is
/// per-thread — libtest runs sibling tests on parallel threads, and their
/// allocations must not race this thread's assertion window.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: allocations during TLS teardown must not panic.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.with(|c| c.get())
}

proptest! {
    /// Popping the event queue (the timing wheel) always yields
    /// non-decreasing timestamps, and events with equal timestamps come out
    /// in insertion order.
    #[test]
    fn event_queue_pops_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut q = TimingWheel::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_seq_time = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last_time);
            if Some(ev.time) == last_seq_time {
                // same timestamp: insertion index must increase
                prop_assert!(seen_at_time.last().map(|&p| p < ev.payload).unwrap_or(true));
                seen_at_time.push(ev.payload);
            } else {
                seen_at_time = vec![ev.payload];
                last_seq_time = Some(ev.time);
            }
            last_time = ev.time;
        }
    }

    /// Draining the due events of the timing wheel never returns an event
    /// later than `now` and leaves only later events in the queue.
    #[test]
    fn drain_due_partitions_correctly(
        times in proptest::collection::vec(0u64..1_000_000, 0..200),
        cut in 0u64..1_000_000,
    ) {
        let mut q = TimingWheel::new();
        for &t in &times {
            q.push(SimTime::from_micros(t), t);
        }
        let now = SimTime::from_micros(cut);
        let mut due = Vec::new();
        q.drain_due_into(now, &mut due);
        for ev in &due {
            prop_assert!(ev.time <= now);
        }
        prop_assert_eq!(due.len() + q.len(), times.len());
        if let Some(t) = q.peek_time() {
            prop_assert!(t > now);
        }
        // Micro-assertion: draining when nothing is due must not allocate —
        // this is the per-tick fast path of every event loop.
        let before = allocation_count();
        prop_assert!(q.pop_due(now).is_none());
        q.drain_due_into(now, &mut due);
        prop_assert!(due.is_empty());
        prop_assert_eq!(allocation_count(), before);
    }

    /// Histogram percentiles are bounded by min and max and are monotone in p.
    #[test]
    fn histogram_percentiles_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let lo = h.min();
        let hi = h.max();
        let mut prev = lo;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = h.percentile(p);
            prop_assert!(v >= lo && v <= hi);
            prop_assert!(v >= prev - 1e-9);
            prev = v;
        }
    }

    /// Zipf and weighted_index always return an in-range index.
    #[test]
    fn rng_indices_in_range(seed in 0u64..u64::MAX, n in 1usize..64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let z = rng.zipf(n, 1.0);
        prop_assert!(z < n);
        let weights: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let w = rng.weighted_index(&weights);
        prop_assert!(w < n);
    }

    /// Events scheduled for the same instant drain in insertion order, no
    /// matter how many simultaneous events pile up — the property that keeps
    /// fault injection reproducible when a fault, a completion and an arrival
    /// coincide.
    #[test]
    fn simultaneous_events_drain_in_insertion_order(
        time in 0u64..1_000_000,
        count in 1usize..200,
    ) {
        let t = SimTime::from_micros(time);
        let mut q = TimingWheel::new();
        for i in 0..count {
            q.push(t, i);
        }
        let mut drained = Vec::new();
        q.drain_due_into(t, &mut drained);
        prop_assert_eq!(drained.len(), count);
        for (expected, ev) in drained.iter().enumerate() {
            prop_assert_eq!(ev.payload, expected);
            prop_assert_eq!(ev.time, t);
        }
        prop_assert!(q.is_empty());
    }

    /// The timing wheel agrees with a reference binary heap on every pop:
    /// the same `(time, seq, payload)` triples in the same order, across
    /// same-instant bursts, past-due pushes (dated before events already
    /// popped) and far-future times beyond the wheel horizon.
    #[test]
    fn wheel_matches_reference_heap(
        ops in proptest::collection::vec((0u64..4, 0u64..1_000_000), 1..300),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64; // mirrors the wheel's internal insertion sequence
        let mut watermark = 0u64; // latest popped firing time, in µs
        for &(kind, raw) in &ops {
            match kind {
                // Burst of simultaneous events at one instant.
                0 => {
                    let t = watermark + raw % 10_000;
                    for _ in 0..3 {
                        wheel.push(SimTime::from_micros(t), seq);
                        heap.push(Reverse((t, seq, seq)));
                        seq += 1;
                    }
                }
                // Past-due push: at or below the time already popped past.
                1 => {
                    let t = watermark.saturating_sub(raw % 10_000);
                    wheel.push(SimTime::from_micros(t), seq);
                    heap.push(Reverse((t, seq, seq)));
                    seq += 1;
                }
                // Far-future push, often beyond a near level's span.
                2 => {
                    let t = watermark + (raw % 64) * (1u64 << 31) + raw;
                    wheel.push(SimTime::from_micros(t), seq);
                    heap.push(Reverse((t, seq, seq)));
                    seq += 1;
                }
                // Peek, then pop one from each; both must agree exactly.
                _ => {
                    let peeked = wheel.peek().map(|(t, &p)| (t, p));
                    let top = heap
                        .peek()
                        .map(|&Reverse((t, _, p))| (SimTime::from_micros(t), p));
                    prop_assert_eq!(peeked, top);
                    match (wheel.pop(), heap.pop()) {
                        (None, None) => {}
                        (Some(ev), Some(Reverse((t, s, p)))) => {
                            prop_assert_eq!(ev.time, SimTime::from_micros(t));
                            prop_assert_eq!(ev.seq, s);
                            prop_assert_eq!(ev.payload, p);
                            watermark = t;
                        }
                        (w, h) => prop_assert!(
                            false,
                            "wheel {:?} vs heap {:?} diverged on emptiness",
                            w.map(|e| e.time),
                            h.map(|Reverse((t, ..))| t)
                        ),
                    }
                }
            }
        }
        // Drain the remainder in lockstep.
        loop {
            match (wheel.pop(), heap.pop()) {
                (None, None) => break,
                (Some(ev), Some(Reverse((t, s, p)))) => {
                    prop_assert_eq!(ev.time, SimTime::from_micros(t));
                    prop_assert_eq!(ev.seq, s);
                    prop_assert_eq!(ev.payload, p);
                }
                (w, h) => prop_assert!(
                    false,
                    "wheel {:?} vs heap {:?} diverged on emptiness",
                    w.map(|e| e.time),
                    h.map(|Reverse((t, ..))| t)
                ),
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Two RNGs with the same seed emit bit-identical streams across every
    /// distribution helper, in any interleaving of draw kinds — the
    /// determinism contract seeded fault plans and workloads build on.
    #[test]
    fn rng_streams_are_bit_identical_for_equal_seeds(
        seed in 0u64..u64::MAX,
        kinds in proptest::collection::vec(0usize..6, 1..150),
    ) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for &kind in &kinds {
            let (x, y) = match kind {
                0 => (a.uniform01(), b.uniform01()),
                1 => (a.exponential(3.0), b.exponential(3.0)),
                2 => (a.lognormal_mean_cv(200.0, 0.8), b.lognormal_mean_cv(200.0, 0.8)),
                3 => (a.zipf(32, 1.1) as f64, b.zipf(32, 1.1) as f64),
                4 => (a.uniform(5.0, 9.0), b.uniform(5.0, 9.0)),
                _ => (a.standard_normal(), b.standard_normal()),
            };
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // Derived child streams stay in lockstep too.
        let mut ca = a.derive(17);
        let mut cb = b.derive(17);
        for _ in 0..16 {
            prop_assert_eq!(ca.uniform01().to_bits(), cb.uniform01().to_bits());
        }
    }

    /// `IdWindow` agrees with a `BTreeMap` over random sequences of fresh
    /// inserts (ids handed out in order, sometimes skipping a few),
    /// re-inserts of old ids and out-of-order removes; after every step its
    /// span covers exactly the live ids, and it is empty once every id is
    /// removed.
    #[test]
    fn id_window_matches_a_btreemap(
        ops in proptest::collection::vec((0u8..4, 0u64..1_000), 1..300),
    ) {
        let mut window = IdWindow::new();
        let mut reference = BTreeMap::new();
        let mut next_id = 1u64;
        for (step, &(kind, pick)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    let id = next_id + pick % 3;
                    next_id = id + 1;
                    prop_assert_eq!(window.insert(id, step), reference.insert(id, step));
                }
                2 => {
                    let id = pick % next_id;
                    prop_assert_eq!(window.insert(id, step), reference.insert(id, step));
                }
                _ => {
                    let id = pick % (next_id + 2);
                    prop_assert_eq!(window.remove(id), reference.remove(&id));
                }
            }
            for id in 0..next_id + 2 {
                prop_assert_eq!(window.get(id), reference.get(&id));
            }
            prop_assert_eq!(window.len(), reference.len());
            let live_span = match (reference.keys().next(), reference.keys().next_back()) {
                (Some(&oldest), Some(&newest)) => (newest - oldest + 1) as usize,
                _ => 0,
            };
            prop_assert_eq!(window.span(), live_span);
            prop_assert!(window.values().eq(reference.values()));
        }
        let ids: Vec<u64> = reference.keys().copied().collect();
        for id in ids.into_iter().rev() {
            prop_assert_eq!(window.remove(id), reference.remove(&id));
        }
        prop_assert!(window.is_empty());
        prop_assert_eq!(window.span(), 0);
    }
}
