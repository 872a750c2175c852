//! Online statistics and latency histograms used by every benchmark harness,
//! plus the kernel instrumentation hook ([`kernel`], [`SimMeter`]) that turns
//! a simulation run into machine-readable wall-clock/event-rate numbers.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Kernel-level run counters.
///
/// The simulation kernel is distributed across components (each substrate
/// drives its own event logic), so the counters live here as thread-local
/// cells: any event loop — [`crate::EventQueue`] pops or the scenario
/// runners in `first-core` — reports into the same per-thread tally with a
/// single `Cell` increment, cheap enough for the hottest path. Thread-locals
/// keep parallel test threads from polluting each other; benchmark binaries
/// are single-threaded, so their readings are exact.
pub mod kernel {
    use std::cell::Cell;

    thread_local! {
        static EVENTS_PROCESSED: Cell<u64> = const { Cell::new(0) };
        static PEAK_QUEUE_DEPTH: Cell<usize> = const { Cell::new(0) };
        static DEPTH_EPOCH: Cell<u64> = const { Cell::new(0) };
    }

    /// Record one processed simulation event.
    #[inline]
    pub fn record_event() {
        EVENTS_PROCESSED.with(|c| c.set(c.get() + 1));
    }

    /// Record an observed queue depth; the running peak keeps the maximum.
    #[inline]
    pub fn record_queue_depth(depth: usize) {
        PEAK_QUEUE_DEPTH.with(|c| {
            if depth > c.get() {
                c.set(depth);
            }
        });
    }

    /// Events processed on this thread since the last [`reset`].
    pub fn events_processed() -> u64 {
        EVENTS_PROCESSED.with(|c| c.get())
    }

    /// Largest queue depth observed on this thread since the last [`reset`].
    pub fn peak_queue_depth() -> usize {
        PEAK_QUEUE_DEPTH.with(|c| c.get())
    }

    /// Current depth epoch: advances on every [`reset`]. Queues cache the
    /// largest depth they have reported per epoch so repeat depths skip the
    /// thread-local peak update entirely; comparing epochs tells them when
    /// that cache went stale.
    pub fn depth_epoch() -> u64 {
        DEPTH_EPOCH.with(|c| c.get())
    }

    /// Reset both counters (called by [`super::SimMeter::start`]) and
    /// advance the depth epoch so per-queue peak caches invalidate.
    pub fn reset() {
        EVENTS_PROCESSED.with(|c| c.set(0));
        PEAK_QUEUE_DEPTH.with(|c| c.set(0));
        DEPTH_EPOCH.with(|c| c.set(c.get() + 1));
    }
}

/// Wall-clock + kernel-counter measurement of one simulation run: the numbers
/// every `BENCH_<name>.json` artifact records and the perf-regression gate
/// compares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRunStats {
    /// Host wall-clock time the run took, in seconds.
    pub wall_time_s: f64,
    /// Virtual time the simulation covered, in seconds.
    pub sim_time_s: f64,
    /// Simulation events processed (deterministic for a fixed seed).
    pub events_processed: u64,
    /// Largest event/task queue depth observed during the run.
    pub peak_queue_depth: usize,
}

impl SimRunStats {
    /// Events processed per wall-clock second (0 for an instantaneous run).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_time_s <= 0.0 {
            0.0
        } else {
            self.events_processed as f64 / self.wall_time_s
        }
    }

    /// How much faster than real time the simulation ran
    /// (virtual seconds per wall second; 0 for an instantaneous run).
    pub fn speedup(&self) -> f64 {
        if self.wall_time_s <= 0.0 {
            0.0
        } else {
            self.sim_time_s / self.wall_time_s
        }
    }

    /// Fold another run's measurement into this one: times add, the peak
    /// queue depth keeps the maximum. Lets a harness that meters several
    /// sub-runs separately (meters must not be nested) report one total.
    pub fn merge(&mut self, other: &SimRunStats) {
        self.wall_time_s += other.wall_time_s;
        self.sim_time_s += other.sim_time_s;
        self.events_processed += other.events_processed;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
    }
}

/// Measures a simulation run: wall-clock time plus the [`kernel`] counters.
///
/// `start` resets the thread's kernel counters, so meters must not be nested
/// on one thread; every benchmark binary wraps its whole measurement section
/// in a single meter.
#[derive(Debug)]
pub struct SimMeter {
    started: Instant,
}

impl SimMeter {
    /// Start measuring: resets the kernel counters and the wall clock.
    pub fn start() -> Self {
        kernel::reset();
        SimMeter {
            started: Instant::now(),
        }
    }

    /// Finish measuring a run that covered `sim_elapsed` of virtual time.
    pub fn finish(self, sim_elapsed: SimTime) -> SimRunStats {
        SimRunStats {
            wall_time_s: self.started.elapsed().as_secs_f64(),
            sim_time_s: sim_elapsed.as_secs_f64(),
            events_processed: kernel::events_processed(),
            peak_queue_depth: kernel::peak_queue_depth(),
        }
    }
}

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl OnlineStats {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance, or 0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean = (n1 * self.mean + n2 * other.mean) / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A sample reservoir that records every observation (latencies per request
/// are at most a few hundred thousand per experiment, so exact percentiles
/// are affordable and simpler than an approximate sketch).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Create an empty histogram with preallocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Histogram {
            samples: Vec::with_capacity(capacity),
            sorted: true,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.sum() / self.samples.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]` using the rounded linear rank
    /// `round(p/100 · (n−1))` into the sorted samples — NOT the classic
    /// nearest-rank `⌈p/100 · n⌉` definition; the two differ by up to one
    /// sample position (e.g. p50 of `[1, 2, 3, 4]` is `3` here, `2` under
    /// nearest-rank). Every golden report pins values produced by this
    /// rule, so the formula is part of the replay contract. `p` is clamped
    /// to `[0, 100]`; returns 0 when empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.percentile(99.0)
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&mut self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.ensure_sorted();
            self.samples[0]
        }
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&mut self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.ensure_sorted();
            *self.samples.last().unwrap()
        }
    }

    /// Read-only percentile in `[0, 100]`: the `&self` counterpart of
    /// [`Histogram::percentile`], computing the same rounded linear rank
    /// `round(p/100 · (n−1))` (see there for how this differs from
    /// nearest-rank), for scrape paths that must not mutate the
    /// histogram. Uses the sorted cache when it is fresh; otherwise sorts a
    /// temporary copy of the samples and leaves the cache untouched, so the
    /// call is idempotent and never perturbs equality or serialization of
    /// the histogram it reads.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        let rank = rank.min(self.samples.len() - 1);
        if self.sorted {
            return self.samples[rank];
        }
        let mut copy = self.samples.clone();
        copy.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        copy[rank]
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A named counter set — the lightweight metrics primitive used by the
/// gateway metrics layer and the benchmark reports.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CounterSet {
    entries: Vec<(String, u64)>,
}

impl CounterSet {
    /// Create an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter, creating it at zero if missing.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(e) = self.entries.iter_mut().find(|(n, _)| n == name) {
            e.1 += delta;
        } else {
            self.entries.push((name.to_string(), delta));
        }
    }

    /// Increment the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the named counter (0 if absent).
    pub fn get(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn online_stats_merge_equals_single_stream() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 5.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert!((h.median() - 50.0).abs() <= 1.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert!((h.p95() - 95.0).abs() <= 1.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_percentile_boundaries() {
        // A single sample answers every percentile.
        let mut one = Histogram::new();
        one.record(7.5);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(one.percentile(p), 7.5);
            assert_eq!(one.quantile(p), 7.5);
        }
        // p=0 is the minimum, p=100 the maximum, out-of-range p clamps.
        let mut h = Histogram::new();
        for x in [4.0, 1.0, 3.0, 2.0] {
            h.record(x);
        }
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(100.0), 4.0);
        assert_eq!(h.percentile(-5.0), 1.0);
        assert_eq!(h.percentile(250.0), 4.0);
        // Rounded linear rank, not nearest-rank: round(0.5 * 3) = 2 → the
        // third sorted sample. (Nearest-rank would give the second, 2.0.)
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.quantile(50.0), 3.0);
        // NaN samples must not poison the sort: the `partial_cmp` fallback
        // to `Equal` keeps the comparator total, so the call is panic-free,
        // no sample is lost, and the answer is always a recorded sample
        // (which one is unspecified when NaN neighbours short-circuit the
        // ordering — metrics paths never record NaN, this pins graceful
        // degradation, not a numeric result).
        let mut with_nan = Histogram::new();
        for x in [2.0, f64::NAN, 1.0] {
            with_nan.record(x);
        }
        let p0 = with_nan.percentile(0.0);
        assert!(p0.is_nan() || p0 == 1.0 || p0 == 2.0, "answer is a sample");
        assert_eq!(with_nan.count(), 3);
    }

    #[test]
    fn histogram_merge_combines_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1.0);
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn counter_set_accumulates() {
        let mut c = CounterSet::new();
        c.incr("requests");
        c.add("requests", 4);
        c.incr("errors");
        assert_eq!(c.get("requests"), 5);
        assert_eq!(c.get("errors"), 1);
        assert_eq!(c.get("missing"), 0);
        assert_eq!(c.iter().count(), 2);
    }
}
