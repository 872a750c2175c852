//! Counters and gauges.
//!
//! Counters are monotonically increasing (`add` only); gauges move in
//! both directions and additionally remember their high-water mark, which is
//! what the dashboard reports for "peak concurrent requests" and "peak busy
//! nodes".

use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by `delta`.
    pub fn add(&mut self, delta: u64) {
        self.value += delta;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Merge another counter into this one (sums).
    pub fn merge(&mut self, other: &Counter) {
        self.value += other.value;
    }
}

/// A point-in-time gauge with a retained high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    value: f64,
    peak: f64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to an absolute value.
    pub fn set(&mut self, value: f64) {
        self.value = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Add `delta` (may be negative).
    pub fn add(&mut self, delta: f64) {
        self.set(self.value + delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Highest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
        let mut other = Counter::new();
        other.add(8);
        c.merge(&other);
        assert_eq!(c.get(), 50);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let mut g = Gauge::new();
        g.set(3.0);
        g.add(1.0);
        assert_eq!(g.get(), 4.0);
        assert_eq!(g.peak(), 4.0);
        g.add(-2.0);
        assert_eq!(g.get(), 2.0);
        // Peak is sticky.
        assert_eq!(g.peak(), 4.0);
        g.set(10.5);
        assert_eq!(g.peak(), 10.5);
    }

    #[test]
    fn gauge_may_go_negative() {
        let mut g = Gauge::new();
        g.add(-2.5);
        assert_eq!(g.get(), -2.5);
        assert_eq!(g.peak(), 0.0);
    }
}
