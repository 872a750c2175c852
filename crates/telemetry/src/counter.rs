//! Counters and gauges.
//!
//! Counters are monotonically increasing (`add` only); gauges move in
//! both directions and additionally remember their high-water mark, which is
//! what the dashboard reports for "peak concurrent requests" and "peak busy
//! nodes".

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Counter {
    value: u64,
}

impl Counter {
    /// Increment by `delta`.
    pub(crate) fn add(&mut self, delta: u64) {
        self.value += delta;
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.value
    }
}

/// A point-in-time gauge with a retained high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Gauge {
    value: f64,
    peak: f64,
}

impl Gauge {
    /// Set the gauge to an absolute value.
    pub(crate) fn set(&mut self, value: f64) {
        self.value = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        self.value
    }

    /// Highest value ever set.
    pub(crate) fn peak(&self) -> f64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_value_and_peak() {
        let mut g = Gauge::default();
        g.set(3.0);
        g.set(4.0);
        assert_eq!(g.get(), 4.0);
        assert_eq!(g.peak(), 4.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        // Peak is sticky.
        assert_eq!(g.peak(), 4.0);
        g.set(10.5);
        assert_eq!(g.peak(), 10.5);
    }

    #[test]
    fn gauge_may_go_negative() {
        let mut g = Gauge::default();
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
        assert_eq!(g.peak(), 0.0);
    }
}
