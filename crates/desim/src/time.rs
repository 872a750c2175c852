//! Virtual time for the discrete-event simulation.
//!
//! All simulation time is carried as integer microseconds ([`SimTime`]) so
//! ordering is exact and runs are bit-for-bit reproducible; floating point is
//! only used at the edges when converting to human-readable seconds.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds since the start of the
/// simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub(crate) u64);

/// A span of virtual time, measured in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// This instant expressed in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in whole microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600 * 1_000_000)
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This duration expressed in whole microseconds.
    pub fn as_micros(&self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative scalar.
    pub fn mul_f64(&self, factor: f64) -> SimDuration {
        SimDuration((self.0 as f64 * factor.max(0.0)).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(7).as_micros(), 7);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_hours(1).as_micros(), 3_600_000_000);
    }

    #[test]
    fn arithmetic_is_saturating() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - SimTime::from_secs(3), SimDuration::from_secs(7));
        // Subtracting a later time saturates to zero rather than wrapping.
        assert_eq!(SimTime::from_secs(1) - t, SimDuration::ZERO);
        assert_eq!(SimTime::MAX + d, SimTime::MAX);
    }

    #[test]
    fn negative_float_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_scales_durations() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_follows_microseconds() {
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
        assert!(SimDuration::from_micros(2) > SimDuration::from_micros(1));
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }
}
