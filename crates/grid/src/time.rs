//! Simulated time.
//!
//! The grid substrate is a discrete-event simulation: Table 1's run times
//! are *simulated* minutes/hours on 2009 hardware profiles, not wall time
//! of this process. `SimTime` is integral seconds since simulation start,
//! which keeps event ordering exact and arithmetic deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (seconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_secs(self) -> u64 {
        self.0
    }

    pub fn as_minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s)
    }

    /// Round fractional minutes up to whole seconds (durations never round
    /// to zero unless exactly zero).
    pub fn from_minutes(m: f64) -> Self {
        SimDuration((m * 60.0).ceil().max(0.0) as u64)
    }

    pub fn from_hours(h: f64) -> Self {
        Self::from_minutes(h * 60.0)
    }

    pub fn as_secs(self) -> u64 {
        self.0
    }

    pub fn as_minutes(self) -> f64 {
        self.0 as f64 / 60.0
    }

    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3600.0
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
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
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / 86_400;
        let h = (self.0 % 86_400) / 3600;
        let m = (self.0 % 3600) / 60;
        let s = self.0 % 60;
        if d > 0 {
            write!(f, "{d}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        SimTime(self.0).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
        assert_eq!(SimTime(10) - SimTime(50), SimDuration(0)); // saturates
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(SimDuration::from_minutes(1.5).as_secs(), 90);
        assert_eq!(SimDuration::from_hours(2.0).as_hours(), 2.0);
        assert_eq!(SimTime(7200).as_hours(), 2.0);
        assert_eq!(SimDuration::from_minutes(0.0), SimDuration::ZERO);
        // fractional seconds round up, never silently to zero
        assert_eq!(SimDuration::from_minutes(0.001).as_secs(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime(3661).to_string(), "01:01:01");
        assert_eq!(SimTime(90_061).to_string(), "1d 01:01:01");
    }
}
