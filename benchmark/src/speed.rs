//! The reference box does not run at one speed. It is a small guest on a
//! shared host, and for seconds to minutes at a time everything a thread
//! computes takes 10-40% longer, with nothing in `/proc/stat` to show for
//! it (README, "Speed"). No median inside a run removes a slow minute.
//!
//! So the threads that do the measured work also run, every few
//! milliseconds, one unit of fixed work from this file, and every time
//! the benchmark reports end to end is scaled by how long those units
//! took next to it: a time is multiplied by [`Speed::factor`], a rate
//! divided by it. The result is the time the work takes on the box
//! running at [`REFERENCE_UNIT_S`] per unit. The unit uses nothing but
//! `std`, so no change to the program can move it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::median;

/// What one unit takes on the reference box in its ordinary state.
pub const REFERENCE_UNIT_S: f64 = 150e-6;

/// One unit of fixed work of the program's kind (format a record, hash
/// its bytes, file it in an ordered map); returns the seconds it took.
pub fn unit() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..600u64 {
        let key = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20;
        let text = format!("{{\"id\":{key},\"status\":\"DONE\",\"detail\":\"polled {i}\"}}");
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        map.insert(key, text);
    }
    std::hint::black_box((hash, map.len()));
    start.elapsed().as_secs_f64()
}

/// The units one thread ran next to a stretch of measured work.
#[derive(Default, Clone)]
pub struct Speed {
    unit_s: Vec<f64>,
}

impl Speed {
    /// Run `n` units now.
    pub fn sample(&mut self, n: usize) {
        self.unit_s.extend((0..n).map(|_| unit()));
    }

    pub fn push(&mut self, unit_s: f64) {
        self.unit_s.push(unit_s);
    }

    /// Seconds the units themselves took; the caller takes them out of
    /// the wall time of the work they were run between.
    pub fn spent_s(&self) -> f64 {
        self.unit_s.iter().sum()
    }

    /// Reference speed over the speed the units ran at (their median, so
    /// that a unit the scheduler interrupted does not count): below 1
    /// while the box is slow. 1 when no unit was run.
    pub fn factor(&self) -> f64 {
        median(&self.unit_s).map_or(1.0, |s| REFERENCE_UNIT_S / s)
    }
}

/// A stretch of work timed between units.
pub struct Timed {
    pub start: Instant,
    pub end: Instant,
    pub factor: f64,
}

impl Timed {
    /// Seconds the work took, at reference speed.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * self.factor
    }
}

/// Units run before and after a piece of work that cannot be interrupted
/// (a set-up, a reopen): 3 ms on either side.
const UNITS_AROUND: usize = 20;

/// Time `work` with units run on this thread before and after it.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Timed) {
    let mut speed = Speed::default();
    speed.sample(UNITS_AROUND);
    let start = Instant::now();
    let out = work();
    let end = Instant::now();
    speed.sample(UNITS_AROUND);
    (out, Timed { start, end, factor: speed.factor() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_box_scales_times_down() {
        let mut speed = Speed::default();
        assert_eq!(speed.factor(), 1.0);
        // two units at half the reference speed, one interrupted
        for s in [2.0 * REFERENCE_UNIT_S, 2.0 * REFERENCE_UNIT_S, 50.0 * REFERENCE_UNIT_S] {
            speed.push(s);
        }
        assert_eq!(speed.factor(), 0.5);
        assert_eq!(speed.spent_s(), 54.0 * REFERENCE_UNIT_S);
    }

    #[test]
    fn a_unit_takes_time() {
        assert!(unit() > 0.0);
    }
}
