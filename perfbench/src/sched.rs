//! Open-loop pacing: every operation has an intended start on a fixed
//! schedule, latency runs from that intended start, and the generator
//! reports how late it ran.

use std::time::Instant;

/// Nanoseconds since `t0`.
#[inline]
pub fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Spins until `due` ns after `t0` and returns the actual start. A late
/// generator starts at once: it never skips or re-plans an operation.
#[inline]
pub fn wait_until(t0: Instant, due: u64) -> u64 {
    loop {
        let now = since(t0);
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Generator lateness. An operation counts as late when it started more
/// than one inter-arrival interval after it was due, i.e. once the next
/// operation was already due as well.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lateness {
    pub ops: u64,
    pub late: u64,
    pub max_late_ns: u64,
}

impl Lateness {
    pub fn record(&mut self, due: u64, start: u64, interval: u64) {
        let late = start.saturating_sub(due);
        self.ops += 1;
        self.late += u64::from(late > interval);
        self.max_late_ns = self.max_late_ns.max(late);
    }

    pub fn merge(&mut self, other: &Lateness) {
        self.ops += other.ops;
        self.late += other.late;
        self.max_late_ns = self.max_late_ns.max(other.max_late_ns);
    }

    pub fn late_frac(&self) -> f64 {
        ratio(self.late, self.ops)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_on_a_synthetic_schedule() {
        // Due every 100 ns; a stall delays op 1 and the ops queued behind it.
        let due = [0u64, 100, 200, 300, 400];
        let start = [5u64, 250, 260, 301, 400];
        let mut l = Lateness::default();
        for (d, s) in due.iter().zip(start) {
            l.record(*d, s, 100);
        }
        assert_eq!(l.ops, 5);
        assert_eq!(l.late, 1, "only op 1 started after the next op was due");
        assert_eq!(l.max_late_ns, 150);
        assert_eq!(l.late_frac(), 0.2);

        let mut total = Lateness::default();
        total.merge(&l);
        total.merge(&Lateness {
            ops: 5,
            late: 4,
            max_late_ns: 90_000,
        });
        assert_eq!((total.ops, total.late, total.max_late_ns), (10, 5, 90_000));
        assert_eq!(total.late_frac(), 0.5);
        assert_eq!(Lateness::default().late_frac(), 0.0);
    }

    #[test]
    fn a_late_generator_starts_at_once() {
        let t0 = Instant::now();
        let start = wait_until(t0, 0);
        assert!(start < 1_000_000_000);
        let due = since(t0) + 20_000;
        assert!(wait_until(t0, due) >= due);
    }
}
