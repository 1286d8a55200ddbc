//! Log-linear latency histogram for gated timings.
//!
//! Values below 128 ns get a bucket each; above that every octave is
//! split into 128 equal sub-buckets, so a bucket is never wider than
//! 1/128 (< 0.8%) of the values it holds. Percentiles interpolate
//! linearly inside the bucket that holds the target rank, treating a
//! recorded `v` as covering `[v, v + 1)`: a whole-nanosecond clock then
//! still yields a percentile with all its digits instead of snapping to
//! the same integer on every run.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Counts grow on demand up to the highest bucket recorded, so an empty
/// or narrow histogram costs little memory.
#[derive(Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
    max: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
    }
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let (group, sub) = (i as u64 / SUB, i as u64 % SUB);
    if group == 0 {
        (sub as f64, 1.0)
    } else {
        let shift = group - 1;
        (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let i = index(v);
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u128 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (`0 <= q <= 1`); 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bounds(i);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + width * frac;
            }
            below += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile of sorted samples: the reference.
    fn exact(sorted: &[u64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1] as f64
    }

    #[test]
    fn buckets_tile_the_range_with_bounded_width() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            1 << 20,
            u64::MAX / 3,
        ] {
            let (lo, width) = bounds(index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside its bucket"
            );
            assert!(width <= 1.0f64.max(lo / SUB as f64), "{v}: bucket too wide");
        }
        // One group of buckets below `SUB`, then one per octave up to 2^64.
        assert_eq!(
            index(u64::MAX),
            (64 - SUB_BITS as usize + 1) * SUB as usize - 1
        );
    }

    #[test]
    fn percentiles_of_known_samples() {
        let mut h = Hist::default();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        // 500 samples sit in [1, 501): the median is the top of value 500.
        assert_eq!(h.quantile(0.5), 501.0);
        // Bucket [988, 992) holds 988..=991; rank 990 is three quarters in.
        assert_eq!(h.quantile(0.99), 991.0);
        assert_eq!(h.mean(), 500.5);

        let mut same = Hist::default();
        for _ in 0..10 {
            same.record(100);
        }
        assert_eq!(same.quantile(0.5), 100.5);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn percentiles_stay_within_one_percent_of_sorted_samples() {
        let mut rng = solero_testkit::rng::TestRng::seed_from_u64(7);
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| 100 + rng.next_u64() % 2_000_000 / (1 + rng.next_u64() % 1000))
            .collect();
        let mut h = Hist::default();
        let (mut even, mut odd) = (Hist::default(), Hist::default());
        for (i, &v) in samples.iter().enumerate() {
            h.record(v);
            if i % 2 == 0 {
                even.record(v)
            } else {
                odd.record(v)
            }
        }
        even.merge(&odd);
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let (got, want) = (h.quantile(q), exact(&samples, q));
            assert!(
                (got - want).abs() <= want * 0.01 + 1.0,
                "q={q}: histogram {got} vs exact {want}"
            );
            assert_eq!(even.quantile(q), got, "merge must be lossless");
        }
    }
}
