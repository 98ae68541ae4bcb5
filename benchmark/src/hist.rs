//! A fixed-size log-linear latency histogram, and the median-of-rounds
//! helper every timing metric goes through.

/// Sub-buckets per power of two: 32 keeps a bucket under 3.2 % wide.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values below `2 * SUB` ns get a bucket each; above that every power of
/// two splits into `SUB` linear sub-buckets, up to the full u64 range.
const BUCKETS: usize = (2 * SUB as usize) + (63 - SUB_BITS as usize) * SUB as usize;

fn bucket_of(ns: u64) -> usize {
    if ns < 2 * SUB {
        return ns as usize;
    }
    let msb = 63 - u64::from(ns.leading_zeros());
    let shift = msb - u64::from(SUB_BITS);
    let sub = (ns >> shift) - SUB;
    (2 * SUB + (shift - 1) * SUB + sub) as usize
}

/// `[low, low + width)`: the values bucket `idx` holds.
fn bucket_range(idx: usize) -> (u64, u64) {
    if idx < 2 * SUB as usize {
        return (idx as u64, 1);
    }
    let off = idx as u64 - 2 * SUB;
    let shift = off / SUB + 1;
    ((SUB + off % SUB) << shift, 1 << shift)
}

/// Nanosecond samples of one operation class. O(1) per sample, no
/// allocation after construction, mergeable bucket-wise.
#[derive(Clone)]
pub struct Hist {
    count: u64,
    buckets: Box<[u64]>,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            buckets: vec![0; BUCKETS].into_boxed_slice(),
        }
    }
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside its
    /// bucket so that two runs do not read identically just because they
    /// share a bucket. `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // The sample of rank `target` (1-based, fractional) is wanted.
        let target = (q * self.count as f64).clamp(1.0, self.count as f64);
        let mut below = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (below + n) as f64 >= target {
                let (low, width) = bucket_range(idx);
                let into = (target - below as f64) / n as f64;
                return Some(low as f64 + into * width as f64);
            }
            below += n;
        }
        unreachable!("counts sum to self.count")
    }

    pub fn quantile_us(&self, q: f64) -> Option<f64> {
        self.quantile_ns(q).map(|ns| ns / 1000.0)
    }
}

/// Median of `values` (mean of the middle two when even). `None` when
/// empty or when any value is not finite.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix64;

    #[test]
    fn buckets_are_monotone_contiguous_and_cover_u64() {
        let mut expect_low = 0u64;
        for idx in 0..BUCKETS {
            let (low, width) = bucket_range(idx);
            assert_eq!(
                low,
                expect_low,
                "bucket {idx} starts where {} ended",
                idx.max(1) - 1
            );
            assert_eq!(bucket_of(low), idx);
            assert_eq!(bucket_of(low + (width - 1)), idx);
            expect_low = low.wrapping_add(width);
        }
        assert_eq!(expect_low, 0, "the last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_three_percent_of_the_exact_ones() {
        // Log-uniform samples from 50 ns to 50 ms: every octave is used.
        let mut rng = SplitMix64::new(11);
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| {
                let octave = 50u64 << (rng.next_u64() % 20);
                octave + rng.next_u64() % octave
            })
            .collect();
        let mut h = Hist::default();
        for &s in &exact {
            h.record(s);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
            let want = exact[((q * exact.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile_ns(q).unwrap();
            assert!(
                (got - want).abs() / want <= 0.03,
                "q={q}: histogram {got}, exact {want}"
            );
        }
    }

    #[test]
    fn interpolation_separates_runs_whose_median_shares_a_bucket() {
        // 20_000 and 20_500 sit in neighbouring buckets; the median falls in
        // the first one both times, one sample further along in `b`.
        assert_eq!(bucket_of(20_000) + 1, bucket_of(20_500));
        let mut a = Hist::default();
        for i in 0..1000u64 {
            a.record(if i < 600 { 20_000 } else { 20_500 });
        }
        let mut b = a.clone();
        b.record(20_500);
        let (ma, mb) = (a.quantile_ns(0.5).unwrap(), b.quantile_ns(0.5).unwrap());
        assert_eq!(bucket_of(ma as u64), bucket_of(mb as u64));
        assert!(ma < mb, "{ma} vs {mb}");
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut all = Hist::default();
        let mut parts = [Hist::default(), Hist::default()];
        for i in 0..10_000u64 {
            let ns = i * i % 1_000_003;
            all.record(ns);
            parts[(i % 2) as usize].record(ns);
        }
        let mut merged = parts[0].clone();
        merged.merge(&parts[1]);
        assert_eq!(merged.count(), all.count());
        for q in [0.5, 0.99] {
            assert_eq!(merged.quantile_ns(q), all.quantile_ns(q));
        }
        merged.clear();
        assert_eq!(merged.count(), 0);
        assert_eq!(merged.quantile_ns(0.5), None);
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // One wild round out of ten does not move the reported value.
        let mut rounds = vec![10.0; 9];
        rounds.push(1e9);
        assert_eq!(median(&rounds), Some(10.0));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[1.0, f64::INFINITY]), None);
    }
}
