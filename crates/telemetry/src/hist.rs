//! Fixed-bucket logarithmic duration histograms.
//!
//! A [`DurationHist`] is 64 power-of-two nanosecond buckets in a plain
//! array: recording is a `leading_zeros` and an increment — no
//! allocation, no branching on bucket boundaries — which is what lets
//! the active recorder keep one histogram per phase live on the solve
//! hot path under the counting-allocator gate.

/// Number of buckets; bucket `i > 0` holds durations in
/// `[2^(i-1), 2^i)` nanoseconds, bucket 0 holds `0` ns.
pub(crate) const BUCKETS: usize = 64;

/// A fixed-size log2-scale histogram of nanosecond durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurationHist {
    counts: [u64; BUCKETS],
}

impl Default for DurationHist {
    fn default() -> Self {
        DurationHist::new()
    }
}

impl DurationHist {
    /// An empty histogram.
    pub const fn new() -> DurationHist {
        DurationHist {
            counts: [0; BUCKETS],
        }
    }

    /// Bucket index for a duration.
    #[inline]
    fn bucket(ns: u64) -> usize {
        // 0 → 0; otherwise 1 + floor(log2(ns)), saturating at the top.
        (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Records one duration. Allocation-free.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
    }

    /// Merges another histogram into this one (saturating: counts read
    /// from a damaged file must not overflow).
    pub(crate) fn merge(&mut self, other: &DurationHist) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c = c.saturating_add(*o);
        }
    }

    /// Total number of recorded durations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The raw bucket counts.
    pub(crate) fn buckets(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Reconstructs a histogram from raw bucket counts; shorter slices
    /// are zero-padded (the serialized form trims trailing zeros).
    pub(crate) fn from_buckets(counts: &[u64]) -> Option<DurationHist> {
        if counts.len() > BUCKETS {
            return None;
        }
        let mut h = DurationHist::new();
        h.counts[..counts.len()].copy_from_slice(counts);
        Some(h)
    }

    /// An upper bound (in ns) on the `q`-quantile recorded duration
    /// (`0.0 <= q <= 1.0`); `None` when empty. Resolution is the bucket
    /// width, i.e. a factor of two.
    pub(crate) fn quantile_upper_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i == 0 { 0 } else { 1u64 << i.min(63) });
            }
        }
        Some(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = DurationHist::new();
        h.record(0); // bucket 0
        h.record(1); // [1,2) → bucket 1
        h.record(2); // [2,4) → bucket 2
        h.record(3);
        h.record(1024); // bucket 11
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[11], 1);
        h.record(u64::MAX); // saturates into the top bucket
        assert_eq!(h.buckets()[BUCKETS - 1], 1);
    }

    #[test]
    fn merge_and_quantiles() {
        let mut a = DurationHist::new();
        let mut b = DurationHist::new();
        for _ in 0..90 {
            a.record(100); // bucket 7, upper bound 128
        }
        for _ in 0..10 {
            b.record(100_000); // bucket 17, upper bound 131072
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.quantile_upper_ns(0.5), Some(128));
        assert_eq!(a.quantile_upper_ns(0.99), Some(131_072));
        assert_eq!(DurationHist::new().quantile_upper_ns(0.5), None);
    }

    #[test]
    fn quantile_rank_math_is_pinned() {
        // Ceil-rank semantics: with counts [2 in bucket 1, 2 in bucket 3],
        // rank(q) = max(1, ceil(q * 4)).
        let mut h = DurationHist::new();
        h.record(1); // bucket 1, upper bound 2
        h.record(1);
        h.record(5); // bucket 3, upper bound 8
        h.record(7);
        assert_eq!(h.quantile_upper_ns(0.0), Some(2), "q=0 is the minimum");
        assert_eq!(h.quantile_upper_ns(0.25), Some(2)); // rank 1
        assert_eq!(h.quantile_upper_ns(0.5), Some(2)); // rank 2
        assert_eq!(h.quantile_upper_ns(0.51), Some(8)); // rank 3
        assert_eq!(h.quantile_upper_ns(0.75), Some(8)); // rank 3
        assert_eq!(h.quantile_upper_ns(1.0), Some(8), "q=1 is the maximum");
        assert_eq!(h.quantile_upper_ns(2.0), Some(8), "q clamps to [0,1]");

        // Bucket 0 (exact zero durations) reports an upper bound of 0.
        let mut z = DurationHist::new();
        z.record(0);
        assert_eq!(z.quantile_upper_ns(0.5), Some(0));

        // The saturating top bucket reports 2^63 (its lower bound —
        // the only representable bound) rather than overflowing.
        let mut top = DurationHist::new();
        top.record(u64::MAX);
        assert_eq!(top.quantile_upper_ns(0.5), Some(1u64 << 63));
    }

    #[test]
    fn roundtrip_from_trimmed_buckets() {
        let mut h = DurationHist::new();
        h.record(7);
        h.record(900);
        let trimmed: Vec<u64> = {
            let b = h.buckets();
            let last = b.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            b[..last].to_vec()
        };
        assert!(trimmed.len() < BUCKETS);
        assert_eq!(DurationHist::from_buckets(&trimmed), Some(h));
        assert!(DurationHist::from_buckets(&[0; 65]).is_none());
    }
}
