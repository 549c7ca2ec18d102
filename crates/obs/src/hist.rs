//! Fixed-bucket log2 latency histograms.
//!
//! 64 buckets cover the whole `u64` range — bucket `i` holds values in
//! `[2^i, 2^(i+1))` (bucket 0 additionally holds 0) — so recording is a
//! `leading_zeros` and an array increment: no allocation, no branching on
//! data, and merging two histograms is slot-wise addition (associative and
//! commutative, so per-worker partials can fold in any order).

/// A log2 histogram: fixed 64-bucket layout plus count and sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// The bucket index for `v`: floor(log2(v)), with 0 landing in
    /// bucket 0.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// The exclusive upper bound of bucket `i` (`2^(i+1)`, saturated).
    #[inline]
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` in slot-wise.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (index `i` covers `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// The approximate `p`-th percentile (0.0–1.0): the exclusive upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(p * count)`. 0 when empty. The log2 layout bounds the error
    /// to 2× — the right trade for latency distributions, where the shape
    /// (which decade) matters, not the third digit.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bound(i);
            }
        }
        u64::MAX
    }
}

/// The pipeline's latency histograms, carried (and merged slot-wise) in
/// `RunStats`. Units are nanoseconds under real execution and traversal
/// steps under the virtual-time simulator — consistent within any one run,
/// per the backend that filled them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsHists {
    /// Per-query latency (one sample per query answered).
    pub query_latency: LogHistogram,
    /// Time acquiring the work-list lock (one sample per fetch that
    /// waited; threaded backend only).
    pub lock_wait: LogHistogram,
    /// Dequeue-to-completion makespan of each query group.
    pub group_makespan: LogHistogram,
}

impl ObsHists {
    /// Folds another set in slot-wise.
    pub fn merge(&mut self, other: &ObsHists) {
        self.query_latency.merge(&other.query_latency);
        self.lock_wait.merge(&other.lock_wait);
        self.group_makespan.merge(&other.group_makespan);
    }

    /// Whether no histogram holds any sample.
    pub fn is_empty(&self) -> bool {
        self.query_latency.is_empty() && self.lock_wait.is_empty() && self.group_makespan.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 and 1 share bucket 0; [2^i, 2^(i+1)) lands in bucket i.
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(7), 2);
        assert_eq!(LogHistogram::bucket_of(8), 3);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 63);
        for i in 1..63 {
            let lo = 1u64 << i;
            assert_eq!(LogHistogram::bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                LogHistogram::bucket_of(lo * 2 - 1),
                i,
                "upper edge of bucket {i}"
            );
        }
        assert_eq!(LogHistogram::bucket_bound(0), 2);
        assert_eq!(LogHistogram::bucket_bound(10), 2048);
        assert_eq!(LogHistogram::bucket_bound(63), u64::MAX);
    }

    #[test]
    fn record_tracks_count_sum_mean() {
        let mut h = LogHistogram::new();
        assert!(h.is_empty());
        h.record(1);
        h.record(100);
        h.record(10_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 10_101);
        assert!((h.mean() - 10_101.0 / 3.0).abs() < 1e-9);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[6], 1, "100 in [64,128)");
        assert_eq!(h.buckets()[13], 1, "10000 in [8192,16384)");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900]);
        let b = mk(&[0, 5, 17, u64::MAX]);
        let c = mk(&[2, 2, 2]);
        // (a+b)+c == a+(b+c)
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "associative");
        // a+b == b+a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        // Merge equals recording the concatenation.
        let all = mk(&[1, 5, 900, 0, 5, 17, u64::MAX, 2, 2, 2]);
        assert_eq!(ab_c, all);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = LogHistogram::new();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for _ in 0..90 {
            h.record(10); // bucket 3, bound 16
        }
        for _ in 0..10 {
            h.record(1000); // bucket 9, bound 1024
        }
        assert_eq!(h.percentile(0.5), 16);
        assert_eq!(h.percentile(0.9), 16);
        assert_eq!(h.percentile(0.95), 1024);
        assert_eq!(h.percentile(1.0), 1024);
    }

    #[test]
    fn obs_hists_merge_slot_wise() {
        let mut a = ObsHists::default();
        a.query_latency.record(5);
        a.lock_wait.record(7);
        let mut b = ObsHists::default();
        b.query_latency.record(9);
        b.group_makespan.record(100);
        a.merge(&b);
        assert_eq!(a.query_latency.count(), 2);
        assert_eq!(a.lock_wait.count(), 1);
        assert_eq!(a.group_makespan.count(), 1);
        assert!(!a.is_empty());
        assert!(ObsHists::default().is_empty());
    }
}
