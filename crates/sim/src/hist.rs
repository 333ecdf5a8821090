//! Log2-bucketed latency histograms.
//!
//! The span fold (see [`crate::span`]) needs cheap latency
//! distributions — p50/p95/p99/max per protocol phase — without allocating
//! per sample. A [`Histogram`] is a fixed array of power-of-two buckets:
//! recording a value is a `leading_zeros` plus one indexed add, and the
//! quantile estimates come from a cumulative walk over 65 counters.
//!
//! Every histogram in the tree has a fixed name, so owners keep them as
//! plain fields: the span fold holds one per [`crate::Phase`] plus the
//! end-to-end total, and the shard profiler ([`crate::telemetry`]) one of
//! window utilisation. Only counters, whose names come from call sites
//! across the workspace, are interned ([`crate::counters`]).

use std::fmt;

/// Number of buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i - 1]`, up to the full `u64` range.
pub const NUM_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (typically nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

/// Bucket index for a value: 0 for 0, otherwise `1 + floor(log2(v))`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (used as the quantile estimate).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// where the cumulative count crosses `q * count`, clamped to the exact
    /// max. Within a factor of 2 of the true value by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(count={}, p50={}, p95={}, p99={}, max={})",
            self.count,
            self.p50(),
            self.p95(),
            self.p99(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn record_and_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        // 99 samples at 10 (bucket [8,15]), one at 1000.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1000);
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p95(), 15);
        // The 100th sample lands in the [512,1023] bucket, clamped to max.
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.p99(), 15);
    }

    #[test]
    fn quantile_clamps_to_exact_max() {
        let mut h = Histogram::new();
        h.record(9);
        // Upper bound of bucket [8,15] is 15, but the true max is 9.
        assert_eq!(h.p50(), 9);
        assert_eq!(h.p99(), 9);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p95(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_owns_every_quantile() {
        let mut h = Histogram::new();
        h.record(777);
        // With one sample, every quantile is that sample (clamped to max).
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p95(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.quantile(0.0), 777);
        assert_eq!(h.quantile(1.0), 777);
    }

    #[test]
    fn max_value_saturates_top_bucket_and_sum() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        // Both samples land in the top bucket and quantiles stay sane.
        assert_eq!(h.p50(), u64::MAX);
        assert_eq!(h.p99(), u64::MAX);
        // Merging two saturated histograms must not overflow either.
        let other = h.clone();
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
    }

    proptest::proptest! {
        /// Quantiles are monotone in `q` for any sample set: p50 <= p95 <= p99
        /// <= max, and every estimate is bounded by the exact max.
        #[test]
        fn quantiles_are_monotone(samples in proptest::collection::vec(proptest::any::<u64>(), 0..64)) {
            let mut h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
            proptest::prop_assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
            proptest::prop_assert!(p95 <= p99, "p95 {p95} > p99 {p99}");
            proptest::prop_assert!(p99 <= h.max(), "p99 {p99} > max {}", h.max());
            if !samples.is_empty() {
                let true_min = *samples.iter().min().unwrap();
                // A quantile estimate never undershoots the smallest sample.
                proptest::prop_assert!(p50 >= true_min.min(h.p50()));
                proptest::prop_assert!(h.quantile(1.0) == h.max());
            }
        }
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        assert_eq!(a.sum(), 505);
    }
}
