//! The log2-bucketed histogram: a lock-free live instrument plus a plain
//! mergeable snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: one for the value 0 plus one per power of
/// two up to `2^64`.
pub const BUCKETS: usize = 65;

/// The bucket index of a value: 0 for 0, otherwise the number of
/// significant bits (so bucket `k` holds `[2^(k-1), 2^k - 1]`). A pure
/// function of the value — bucketing never depends on observation order.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// The smallest value landing in bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// The largest value landing in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    debug_assert!(i < BUCKETS);
    if i == 0 {
        0
    } else if i == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A thread-safe log2 histogram. `observe` is lock-free (relaxed atomics),
/// so it is safe on evaluation hot paths; read it out with
/// [`Histogram::snapshot`].
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket counts; the total count is their sum, so `observe`
    /// keeps no separate counter.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    /// `u64::MAX` while empty — the identity of `min`.
    min: AtomicU64,
    /// `0` while empty — the identity of `max`.
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // fetch_add wraps on overflow, matching the snapshot's wrapping
        // merge, so the concat/merge law holds even for pathological sums.
        self.sum.fetch_add(v, Ordering::Relaxed);
        // Min and max rarely move once warm: a plain load first skips two
        // read-modify-writes per observation on the common path.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().fold(0, |n: u64, &b| n.wrapping_add(b)),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot — the identity of [`HistogramSnapshot::merge`].
    pub fn new() -> Self {
        HistogramSnapshot::default()
    }

    /// Records one observation (the offline sibling of
    /// [`Histogram::observe`]).
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Associative and commutative, with the
    /// empty snapshot as identity: `merge(a, b)` equals observing the
    /// concatenation of both observation streams, exactly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (slot, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += n;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Wrapping sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Per-bucket counts (index via [`bucket_of`], edges via
    /// [`bucket_lower`] / [`bucket_upper`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// An estimate of the `q`-quantile (`q` clamped to `[0, 1]`), or
    /// `None` when empty.
    ///
    /// The estimate is the upper edge of the bucket holding the rank
    /// `ceil(q·count)` observation, clamped to the observed `[min, max]`
    /// range — so it always lies within the selected bucket's edges and
    /// is monotone in `q`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(bucket_upper(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_lower(i)), i);
            assert_eq!(bucket_of(bucket_upper(i)), i);
            if i + 1 < BUCKETS {
                assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1));
            }
        }
    }

    #[test]
    fn live_and_offline_histograms_agree() {
        let live = Histogram::new();
        let mut off = HistogramSnapshot::new();
        for v in [0, 1, 7, 8, 1_000_000, u64::MAX] {
            live.observe(v);
            off.observe(v);
        }
        assert_eq!(live.snapshot(), off);
    }

    #[test]
    fn quantiles_hit_exact_buckets() {
        let mut h = HistogramSnapshot::new();
        for v in [10u64, 20, 30, 40, 1_000] {
            h.observe(v);
        }
        // rank 1 lives in bucket 4 ([8, 15]); p99 selects the last value,
        // whose bucket upper edge (1023) clamps to the observed max.
        assert_eq!(h.quantile(0.0), Some(15));
        assert_eq!(h.quantile(0.99), Some(1_000));
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.95).unwrap());
        assert_eq!(HistogramSnapshot::new().quantile(0.5), None);
    }

    #[test]
    fn merge_identity_and_minmax() {
        let mut a = HistogramSnapshot::new();
        a.observe(5);
        a.observe(500);
        let mut b = HistogramSnapshot::new();
        b.merge(&a);
        assert_eq!(a, b);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(500));
        assert_eq!(HistogramSnapshot::new().min(), None);
    }
}
