//! Log-bucketed latency histograms with lossless merge-by-summation.
//!
//! The telemetry of PR 1 records stage timings as a plain sum of
//! microseconds, which answers "how much time in total" but not "what did
//! the distribution look like" — a single 200 ms outlier and two hundred
//! 1 ms restores are indistinguishable. [`LatencyHistogram`] fixes that
//! with a fixed table of 64 power-of-two buckets: recording is one index
//! computation (`leading_zeros`) and one increment, merging two histograms
//! is element-wise summation exactly like
//! [`TelemetrySnapshot::merge`](crate::TelemetrySnapshot::merge), so the
//! histogram an N-worker sweep merges from its workers equals the histogram
//! a one-worker sweep records.
//!
//! Values are unit-agnostic `u64`s; the flight recorder stores wall-clock
//! nanoseconds, the harness stages store wall-clock microseconds.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of power-of-two buckets in every histogram.
///
/// Bucket `0` holds zeros, bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`; bucket 63 additionally absorbs everything above
/// `2^62`, so no `u64` value is ever out of range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed 64-bucket power-of-two latency histogram.
///
/// Buckets merge by summation and the running `sum` makes the exact mean
/// recoverable; percentiles are bucket-resolution estimates (the lower
/// bound of the bucket containing the requested rank).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    sum: u64,
}

crate::impl_to_json!(struct LatencyHistogram { buckets, sum });

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram { buckets: vec![0; HISTOGRAM_BUCKETS], sum: 0 }
    }

    /// The bucket a value lands in: `0` for zero, otherwise
    /// `floor(log2(value)) + 1`, capped at the last bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The smallest value that lands in bucket `idx`.
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            1u64 << (idx.min(HISTOGRAM_BUCKETS - 1) - 1)
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        self.buckets[Self::bucket_index(value)] += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
    }

    /// Sums another histogram into this one (parallel-worker aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all recorded values (exact, not bucket-rounded).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| *b == 0)
    }

    /// Exact mean of the recorded values, `0` when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Bucket-resolution percentile estimate: the floor of the bucket
    /// containing the observation at rank `ceil(p/100 * count)`.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = (((p.clamp(0.0, 100.0) / 100.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

/// The `&self` sibling of [`LatencyHistogram`] for shared recorders: the
/// same buckets as relaxed atomics, so `Telemetry` can histogram stage
/// timings without taking `&mut`.
pub(crate) struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, value: u64) {
        self.buckets[LatencyHistogram::bucket_index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.sum.store(0, Relaxed);
    }

    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            sum: self.sum.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_over_powers_of_two() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut last = 0;
        for shift in 0..64 {
            let idx = LatencyHistogram::bucket_index(1u64 << shift);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn bucket_floor_round_trips_bucket_index() {
        for idx in 0..HISTOGRAM_BUCKETS {
            let floor = LatencyHistogram::bucket_floor(idx);
            assert_eq!(LatencyHistogram::bucket_index(floor), idx);
        }
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [0, 1, 7, 1000, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [3, 3, 900_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 8);
    }

    #[test]
    fn percentile_and_mean_behave() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(50.0), LatencyHistogram::bucket_floor(4), "10 is in [8,16)");
        assert_eq!(h.percentile(100.0), LatencyHistogram::bucket_floor(20));
        assert_eq!(h.mean(), (99 * 10 + 1_000_000) / 100);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_plain_recording() {
        let atomic = AtomicHistogram::new();
        let mut plain = LatencyHistogram::new();
        for v in [5, 5, 123, 0] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
        atomic.reset();
        assert!(atomic.snapshot().is_empty());
    }
}
