//! Lock-free metric primitives: counters, log2 histograms, span timers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i`, i.e. bucket 0 holds the value `0` and bucket `i ≥ 1`
/// covers `[2^(i-1), 2^i - 1]`.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event counter.
///
/// All updates are relaxed atomics: counters are observational only and
/// never synchronize simulation state.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed histogram with exact count, sum, min and max.
///
/// Buckets are coarse (powers of two) but the aggregate moments are
/// exact, which is what run-level reports care about; per-bucket counts
/// give the shape. All fields are atomics, so concurrent recording from
/// many sessions is safe and lock-free.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a value falls into (its bit length).
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < BUCKETS);
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count() == 0 {
            None
        } else {
            Some(self.max.load(Ordering::Relaxed))
        }
    }

    /// Per-bucket counts (index = bit length of the value).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Start a span whose elapsed nanoseconds are recorded on drop.
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            // wm-lint: allow(determinism/wall-clock, reason = "telemetry spans measure real elapsed wall time by design; span durations are observability output and never feed simulated bytes")
            start: Instant::now(),
        }
    }

    /// Time a closure, recording elapsed nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.span();
        f()
    }

    /// Fold in every observation of `local`, exactly as if each had
    /// been recorded here.
    pub fn absorb(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        for (bucket, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        self.min.fetch_min(local.min, Ordering::Relaxed);
        self.max.fetch_max(local.max, Ordering::Relaxed);
    }
}

/// A single-owner histogram: [`Histogram`]'s buckets and exact moments
/// in plain integers.
///
/// A hot loop that owns its measurements records here without atomics
/// or shared handles, and its owner publishes the result once with
/// [`Histogram::absorb`] (the pattern the online decoder's plain stats
/// follow).
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    pub fn new() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        if let Some(bucket) = self.buckets.get_mut(Histogram::bucket_index(value)) {
            *bucket += 1;
        }
        self.count += 1;
        // Wraps like the atomic sum it is published into.
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Start a span whose elapsed nanoseconds are recorded on drop.
    pub fn span(&mut self) -> LocalSpan<'_> {
        LocalSpan {
            hist: self,
            // wm-lint: allow(determinism/wall-clock, reason = "telemetry spans measure real elapsed wall time by design; span durations are observability output and never feed simulated bytes")
            start: Instant::now(),
        }
    }
}

/// RAII timer: records elapsed wall-clock nanoseconds into its
/// histogram when dropped.
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// RAII timer over a [`LocalHistogram`]: records elapsed wall-clock
/// nanoseconds when dropped.
pub struct LocalSpan<'a> {
    hist: &'a mut LocalHistogram,
    start: Instant,
}

impl Drop for LocalSpan<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        // Every bucket's hi + 1 is the next bucket's lo, with no gaps.
        let mut expect_lo = 0u64;
        for i in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(lo, expect_lo, "bucket {i} lo");
            assert!(hi >= lo);
            // Boundary values map back to this bucket.
            assert_eq!(Histogram::bucket_index(lo), i);
            assert_eq!(Histogram::bucket_index(hi), i);
            if hi == u64::MAX {
                assert_eq!(i, BUCKETS - 1);
                return;
            }
            expect_lo = hi + 1;
        }
    }

    #[test]
    fn histogram_moments_exact() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        for v in [5u64, 0, 1000, 17] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1022);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[3], 1); // 5
        assert_eq!(buckets[5], 1); // 17
        assert_eq!(buckets[10], 1); // 1000
    }

    #[test]
    fn absorbing_a_local_histogram_equals_recording_directly() {
        let values = [5u64, 0, 1000, 17, u64::MAX, 3];
        let direct = Histogram::new();
        let mut local = LocalHistogram::new();
        for v in values {
            direct.record(v);
            local.record(v);
        }
        let published = Histogram::new();
        published.record(9);
        direct.record(9);
        published.absorb(&local);
        published.absorb(&LocalHistogram::new());
        assert_eq!(published.count(), direct.count());
        assert_eq!(published.sum(), direct.sum());
        assert_eq!(published.min(), direct.min());
        assert_eq!(published.max(), direct.max());
        assert_eq!(published.bucket_counts(), direct.bucket_counts());
        assert_eq!(local.count(), values.len() as u64);
    }

    #[test]
    fn local_span_records_once() {
        let mut h = LocalHistogram::new();
        drop(h.span());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn span_records_positive_nanos() {
        let h = Histogram::new();
        h.time(|| std::hint::black_box((0..1000).sum::<u64>()));
        assert_eq!(h.count(), 1);
    }
}
