//! Log-linear power-of-two-bucket histograms.
//!
//! The bucket layout is shared by every histogram in the workspace —
//! server-side batch timings and `paco-load` round-trip latencies both
//! record into the same scheme, so their snapshots merge and their
//! quantiles mean the same thing.
//!
//! Values are non-negative integers (typically nanoseconds or event
//! counts). The first [`SUB_COUNT`] values get exact unit buckets; above
//! that, each power-of-two octave is split into [`SUB_COUNT`] linear
//! sub-buckets, so the relative width of any bucket is at most
//! `1 / SUB_COUNT` (12.5%) of its value. Computing a bucket index is a
//! leading-zeros instruction plus two shifts — no loops, no floats, no
//! allocation — which is what lets the atomic [`Histogram`] sit on the
//! serving hot path.
//!
//! [`HistogramSnapshot`] is the plain (non-atomic) form: it records,
//! merges (bucket-wise addition — associative and commutative, pinned by
//! proptests), and answers quantile queries. The atomic [`Histogram`] is
//! the concurrent recorder; [`Histogram::snapshot`] lowers it into a
//! snapshot for reading.

use std::sync::atomic::{AtomicU64, Ordering};

/// Log2 of the number of linear sub-buckets per power-of-two octave.
pub const SUB_BITS: u32 = 3;

/// Linear sub-buckets per octave (and the number of exact unit buckets
/// at the bottom of the range).
pub const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count: [`SUB_COUNT`] unit buckets for values below
/// [`SUB_COUNT`], then [`SUB_COUNT`] sub-buckets for each of the
/// `64 - SUB_BITS` remaining octaves of the `u64` range.
pub const BUCKET_COUNT: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// The bucket index of `value`: identity below [`SUB_COUNT`], otherwise
/// octave-base plus the top [`SUB_BITS`] bits below the leading one.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize; // >= SUB_BITS
    let sub = ((value >> (msb - SUB_BITS as usize)) & (SUB_COUNT as u64 - 1)) as usize;
    SUB_COUNT + ((msb - SUB_BITS as usize) << SUB_BITS) + sub
}

/// The smallest value that lands in bucket `index`.
///
/// # Panics
///
/// Panics if `index >= BUCKET_COUNT`.
#[inline]
pub fn bucket_lower(index: usize) -> u64 {
    assert!(index < BUCKET_COUNT, "bucket index out of range");
    if index < SUB_COUNT {
        return index as u64;
    }
    let octave = (index - SUB_COUNT) >> SUB_BITS;
    let sub = ((index - SUB_COUNT) & (SUB_COUNT - 1)) as u64;
    (SUB_COUNT as u64 + sub) << octave
}

/// The largest value that lands in bucket `index`.
#[inline]
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 < BUCKET_COUNT {
        bucket_lower(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// A plain, mergeable histogram: fixed bucket array plus exact sum and
/// max. Doubles as the single-threaded recorder (`paco-load` sessions,
/// the bench probe) and as the read-side snapshot of the atomic
/// [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Box<[u64]>,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// An empty histogram.
    pub fn new() -> Self {
        HistogramSnapshot {
            buckets: vec![0u64; BUCKET_COUNT].into_boxed_slice(),
            sum: 0,
            max: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        // Wrapping, to match the atomic recorder's `fetch_add` exactly
        // (latency sums in nanoseconds wrap after ~584 years of
        // recorded time; bucket counts carry the real distribution).
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values (wrapping, like the atomic recorder).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum as f64 / count as f64
    }

    /// The per-bucket occupancy counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Accumulates `other` into `self` — bucket-wise addition, exact-sum
    /// addition, max of maxes. Associative and commutative (the proptest
    /// suite pins both), so per-thread recorders pool in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) under the nearest-rank
    /// definition, with linear interpolation inside the chosen bucket.
    /// The result always lies within the bucket holding the exact
    /// order statistic, so the error against an exact-sort percentile is
    /// bounded by one bucket width (≤ `1/SUB_COUNT` relative). Returns
    /// 0.0 when empty; `q = 1.0` returns the exact recorded max.
    pub fn quantile(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max as f64;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let lower = bucket_lower(i);
                // The top bucket's nominal upper bound is u64::MAX;
                // clamp interpolation to the recorded max so quantiles
                // never exceed an observed value.
                let upper = bucket_upper(i).min(self.max);
                let into = (rank - cum) as f64 / n as f64;
                return lower as f64 + (upper.saturating_sub(lower)) as f64 * into;
            }
            cum += n;
        }
        self.max as f64
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::new()
    }
}

/// The concurrent recorder: one relaxed atomic add into a bucket, one
/// into the sum, one `fetch_max` — no locks, no allocation, wait-free on
/// every architecture that has fetch-and-add. Threads share the bucket
/// array; under write contention the adds still make progress (they are
/// single RMW instructions), and reads ([`snapshot`](Self::snapshot))
/// see a merge-consistent view (counts may trail sums by in-flight
/// records, which is harmless for monotonic telemetry).
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. Hot-path safe: two shifts, a leading-zeros,
    /// and three relaxed atomic RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Recorded values (sum over buckets).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Lowers the atomic state into a plain [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Box<[u64]> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let mut snap = HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        };
        // A snapshot races concurrent records; clamp max so the
        // invariant max >= any bucket's lower bound with occupancy
        // holds even mid-record.
        if snap.count() == 0 {
            snap.max = 0;
            snap.sum = 0;
        }
        snap
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..SUB_COUNT as u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [
            0,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            1000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(
                bucket_lower(i) <= v && v <= bucket_upper(i),
                "value {v} outside bucket {i}: [{}, {}]",
                bucket_lower(i),
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn buckets_tile_the_range_contiguously() {
        for i in 0..BUCKET_COUNT - 1 {
            assert_eq!(
                bucket_upper(i) + 1,
                bucket_lower(i + 1),
                "gap or overlap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Above the unit range, a bucket spans at most lower/SUB_COUNT.
        for i in SUB_COUNT..BUCKET_COUNT - 1 {
            let lower = bucket_lower(i);
            let width = bucket_upper(i) - lower + 1;
            assert!(
                width <= lower / SUB_COUNT as u64 + 1,
                "bucket {i} too wide: [{lower}, {}]",
                bucket_upper(i)
            );
        }
    }

    #[test]
    fn snapshot_records_and_summarizes() {
        let mut h = HistogramSnapshot::new();
        for v in [3, 3, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1116);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 223.2).abs() < 1e-9);
        assert!(!h.is_empty());
        // Unit-bucket values come back exactly.
        assert_eq!(h.quantile(0.2), 3.0);
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn atomic_and_plain_recorders_agree() {
        let atomic = Histogram::new();
        let mut plain = HistogramSnapshot::new();
        for v in 0..10_000u64 {
            let x = v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            atomic.record(x);
            plain.record(x);
        }
        assert_eq!(atomic.snapshot(), plain);
        assert_eq!(atomic.count(), plain.count());
    }

    #[test]
    fn empty_quantiles_are_zero() {
        let h = HistogramSnapshot::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_pools_counts() {
        let mut a = HistogramSnapshot::new();
        let mut b = HistogramSnapshot::new();
        for v in [1, 2, 3] {
            a.record(v);
        }
        for v in [100, 200] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum(), 306);
        assert_eq!(merged.max(), 200);
    }
}
