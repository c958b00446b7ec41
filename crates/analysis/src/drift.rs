//! Windowed-divergence drift detection over calibration profiles.
//!
//! The serving layer summarizes each session's recent behaviour as a
//! calibration profile — occupancy-binned predicted confidence plus a
//! mispredict rate — and asks, window after window, "does this still
//! look like the workload family the session declared?". The two pure
//! pieces of that question live here, unit-testable without a server:
//!
//! * [`occupancy_distance`] — how differently two profiles *distribute*
//!   their confidence mass (total-variation distance over bins);
//! * [`CusumDetector`] — a one-sided CUSUM accumulator that turns a
//!   stream of per-window divergence scores into a drift flag, tolerant
//!   of isolated noisy windows but sensitive to a sustained shift.

/// Total-variation distance between the bin-occupancy distributions of
/// two profiles, in `[0, 1]`: `0` for identically-shaped profiles, `1`
/// for disjoint support. Each profile is a slice of
/// `(instances, successes)` pairs (only the instance counts matter
/// here); a profile with no instances at all is treated as distance `0`
/// from anything — there is no evidence of divergence in an empty
/// window.
///
/// # Panics
///
/// Panics if the slices have different lengths (bin layouts must match,
/// as in [`merge_bin_pairs`](crate::merge_bin_pairs)).
pub fn occupancy_distance(a: &[(u64, u64)], b: &[(u64, u64)]) -> f64 {
    assert_eq!(a.len(), b.len(), "bin layouts must match");
    let total_a: u64 = a.iter().map(|&(n, _)| n).sum();
    let total_b: u64 = b.iter().map(|&(n, _)| n).sum();
    if total_a == 0 || total_b == 0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (&(na, _), &(nb, _)) in a.iter().zip(b) {
        let fa = na as f64 / total_a as f64;
        let fb = nb as f64 / total_b as f64;
        acc += (fa - fb).abs();
    }
    acc / 2.0
}

/// One-sided CUSUM drift detector over per-window divergence scores.
///
/// Each completed window contributes its divergence `d`; the detector
/// accumulates `cusum = max(0, cusum + d - threshold)` and raises a
/// latched flag once the accumulator exceeds `limit`. Windows whose
/// divergence stays at or below `threshold` bleed the accumulator back
/// toward zero, so isolated noisy windows are forgiven while a
/// sustained regime shift crosses the limit within a few windows.
///
/// Every observed window accumulates: a caller whose divergence source
/// needs a few windows to settle skips them before feeding the detector
/// (the serving watch and `AdaptiveMrt` each do).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CusumDetector {
    threshold: f64,
    limit: f64,
    cusum: f64,
    last: f64,
    windows: u64,
    flagged_at: Option<u64>,
}

impl CusumDetector {
    /// Creates a detector: per-window divergence above `threshold`
    /// accumulates; the flag latches when the accumulator passes
    /// `limit`.
    pub fn new(threshold: f64, limit: f64) -> Self {
        CusumDetector {
            threshold,
            limit,
            cusum: 0.0,
            last: 0.0,
            windows: 0,
            flagged_at: None,
        }
    }

    /// Feeds one completed window's divergence score; returns the
    /// (latched) flag state.
    pub fn observe(&mut self, divergence: f64) -> bool {
        self.windows += 1;
        self.last = divergence;
        self.cusum = (self.cusum + divergence - self.threshold).max(0.0);
        if self.flagged_at.is_none() && self.cusum > self.limit {
            self.flagged_at = Some(self.windows);
        }
        self.flagged_at.is_some()
    }

    /// Returns the detector to its post-construction state: clears the
    /// accumulator, the latch, and the window count. The
    /// `threshold`/`limit` configuration is untouched.
    pub fn reset(&mut self) {
        self.cusum = 0.0;
        self.last = 0.0;
        self.windows = 0;
        self.flagged_at = None;
    }

    /// The current accumulator value.
    pub fn cusum(&self) -> f64 {
        self.cusum
    }

    /// Overwrites the detector's dynamic state — accumulator, last
    /// divergence, window count, and latch — from a snapshot taken via
    /// the read accessors. Configuration (`threshold`/`limit`) is not
    /// part of the dynamic state and must match the snapshot's by
    /// construction; callers (e.g. session restore in `paco-core`)
    /// rebuild the detector from config first, then splice the
    /// dynamics back in.
    pub fn restore(&mut self, cusum: f64, last: f64, windows: u64, flagged_at: Option<u64>) {
        self.cusum = cusum;
        self.last = last;
        self.windows = windows;
        self.flagged_at = flagged_at;
    }

    /// The most recent window's divergence score (0 before any window).
    pub fn last_divergence(&self) -> f64 {
        self.last
    }

    /// Windows observed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Whether the drift flag has latched.
    pub fn is_flagged(&self) -> bool {
        self.flagged_at.is_some()
    }

    /// The 1-based observed-window index at which the flag latched, if
    /// it has.
    pub fn flagged_at(&self) -> Option<u64> {
        self.flagged_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_profiles_have_zero_distance() {
        let a = [(10, 5), (0, 0), (90, 80)];
        assert_eq!(occupancy_distance(&a, &a), 0.0);
        // Scale invariance: occupancy is a distribution, not a count.
        let b = [(100, 1), (0, 0), (900, 2)];
        assert!(occupancy_distance(&a, &b) < 1e-12);
    }

    #[test]
    fn disjoint_profiles_have_unit_distance() {
        let a = [(100, 0), (0, 0)];
        let b = [(0, 0), (100, 0)];
        assert!((occupancy_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_zero_distance() {
        let a = [(0, 0), (0, 0)];
        let b = [(5, 1), (5, 5)];
        assert_eq!(occupancy_distance(&a, &b), 0.0);
        assert_eq!(occupancy_distance(&b, &a), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin layouts")]
    fn mismatched_layouts_panic() {
        occupancy_distance(&[(1, 0)], &[(1, 0), (2, 0)]);
    }

    #[test]
    fn quiet_stream_never_flags() {
        let mut d = CusumDetector::new(0.1, 0.5);
        for _ in 0..10_000 {
            assert!(!d.observe(0.05));
        }
        assert_eq!(d.cusum(), 0.0);
        assert_eq!(d.flagged_at(), None);
    }

    #[test]
    fn sustained_shift_flags_and_latches() {
        let mut d = CusumDetector::new(0.1, 0.5);
        for _ in 0..20 {
            d.observe(0.02); // steady state
        }
        assert!(!d.is_flagged());
        let mut flagged_window = None;
        for _ in 0..10 {
            if d.observe(0.4) && flagged_window.is_none() {
                flagged_window = d.flagged_at();
            }
        }
        // 0.3 net gain per window crosses 0.5 on the second shifted
        // window: window 20 + 2.
        assert_eq!(flagged_window, Some(22));
        // The flag latches: quiet windows afterwards don't clear it.
        for _ in 0..100 {
            assert!(d.observe(0.0));
        }
        assert_eq!(d.flagged_at(), Some(22));
    }

    #[test]
    fn isolated_spike_is_forgiven() {
        let mut d = CusumDetector::new(0.1, 0.5);
        d.observe(0.55); // one bad window: cusum 0.45, under the limit
        assert!(!d.is_flagged());
        for _ in 0..5 {
            d.observe(0.0); // bleeds back to zero
        }
        assert_eq!(d.cusum(), 0.0);
        assert!(!d.is_flagged());
        assert_eq!(d.windows(), 6);
        assert_eq!(d.last_divergence(), 0.0);
    }
}
