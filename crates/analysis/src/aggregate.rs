//! Aggregation of per-run statistics into figure/table-level numbers.
//!
//! The experiment presentation layer (in `paco-bench`) is deliberately
//! thin: it maps engine cell results into these pure functions and prints
//! the output. Everything that *computes* — pooling reliability bins
//! across benchmarks, averaging gating trade-off points, comparing a
//! gated run against its baseline — lives here where it is unit-testable
//! without running a simulator.

/// Accumulates `more` into `acc`, element-wise over `(instances, good)`
/// pairs — the pooling step behind cumulative reliability diagrams
/// (paper Figure 9(f)).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn merge_bin_pairs(acc: &mut [(u64, u64)], more: &[(u64, u64)]) {
    assert_eq!(acc.len(), more.len(), "bin layouts must match");
    for (a, b) in acc.iter_mut().zip(more) {
        a.0 += b.0;
        a.1 += b.1;
    }
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile of `values` (`0.0 ..= 100.0`), with linear
/// interpolation between adjacent order statistics (the "linear" method
/// shared by numpy and R type 7).
///
/// This is the exact-sort *small-run oracle*: it clones and sorts the
/// whole sample on every call, so it is the reference answer for tests
/// (the streaming-histogram quantile bound is pinned against it) and
/// for one-off percentiles of modest samples. Callers that need several
/// percentiles of the same sample must sort once themselves and use
/// [`percentile_sorted`] for each, and big-run telemetry should stream
/// into a fixed-size histogram instead of accumulating samples at all.
///
/// # Examples
///
/// ```
/// use paco_analysis::percentile;
/// let v = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&v, 0.0), 1.0);
/// assert_eq!(percentile(&v, 50.0), 2.5);
/// assert_eq!(percentile(&v, 100.0), 4.0);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty, `p` is outside `[0, 100]`, or any value
/// is NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile sample"));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] over an already ascending-sorted sample: no clone, no
/// re-sort. Callers that need several percentiles sort once and call
/// this per quantile.
///
/// # Examples
///
/// ```
/// use paco_analysis::percentile_sorted;
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_sorted(&sorted, 50.0), 2.5);
/// assert_eq!(percentile_sorted(&sorted, 90.0), 3.7);
/// ```
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`. The sample
/// must already be ascending; this is debug-asserted, not checked in
/// release builds.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile {p} outside [0, 100]"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "percentile_sorted requires an ascending sample"
    );
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Summary statistics of a latency sample: count, mean and the
/// p50/p90/p99 percentiles the serving harness reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// The observables of one run a gating comparison needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPoint {
    /// Retired IPC.
    pub ipc: f64,
    /// Wrong-path instructions executed.
    pub badpath_executed: u64,
    /// Wrong-path instructions fetched.
    pub badpath_fetched: u64,
}

/// One point of the paper's Figure-10 trade-off space: performance loss
/// vs wrong-path reduction, gated run against ungated baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingTradeoff {
    /// Performance loss in percent (negative = speedup).
    pub perf_loss_pct: f64,
    /// Reduction in wrong-path instructions executed, percent.
    pub badpath_exec_reduction_pct: f64,
    /// Reduction in wrong-path instructions fetched, percent.
    pub badpath_fetch_reduction_pct: f64,
}

/// Compares a gated run against its ungated baseline.
pub fn gating_tradeoff(base: RunPoint, gated: RunPoint) -> GatingTradeoff {
    GatingTradeoff {
        perf_loss_pct: crate::perf_delta_pct(base.ipc, gated.ipc),
        badpath_exec_reduction_pct: crate::badpath_reduction_pct(
            base.badpath_executed,
            gated.badpath_executed,
        ),
        badpath_fetch_reduction_pct: crate::badpath_reduction_pct(
            base.badpath_fetched,
            gated.badpath_fetched,
        ),
    }
}

/// Component-wise mean of trade-off points — Figure 10 averages each
/// configuration over all modeled benchmarks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn mean_tradeoff(points: &[GatingTradeoff]) -> GatingTradeoff {
    assert!(!points.is_empty(), "need at least one trade-off point");
    let n = points.len() as f64;
    GatingTradeoff {
        perf_loss_pct: points.iter().map(|p| p.perf_loss_pct).sum::<f64>() / n,
        badpath_exec_reduction_pct: points
            .iter()
            .map(|p| p.badpath_exec_reduction_pct)
            .sum::<f64>()
            / n,
        badpath_fetch_reduction_pct: points
            .iter()
            .map(|p| p.badpath_fetch_reduction_pct)
            .sum::<f64>()
            / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_elementwise() {
        let mut acc = vec![(1, 1), (0, 0)];
        merge_bin_pairs(&mut acc, &[(2, 1), (5, 4)]);
        assert_eq!(acc, vec![(3, 2), (5, 4)]);
    }

    #[test]
    #[should_panic(expected = "layouts")]
    fn merge_rejects_mismatched_layouts() {
        merge_bin_pairs(&mut [(0, 0)], &[(1, 1), (2, 2)]);
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Between order statistics: 90% of the way from index 3 to 4.
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_independent() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        let shuffled = [3.0, 1.0, 4.0, 2.0];
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 100.0] {
            assert_eq!(percentile(&sorted, p), percentile(&shuffled, p));
        }
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[7.5], p), 7.5);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn tradeoff_matches_metric_definitions() {
        let base = RunPoint {
            ipc: 2.0,
            badpath_executed: 1000,
            badpath_fetched: 4000,
        };
        let gated = RunPoint {
            ipc: 1.9,
            badpath_executed: 680,
            badpath_fetched: 1200,
        };
        let t = gating_tradeoff(base, gated);
        assert!((t.perf_loss_pct - 5.0).abs() < 1e-12);
        assert!((t.badpath_exec_reduction_pct - 32.0).abs() < 1e-12);
        assert!((t.badpath_fetch_reduction_pct - 70.0).abs() < 1e-12);
    }

    #[test]
    fn mean_tradeoff_averages_components() {
        let a = GatingTradeoff {
            perf_loss_pct: 2.0,
            badpath_exec_reduction_pct: 30.0,
            badpath_fetch_reduction_pct: 60.0,
        };
        let b = GatingTradeoff {
            perf_loss_pct: 4.0,
            badpath_exec_reduction_pct: 50.0,
            badpath_fetch_reduction_pct: 80.0,
        };
        let m = mean_tradeoff(&[a, b]);
        assert!((m.perf_loss_pct - 3.0).abs() < 1e-12);
        assert!((m.badpath_exec_reduction_pct - 40.0).abs() < 1e-12);
        assert!((m.badpath_fetch_reduction_pct - 70.0).abs() < 1e-12);
    }
}
