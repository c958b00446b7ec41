//! Direct unit + property tests for [`paco_analysis::CusumDetector`].
//!
//! Until now the detector was only exercised indirectly through the
//! watch plane's splice tests; with `AdaptiveMrt` reusing it inside the
//! estimator hot path, its contract — latch monotonicity, reset
//! semantics, and the exact threshold boundary — deserves first-class
//! coverage.

use paco_analysis::CusumDetector;
use proptest::prelude::*;

#[test]
fn reset_clears_accumulator_and_latch() {
    let mut d = CusumDetector::new(0.1, 0.5);
    for _ in 0..10 {
        d.observe(0.4);
    }
    assert!(d.is_flagged());
    d.reset();
    assert!(!d.is_flagged());
    assert_eq!(d.flagged_at(), None);
    assert_eq!(d.cusum(), 0.0);
    assert_eq!(d.last_divergence(), 0.0);
    assert_eq!(d.windows(), 0);
    // Post-reset behaviour is identical to a fresh detector's.
    let mut fresh = CusumDetector::new(0.1, 0.5);
    for i in 0..20 {
        let div = if i < 5 { 0.02 } else { 0.4 };
        assert_eq!(d.observe(div), fresh.observe(div));
    }
    assert_eq!(d, fresh);
}

#[test]
fn threshold_boundary_is_exclusive() {
    // Divergence exactly at the threshold contributes zero net gain:
    // the accumulator must stay at 0 forever.
    let mut at = CusumDetector::new(0.25, 0.5);
    for _ in 0..1000 {
        assert!(!at.observe(0.25));
        assert_eq!(at.cusum(), 0.0);
    }
    // The limit is likewise exclusive: an accumulator that lands
    // exactly on the limit has not latched yet.
    let mut d = CusumDetector::new(0.0, 0.5);
    assert!(!d.observe(0.5), "cusum == limit must not latch");
    assert_eq!(d.cusum(), 0.5);
    assert!(
        d.observe(1e-9),
        "any representable excess over limit latches"
    );
    assert_eq!(d.flagged_at(), Some(2));
}

#[test]
fn restore_round_trips_dynamic_state() {
    let mut d = CusumDetector::new(0.1, 0.5);
    d.observe(0.2);
    for _ in 0..8 {
        d.observe(0.37);
    }
    let (cusum, last, windows, flagged_at) =
        (d.cusum(), d.last_divergence(), d.windows(), d.flagged_at());
    let mut rebuilt = CusumDetector::new(0.1, 0.5);
    rebuilt.restore(cusum, last, windows, flagged_at);
    assert_eq!(rebuilt, d);
    // And the restored detector continues exactly like the original.
    for i in 0..30 {
        let div = (i as f64 * 0.31).cos().abs() * 0.3;
        assert_eq!(d.observe(div), rebuilt.observe(div));
    }
    assert_eq!(rebuilt, d);
}

proptest! {
    // Latch monotonicity: once observe() returns true it never returns
    // false again, and flagged_at never changes after latching.
    #[test]
    fn latch_is_monotone(
        threshold in 0.0f64..0.3,
        limit in 0.05f64..1.0,
        divs in proptest::collection::vec(0.0f64..1.0, 1..200),
    ) {
        let mut d = CusumDetector::new(threshold, limit);
        let mut latched = false;
        let mut latched_at = None;
        for &div in &divs {
            let now = d.observe(div);
            prop_assert!(now || !latched, "flag un-latched");
            if now && !latched {
                latched = true;
                latched_at = d.flagged_at();
                prop_assert_eq!(latched_at, Some(d.windows()));
            }
            if latched {
                prop_assert_eq!(d.flagged_at(), latched_at);
            }
        }
    }

    // The accumulator is always the max(0, ...) recurrence over every
    // observed window.
    #[test]
    fn cusum_matches_reference_recurrence(
        threshold in 0.0f64..0.3,
        divs in proptest::collection::vec(0.0f64..0.6, 0..100),
    ) {
        let mut d = CusumDetector::new(threshold, 1e9);
        let mut reference = 0.0f64;
        for &div in &divs {
            d.observe(div);
            reference = (reference + div - threshold).max(0.0);
            prop_assert!((d.cusum() - reference).abs() < 1e-9);
        }
        prop_assert_eq!(d.windows(), divs.len() as u64);
    }

    // reset() always returns the detector to a state indistinguishable
    // from freshly constructed, regardless of history.
    #[test]
    fn reset_equals_fresh(
        threshold in 0.0f64..0.3,
        limit in 0.05f64..1.0,
        divs in proptest::collection::vec(0.0f64..1.0, 0..100),
    ) {
        let mut d = CusumDetector::new(threshold, limit);
        for &div in &divs {
            d.observe(div);
        }
        d.reset();
        prop_assert_eq!(d, CusumDetector::new(threshold, limit));
    }
}
