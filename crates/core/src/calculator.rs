//! The path confidence calculator: a running sum of encoded probabilities.

use crate::{decode_score, EncodedProb};
use paco_types::Probability;

/// The hardware path-confidence register (paper Fig. 5, right half).
///
/// Holds the running sum of the encoded correct-prediction probabilities of
/// all unresolved branches. When a branch is fetched its encoding is added;
/// when it executes (or is squashed) the same encoding is subtracted.
///
/// # Examples
///
/// ```
/// use paco::{PathConfidenceCalculator, EncodedProb};
///
/// let mut calc = PathConfidenceCalculator::new();
/// calc.add(EncodedProb::from_raw(1024)); // a 50%-correct branch in flight
/// assert!((calc.goodpath_probability().value() - 0.5).abs() < 1e-9);
/// calc.remove(EncodedProb::from_raw(1024));
/// assert_eq!(calc.goodpath_probability().value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathConfidenceCalculator {
    sum: u64,
    outstanding: u32,
}

impl PathConfidenceCalculator {
    /// Creates an empty calculator (no unresolved branches: certainty).
    pub fn new() -> Self {
        PathConfidenceCalculator {
            sum: 0,
            outstanding: 0,
        }
    }

    /// Adds a fetched branch's encoded probability.
    #[inline]
    pub fn add(&mut self, enc: EncodedProb) {
        self.sum += enc.raw() as u64;
        self.outstanding += 1;
    }

    /// Removes a resolved or squashed branch's contribution.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the removal would drive the register
    /// negative or no branch is outstanding — both indicate a token
    /// discipline bug in the caller.
    #[inline]
    pub fn remove(&mut self, enc: EncodedProb) {
        debug_assert!(self.outstanding > 0, "no outstanding branches");
        debug_assert!(self.sum >= enc.raw() as u64, "confidence sum underflow");
        self.sum = self.sum.saturating_sub(enc.raw() as u64);
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// The current encoded goodpath probability (the register value).
    #[inline]
    pub const fn encoded_sum(&self) -> u64 {
        self.sum
    }

    /// Number of branches currently contributing.
    #[inline]
    pub const fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Decodes the register to a real goodpath probability
    /// (`2^(−sum/1024)`, see [`decode_score`]); reporting-only, never on
    /// the hot path.
    pub fn goodpath_probability(&self) -> Probability {
        decode_score(self.sum)
    }

    /// Appends the register state (for session snapshots).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        paco_types::wire::write_uvarint(out, self.sum);
        paco_types::wire::write_uvarint(out, self.outstanding as u64);
    }

    /// Restores state saved by [`save_state`](Self::save_state); `false`
    /// on truncated or inconsistent input.
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        let Some(sum) = paco_types::wire::read_uvarint(input) else {
            return false;
        };
        let Some(outstanding) =
            paco_types::wire::read_uvarint(input).and_then(|v| v.try_into().ok())
        else {
            return false;
        };
        // A non-empty register with no outstanding branches can never be
        // produced by the add/remove discipline.
        if sum > 0 && outstanding == 0 {
            return false;
        }
        self.sum = sum;
        self.outstanding = outstanding;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_register_is_certainty() {
        let c = PathConfidenceCalculator::new();
        assert_eq!(c.encoded_sum(), 0);
        assert_eq!(c.goodpath_probability().value(), 1.0);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn contributions_add_and_remove_symmetrically() {
        let mut c = PathConfidenceCalculator::new();
        let e1 = EncodedProb::from_raw(100);
        let e2 = EncodedProb::from_raw(250);
        c.add(e1);
        c.add(e2);
        assert_eq!(c.encoded_sum(), 350);
        assert_eq!(c.outstanding(), 2);
        c.remove(e1);
        assert_eq!(c.encoded_sum(), 250);
        c.remove(e2);
        assert_eq!(c.encoded_sum(), 0);
    }

    #[test]
    fn sum_can_exceed_single_branch_saturation() {
        // The register is wider than one branch's 12-bit encoding: many
        // unresolved low-confidence branches accumulate.
        let mut c = PathConfidenceCalculator::new();
        for _ in 0..10 {
            c.add(EncodedProb::MAX);
        }
        assert_eq!(c.encoded_sum(), 10 * 4096);
        assert!(c.goodpath_probability().value() < 1e-9);
    }

    #[test]
    fn probability_decode_matches_expected() {
        let mut c = PathConfidenceCalculator::new();
        c.add(EncodedProb::from_raw(2048)); // 2^-2 = 0.25
        assert!((c.goodpath_probability().value() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn underflow_is_caught_in_debug() {
        let mut c = PathConfidenceCalculator::new();
        c.remove(EncodedProb::from_raw(1));
    }
}
