//! Encoded probabilities — the integer log-domain representation PaCo
//! computes with (paper Eq. 3).

use paco_types::Probability;

/// An encoded correct-prediction (or goodpath) probability:
/// `⌈−1024 · log₂(p)⌉`, saturated at 2¹² = 4096.
///
/// * `EncodedProb(0)` encodes probability 1 (certainty);
/// * larger values encode smaller probabilities;
/// * the saturation point 4096 encodes p = 2⁻⁴ = 6.25% (a branch with a
///   mispredict rate above 93.75%, which the paper notes never occurs in
///   SPEC2000int).
///
/// Encoded probabilities of independent events **add** where the underlying
/// probabilities would multiply, which is the whole point: the hardware
/// path-confidence register is a running sum.
///
/// # Examples
///
/// ```
/// use paco::EncodedProb;
/// use paco_types::Probability;
///
/// let half = EncodedProb::from_probability(Probability::new(0.5)?);
/// assert_eq!(half.raw(), 1024); // −1024·log2(0.5)
///
/// let quarter = half.saturating_add(half);
/// assert!((quarter.to_probability().value() - 0.25).abs() < 1e-9);
/// # Ok::<(), paco_types::ProbabilityError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EncodedProb(u32);

impl EncodedProb {
    /// The fixed-point scale: one unit is 1/1024 of a bit (paper Eq. 3).
    pub const SCALE: u32 = 1024;

    /// The saturation value 2¹²; encodes p = 2⁻⁴.
    pub const SATURATION: u32 = 4096;

    /// Certainty: probability 1 encodes to 0.
    pub const CERTAIN: EncodedProb = EncodedProb(0);

    /// The saturated (least confident) encoding.
    pub const MAX: EncodedProb = EncodedProb(Self::SATURATION);

    /// Creates an encoded probability from a raw fixed-point value,
    /// saturating at [`Self::SATURATION`].
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        if raw > Self::SATURATION {
            EncodedProb(Self::SATURATION)
        } else {
            EncodedProb(raw)
        }
    }

    /// The raw fixed-point value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Encodes a real probability: `⌈−1024·log₂(p)⌉`, saturated.
    ///
    /// This is the *configuration-time* conversion — the paper converts the
    /// architect's target gating probability into the encoded domain once,
    /// so the hot path never needs logarithms.
    pub fn from_probability(p: Probability) -> Self {
        let v = p.value();
        if v <= 0.0 {
            return Self::MAX;
        }
        let raw = (-(Self::SCALE as f64) * v.log2()).ceil();
        if raw <= 0.0 {
            Self::CERTAIN
        } else if raw >= Self::SATURATION as f64 {
            Self::MAX
        } else {
            EncodedProb(raw as u32)
        }
    }

    /// Decodes to a real probability: `2^(−raw/1024)` (see
    /// [`decode_score`]).
    pub fn to_probability(self) -> Probability {
        decode_score(self.0 as u64)
    }

    /// Adds two encoded probabilities (probabilities multiply), saturating.
    #[inline]
    pub fn saturating_add(self, other: EncodedProb) -> EncodedProb {
        EncodedProb::from_raw(self.0.saturating_add(other.0))
    }

    /// Whether the encoding is saturated (probability indistinguishable
    /// from the ≤ 2⁻⁴ floor).
    #[inline]
    pub const fn is_saturated(self) -> bool {
        self.0 >= Self::SATURATION
    }
}

/// Decodes an encoded score — a single [`EncodedProb`] or a running sum
/// of them, as held by the path-confidence register — to a real
/// probability: `clamp(2^(−score/1024))`.
///
/// The one place the crate leaves the log domain. Only reporting
/// boundaries call it; the hardware never performs this conversion, and
/// the serving layer ships the score and decodes on demand.
///
/// ```
/// assert_eq!(paco::decode_score(0).value(), 1.0);
/// assert_eq!(paco::decode_score(2048).value(), 0.25);
/// ```
pub fn decode_score(score: u64) -> Probability {
    Probability::clamped((-(score as f64) / EncodedProb::SCALE as f64).exp2())
}

impl std::fmt::Display for EncodedProb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    #[test]
    fn certainty_encodes_to_zero() {
        assert_eq!(EncodedProb::from_probability(p(1.0)), EncodedProb::CERTAIN);
    }

    #[test]
    fn half_encodes_to_1024() {
        assert_eq!(EncodedProb::from_probability(p(0.5)).raw(), 1024);
    }

    #[test]
    fn paper_example_ten_percent_is_3321() {
        // Paper §3.2: "PaCo would convert 10% into an encoded probability
        // (which happens to be 3321)".
        // −1024·log2(0.1) = 3401.6… The paper's 3321 corresponds to
        // log2 10 ≈ 3.3219 scaled by 1000; with the stated −1024 scale the
        // value is 3402. We implement the stated equation and verify the
        // decode matches 10% closely.
        let enc = EncodedProb::from_probability(p(0.10));
        assert_eq!(enc.raw(), 3402);
        assert!((enc.to_probability().value() - 0.10).abs() < 1e-3);
    }

    #[test]
    fn saturation_at_4096() {
        assert_eq!(EncodedProb::from_probability(p(0.0)), EncodedProb::MAX);
        assert_eq!(EncodedProb::from_raw(9999), EncodedProb::MAX);
        assert!(EncodedProb::MAX.is_saturated());
        // Saturation decodes to 2^-4.
        assert!((EncodedProb::MAX.to_probability().value() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn round_trip_error_is_small() {
        for &v in &[0.9, 0.75, 0.5, 0.3, 0.11, 0.0701] {
            let enc = EncodedProb::from_probability(p(v));
            let back = enc.to_probability().value();
            // Ceil rounding loses at most 1/1024 of a bit.
            assert!((back - v).abs() / v < 1e-3, "v={v} back={back}");
        }
    }

    #[test]
    fn addition_is_multiplication() {
        let a = EncodedProb::from_probability(p(0.5));
        let b = EncodedProb::from_probability(p(0.25));
        let sum = a.saturating_add(b);
        assert!((sum.to_probability().value() - 0.125).abs() < 1e-6);
    }

    #[test]
    fn add_saturates() {
        let m = EncodedProb::MAX;
        assert_eq!(m.saturating_add(m), EncodedProb::MAX);
    }

    #[test]
    fn ordering_is_reverse_of_probability() {
        // Larger encoded value = less likely.
        let a = EncodedProb::from_probability(p(0.9));
        let b = EncodedProb::from_probability(p(0.2));
        assert!(a < b);
        assert!(a.to_probability() > b.to_probability());
    }
}
