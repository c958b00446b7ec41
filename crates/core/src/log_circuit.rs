//! The binary-logarithm circuit used to convert MRT counter values into
//! encoded probabilities.
//!
//! The paper cites Mitchell (1962): base-2 logarithms of small integers can
//! be computed with "a very simple circuit consisting of a shift register
//! and a counter". The characteristic of the log is the position of the
//! leading one (found by shifting); the mantissa is approximated linearly
//! by the bits below the leading one.

use crate::{EncodedProb, MrtBucket};
use paco_types::canon::Canon;
use std::sync::OnceLock;

/// Arguments below this read [`LogCircuit::log2_fixed`] from a table:
/// every MRT bucket total (at most `CORRECT_MAX + MISPRED_MAX` = 1086)
/// and every count in it.
const LOG2_TABLE_LEN: usize = (MrtBucket::CORRECT_MAX + MrtBucket::MISPRED_MAX) as usize + 1;

/// Which logarithm implementation the MRT refresh uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogMode {
    /// The hardware Mitchell shift-register approximation (paper default).
    #[default]
    Mitchell,
    /// An exact floating-point log, for ablating the approximation cost.
    Exact,
}

impl Canon for LogMode {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x10); // type tag
        out.push(match self {
            LogMode::Mitchell => 0,
            LogMode::Exact => 1,
        });
    }
}

/// The logarithmizing-and-scaling circuit.
///
/// Converts counter ratios into encoded probabilities:
/// `encode(c, m) = 1024·(log₂(c+m) − log₂(c)) = −1024·log₂(c/(c+m))`.
///
/// Because both terms use the same approximation, part of the Mitchell
/// error cancels in the subtraction; the unit tests bound the residual
/// error against the exact log.
///
/// # Examples
///
/// ```
/// use paco::{LogCircuit, LogMode};
///
/// let circuit = LogCircuit::new(LogMode::Mitchell);
/// // A bucket that saw 512 correct predictions and 512 mispredicts has a
/// // correct-prediction probability of 1/2, which encodes to ~1024.
/// let enc = circuit.encode_ratio(512, 512);
/// assert!((enc.raw() as i64 - 1024).abs() <= 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogCircuit {
    mode: LogMode,
}

impl LogCircuit {
    /// Creates a log circuit in the given mode.
    pub const fn new(mode: LogMode) -> Self {
        LogCircuit { mode }
    }

    /// The configured mode.
    pub const fn mode(self) -> LogMode {
        self.mode
    }

    /// Computes `1024·log₂(x)` for `x ≥ 1` in fixed point.
    ///
    /// Arguments in the MRT counter range are looked up in a per-mode
    /// table built once per process from the same computation, so the
    /// per-branch MRT's per-fetch encoding runs no `f64` log; larger
    /// ones are computed.
    ///
    /// # Panics
    ///
    /// Panics if `x == 0` (the caller must handle empty buckets).
    pub fn log2_fixed(self, x: u32) -> u32 {
        assert!(x > 0, "log of zero is undefined");
        match Self::tables()[self.mode as usize].get(x as usize) {
            Some(&log) => log as u32,
            None => self.log2_computed(x),
        }
    }

    /// [`log2_fixed`](Self::log2_fixed) computed, not looked up.
    fn log2_computed(self, x: u32) -> u32 {
        match self.mode {
            LogMode::Exact => (1024.0 * (x as f64).log2()).round() as u32,
            LogMode::Mitchell => Self::mitchell_log2_fixed(x),
        }
    }

    /// [`log2_computed`](Self::log2_computed) of every argument below
    /// [`LOG2_TABLE_LEN`], indexed by `LogMode as usize` (entry 0 is
    /// unused). Values stay below 2^14, so they fit a `u16`.
    fn tables() -> &'static [[u16; LOG2_TABLE_LEN]; 2] {
        static TABLES: OnceLock<[[u16; LOG2_TABLE_LEN]; 2]> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut tables = [[0; LOG2_TABLE_LEN]; 2];
            for mode in [LogMode::Mitchell, LogMode::Exact] {
                let circuit = LogCircuit::new(mode);
                for (x, log) in tables[mode as usize].iter_mut().enumerate().skip(1) {
                    *log = circuit.log2_computed(x as u32) as u16;
                }
            }
            tables
        })
    }

    /// Mitchell's shift-register approximation of `1024·log₂(x)`.
    ///
    /// Finds the characteristic k by shifting until only the leading one
    /// remains (the "counter" counts shifts), then uses the k bits below
    /// the leading one, aligned to 10 fractional bits, as the mantissa.
    fn mitchell_log2_fixed(x: u32) -> u32 {
        // Characteristic: position of the leading one. A hardware shift
        // register would shift left and count; this loop mirrors that.
        let mut k = 0u32;
        let mut probe = x;
        while probe > 1 {
            probe >>= 1;
            k += 1;
        }
        if k == 0 {
            return 0; // x == 1
        }
        // Mantissa: bits below the leading one, scaled to 1/1024 units.
        let frac_bits = x - (1u32 << k);
        let mantissa = if k >= 10 {
            frac_bits >> (k - 10)
        } else {
            frac_bits << (10 - k)
        };
        1024 * k + mantissa
    }

    /// Encodes the correct-prediction probability of a bucket with
    /// `correct` correct predictions and `mispred` mispredicts:
    /// `−1024·log₂(correct / (correct + mispred))`, saturated at 2¹².
    ///
    /// A bucket that never saw a correct prediction saturates; a bucket
    /// that never mispredicted encodes to certainty (0).
    pub fn encode_ratio(self, correct: u32, mispred: u32) -> EncodedProb {
        if correct == 0 {
            return EncodedProb::MAX;
        }
        if mispred == 0 {
            return EncodedProb::CERTAIN;
        }
        let total = correct + mispred;
        let raw = self
            .log2_fixed(total)
            .saturating_sub(self.log2_fixed(correct));
        EncodedProb::from_raw(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_powers_of_two() {
        let c = LogCircuit::new(LogMode::Mitchell);
        assert_eq!(c.log2_fixed(1), 0);
        assert_eq!(c.log2_fixed(2), 1024);
        assert_eq!(c.log2_fixed(4), 2048);
        assert_eq!(c.log2_fixed(512), 9 * 1024);
        assert_eq!(c.log2_fixed(1024), 10 * 1024);
    }

    #[test]
    fn table_agrees_with_the_computation() {
        for mode in [LogMode::Mitchell, LogMode::Exact] {
            let c = LogCircuit::new(mode);
            for x in 1..LOG2_TABLE_LEN as u32 + 64 {
                assert_eq!(c.log2_fixed(x), c.log2_computed(x), "{mode:?} x={x}");
            }
            assert!(c.log2_computed(LOG2_TABLE_LEN as u32 - 1) < 1 << 14);
            assert_eq!(c.log2_fixed(u32::MAX), c.log2_computed(u32::MAX));
        }
    }

    #[test]
    fn mitchell_error_bound_against_exact() {
        // Mitchell's relative error on log2 is bounded; over the 10-bit MRT
        // counter range the absolute fixed-point error stays below
        // 0.09 * 1024 ≈ 90 units.
        let mitchell = LogCircuit::new(LogMode::Mitchell);
        let exact = LogCircuit::new(LogMode::Exact);
        for x in 1u32..=1024 {
            let m = mitchell.log2_fixed(x) as i64;
            let e = exact.log2_fixed(x) as i64;
            assert!((m - e).abs() <= 90, "x={x} mitchell={m} exact={e}");
        }
    }

    #[test]
    fn encode_ratio_matches_probability_encoding() {
        use paco_types::Probability;
        let circuit = LogCircuit::new(LogMode::Exact);
        let enc = circuit.encode_ratio(900, 100);
        let reference = EncodedProb::from_probability(Probability::new(0.9).unwrap());
        assert!(
            (enc.raw() as i64 - reference.raw() as i64).abs() <= 2,
            "enc={} ref={}",
            enc.raw(),
            reference.raw()
        );
    }

    #[test]
    fn mitchell_ratio_error_cancels() {
        // The subtraction cancels much of the Mitchell error: the encoded
        // ratio stays within ~100 fixed-point units (≈0.1 bit, a ~7%
        // probability factor) of the exact encoding — consistent with the
        // paper's measured 3.8% RMS accuracy.
        let mitchell = LogCircuit::new(LogMode::Mitchell);
        let exact = LogCircuit::new(LogMode::Exact);
        for &(c, m) in &[
            (1000u32, 5u32),
            (900, 100),
            (750, 250),
            (512, 512),
            (600, 30),
            (60, 40),
            (10, 3),
        ] {
            let a = mitchell.encode_ratio(c, m).raw() as i64;
            let b = exact.encode_ratio(c, m).raw() as i64;
            assert!((a - b).abs() <= 100, "c={c} m={m} mitchell={a} exact={b}");
        }
    }

    #[test]
    fn degenerate_buckets() {
        let c = LogCircuit::new(LogMode::Mitchell);
        assert_eq!(c.encode_ratio(0, 10), EncodedProb::MAX);
        assert_eq!(c.encode_ratio(10, 0), EncodedProb::CERTAIN);
        // Worse than 93.75% mispredict saturates.
        assert_eq!(c.encode_ratio(1, 63), EncodedProb::MAX);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn log_of_zero_panics() {
        LogCircuit::new(LogMode::Mitchell).log2_fixed(0);
    }
}
