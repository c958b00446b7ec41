//! The common interface all path-confidence estimators expose to the
//! simulator front end.

use paco_branch::Mdc;
use paco_types::Probability;

/// Information available about a branch at fetch/prediction time.
///
/// Only conditional branches carry an MDC value — the JRS table does not
/// cover jumps, indirect calls or returns (the root of the paper's
/// `perlbmk` pathology). `table_key` is a hash of (PC, global history)
/// used by the per-branch MRT ablation variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchFetchInfo {
    /// The branch's MDC value, if it is a conditional branch.
    pub mdc: Option<Mdc>,
    /// Hash of (PC, global history) for per-branch tables.
    pub table_key: u64,
}

impl BranchFetchInfo {
    /// Fetch info for a conditional branch with the given MDC value.
    pub fn conditional(mdc: Mdc) -> Self {
        BranchFetchInfo {
            mdc: Some(mdc),
            table_key: 0,
        }
    }

    /// Fetch info for a conditional branch with an explicit per-branch
    /// table key.
    pub fn conditional_keyed(mdc: Mdc, table_key: u64) -> Self {
        BranchFetchInfo {
            mdc: Some(mdc),
            table_key,
        }
    }

    /// Fetch info for non-conditional control flow (no MDC coverage).
    pub fn non_conditional() -> Self {
        BranchFetchInfo {
            mdc: None,
            table_key: 0,
        }
    }
}

/// A token returned at branch fetch and surrendered at branch resolution
/// (or squash).
///
/// Hardware would track the contribution of each in-flight branch in its
/// ROB entry / rename checkpoint; the token models exactly that. Storing
/// the added value in the token guarantees the confidence register returns
/// to a consistent state even if the MRT encodings are refreshed while the
/// branch is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "the token must be surrendered via on_resolve or on_squash"]
pub struct BranchToken {
    /// Encoded-probability contribution added to the confidence register.
    pub(crate) encoded: u32,
    /// Whether the branch was counted as low-confidence.
    pub(crate) low_conf: bool,
    /// The MDC value captured at fetch.
    pub(crate) mdc: Option<Mdc>,
    /// Per-branch table key captured at fetch.
    pub(crate) table_key: u64,
}

impl BranchToken {
    /// A token carrying no contribution (non-conditional control flow).
    pub fn empty() -> Self {
        BranchToken {
            encoded: 0,
            low_conf: false,
            mdc: None,
            table_key: 0,
        }
    }

    /// The encoded contribution this token added.
    #[inline]
    pub fn encoded_contribution(&self) -> u32 {
        self.encoded
    }

    /// Whether the branch was classified low-confidence at fetch.
    #[inline]
    pub fn is_low_confidence(&self) -> bool {
        self.low_conf
    }

    /// The MDC value captured at fetch (`None` for a token that carries
    /// no contribution).
    #[inline]
    pub fn mdc(&self) -> Option<Mdc> {
        self.mdc
    }

    /// Rebuilds a token from its parts, for a holder that keeps
    /// in-flight tokens in a compact form of its own (the online
    /// pipeline's window does).
    #[inline]
    pub fn from_parts(encoded: u32, low_conf: bool, mdc: Option<Mdc>, table_key: u64) -> Self {
        BranchToken {
            encoded,
            low_conf,
            mdc,
            table_key,
        }
    }

    /// Appends the token's state (for session snapshots: an in-flight
    /// branch's token must survive a snapshot/restore cycle so it can
    /// still be surrendered afterwards).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        use paco_types::wire::write_uvarint;
        write_uvarint(out, self.encoded as u64);
        out.push(self.low_conf as u8);
        match self.mdc {
            None => out.push(0xff),
            Some(mdc) => out.push(mdc.value()),
        }
        write_uvarint(out, self.table_key);
    }

    /// Reads a token saved by [`save_state`](Self::save_state), advancing
    /// `input`; `None` on truncation or malformed fields.
    pub fn load_state(input: &mut &[u8]) -> Option<Self> {
        use paco_types::wire::read_uvarint;
        let encoded = u32::try_from(read_uvarint(input)?).ok()?;
        let (&low, rest) = input.split_first()?;
        let (&mdc_byte, rest) = rest.split_first()?;
        *input = rest;
        let mdc = match mdc_byte {
            0xff => None,
            v if (v as usize) < Mdc::BUCKETS => Some(Mdc::new(v)),
            _ => return None,
        };
        if low > 1 {
            return None;
        }
        let table_key = read_uvarint(input)?;
        Some(BranchToken {
            encoded,
            low_conf: low == 1,
            mdc,
            table_key,
        })
    }
}

/// A comparable confidence score: **lower is more confident** (more likely
/// to be on the goodpath).
///
/// For PaCo the score is the encoded-probability sum; for
/// threshold-and-count predictors it is the number of unresolved
/// low-confidence branches. Scores are only comparable between estimators
/// of the same kind — SMT fetch prioritization always compares two
/// instances of the same estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConfidenceScore(pub u64);

impl std::fmt::Display for ConfidenceScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A path-confidence estimator: tracks the unresolved branches of one
/// hardware thread and produces a confidence estimate for the current
/// fetch path.
///
/// The front end drives the estimator with three events:
///
/// 1. [`on_fetch`](Self::on_fetch) when a control instruction is fetched
///    (returns a [`BranchToken`]);
/// 2. [`on_resolve`](Self::on_resolve) when the branch executes;
/// 3. [`on_squash`](Self::on_squash) when the branch is squashed by an
///    older mispredicted branch.
///
/// Every token returned by `on_fetch` must be surrendered by exactly one
/// call to `on_resolve` or `on_squash`.
///
/// Estimators are `Send`: the experiment engine builds and runs machines
/// on worker threads, so every estimator (like every workload) must be
/// movable across threads.
pub trait PathConfidenceEstimator: Send {
    /// Registers a fetched control instruction.
    fn on_fetch(&mut self, info: BranchFetchInfo) -> BranchToken;

    /// Registers the resolution (execution) of a branch.
    fn on_resolve(&mut self, token: BranchToken, mispredicted: bool);

    /// Removes a squashed in-flight branch without training.
    fn on_squash(&mut self, token: BranchToken);

    /// Advances simulated time by `cycles` (drives periodic refresh logic).
    fn tick(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// The current confidence score — lower means more likely on goodpath.
    fn score(&self) -> ConfidenceScore;

    /// The predicted goodpath probability, if this estimator produces one.
    ///
    /// Threshold-and-count predictors return `None`: the paper's central
    /// criticism is precisely that their counter value is not a
    /// probability.
    fn goodpath_probability(&self) -> Option<Probability> {
        None
    }

    /// Appends the estimator's full mutable state to `out` (counters,
    /// latched encodings, refresh timers — everything needed to resume
    /// bit-identically). The blob is only meaningful to an estimator
    /// built from the same configuration.
    ///
    /// The streaming confidence service snapshots sessions with this so a
    /// reconnecting client resumes exactly where it left off. Stateless
    /// estimators (the default) save nothing.
    fn save_state(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Restores state saved by [`save_state`](Self::save_state) by an
    /// identically configured estimator, advancing `input` past the blob.
    /// Returns `false` on truncated or inconsistent input, after which
    /// the estimator must be discarded (it may be partially restored).
    fn load_state(&mut self, input: &mut &[u8]) -> bool {
        let _ = input;
        true
    }

    /// A short human-readable name used in experiment output.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_info_constructors() {
        let c = BranchFetchInfo::conditional(Mdc::new(3));
        assert_eq!(c.mdc, Some(Mdc::new(3)));
        let n = BranchFetchInfo::non_conditional();
        assert_eq!(n.mdc, None);
        let k = BranchFetchInfo::conditional_keyed(Mdc::new(1), 42);
        assert_eq!(k.table_key, 42);
    }

    #[test]
    fn empty_token_has_no_contribution() {
        let t = BranchToken::empty();
        assert_eq!(t.encoded_contribution(), 0);
        assert!(!t.is_low_confidence());
    }

    #[test]
    fn scores_order_naturally() {
        assert!(ConfidenceScore(0) < ConfidenceScore(10));
        assert_eq!(ConfidenceScore(5).to_string(), "5");
    }
}
