//! Struct-of-arrays batches of pipeline outcomes.
//!
//! The output-side twin of [`paco_types::EventBatch`]: where the event
//! batch carries what goes *into* [`OnlinePipeline::run_batch`]
//! (crate::OnlinePipeline::run_batch), an [`OutcomeBatch`] carries what
//! comes out, in the exact field layout the serve wire encoding wants —
//! a flags byte (predicted/mispredicted/has-probability) and the score.
//! No probability column: where the has-probability flag is set, the
//! probability is the decoded score ([`OnlineOutcome::probability`]).
//! The flag bit assignments here are the *normative* ones for the
//! `paco-serve` PREDICTIONS payload; `paco_serve::proto` re-uses these
//! constants so the two layers cannot drift apart.

use crate::OnlineOutcome;

/// A struct-of-arrays batch of [`OnlineOutcome`]s, reusable across
/// frames ([`clear`](OutcomeBatch::clear) keeps capacity).
///
/// # Examples
///
/// ```
/// use paco_sim::{OnlineOutcome, OutcomeBatch};
///
/// let mut out = OutcomeBatch::new();
/// out.push(&OnlineOutcome {
///     score: 1024,
///     has_prob: true,
///     predicted_taken: true,
///     mispredicted: false,
/// });
/// assert_eq!(out.len(), 1);
/// assert_eq!(out.get(0).probability(), Some(0.5));
/// assert_eq!(out.flags()[0], OutcomeBatch::FLAG_PREDICTED_TAKEN | OutcomeBatch::FLAG_HAS_PROB);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutcomeBatch {
    flags: Vec<u8>,
    scores: Vec<u64>,
}

impl OutcomeBatch {
    /// Flag bit: the pipeline predicted the branch taken.
    pub const FLAG_PREDICTED_TAKEN: u8 = 0x01;
    /// Flag bit: the prediction missed the architectural outcome.
    pub const FLAG_MISPREDICTED: u8 = 0x02;
    /// Flag bit: the score is an encoded goodpath probability.
    pub const FLAG_HAS_PROB: u8 = 0x04;
    /// Every bit an outcome's flags byte may carry.
    pub const FLAG_ALL: u8 =
        Self::FLAG_PREDICTED_TAKEN | Self::FLAG_MISPREDICTED | Self::FLAG_HAS_PROB;

    /// Creates an empty batch.
    pub fn new() -> Self {
        OutcomeBatch::default()
    }

    /// Creates an empty batch with room for `n` outcomes.
    pub fn with_capacity(n: usize) -> Self {
        OutcomeBatch {
            flags: Vec::with_capacity(n),
            scores: Vec::with_capacity(n),
        }
    }

    /// Number of outcomes in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// Whether the batch holds no outcomes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Empties the batch, retaining capacity for reuse.
    pub fn clear(&mut self) {
        self.flags.clear();
        self.scores.clear();
    }

    /// Reserves room for `n` additional outcomes.
    pub fn reserve(&mut self, n: usize) {
        self.flags.reserve(n);
        self.scores.reserve(n);
    }

    /// Appends one outcome.
    #[inline]
    pub fn push(&mut self, o: &OnlineOutcome) {
        self.flags.push(Self::flag_bits(
            o.predicted_taken,
            o.mispredicted,
            o.has_prob,
        ));
        self.scores.push(o.score);
    }

    /// Appends `n` all-zero outcomes and returns the columns of those
    /// `n` — flags and scores — for a writer to fill by index, then
    /// [`truncate`](Self::truncate) to what it wrote.
    #[inline]
    pub(crate) fn append_columns(&mut self, n: usize) -> (&mut [u8], &mut [u64]) {
        let start = self.len();
        self.flags.resize(start + n, 0);
        self.scores.resize(start + n, 0);
        (&mut self.flags[start..], &mut self.scores[start..])
    }

    /// Keeps the first `len` outcomes.
    #[inline]
    pub(crate) fn truncate(&mut self, len: usize) {
        self.flags.truncate(len);
        self.scores.truncate(len);
    }

    /// An outcome's flags byte (wire layout, see the `FLAG_*`
    /// constants), packed branchlessly; the shifts are pinned to the
    /// flag constants at compile time.
    #[inline]
    pub(crate) fn flag_bits(predicted_taken: bool, mispredicted: bool, has_prob: bool) -> u8 {
        const _: () = assert!(
            OutcomeBatch::FLAG_PREDICTED_TAKEN == 1
                && OutcomeBatch::FLAG_MISPREDICTED == 1 << 1
                && OutcomeBatch::FLAG_HAS_PROB == 1 << 2
        );
        predicted_taken as u8 | (mispredicted as u8) << 1 | (has_prob as u8) << 2
    }

    /// Reconstructs outcome `i`.
    #[inline]
    pub fn get(&self, i: usize) -> OnlineOutcome {
        let flags = self.flags[i];
        OnlineOutcome {
            score: self.scores[i],
            has_prob: flags & Self::FLAG_HAS_PROB != 0,
            predicted_taken: flags & Self::FLAG_PREDICTED_TAKEN != 0,
            mispredicted: flags & Self::FLAG_MISPREDICTED != 0,
        }
    }

    /// Iterates the batch as reconstructed [`OnlineOutcome`]s.
    pub fn iter(&self) -> impl Iterator<Item = OnlineOutcome> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The per-outcome flag bytes (wire layout, see the `FLAG_*`
    /// constants).
    #[inline]
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// The per-outcome confidence scores.
    #[inline]
    pub fn scores(&self) -> &[u64] {
        &self.scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<OnlineOutcome> {
        vec![
            OnlineOutcome {
                score: 0,
                has_prob: false,
                predicted_taken: false,
                mispredicted: false,
            },
            OnlineOutcome {
                score: 2048,
                has_prob: true,
                predicted_taken: true,
                mispredicted: true,
            },
            // A score far past any decodable probability still
            // round-trips as the score.
            OnlineOutcome {
                score: u64::MAX,
                has_prob: true,
                predicted_taken: true,
                mispredicted: false,
            },
        ]
    }

    #[test]
    fn round_trips_outcomes() {
        let outcomes = samples();
        let mut batch = OutcomeBatch::with_capacity(outcomes.len());
        for o in &outcomes {
            batch.push(o);
        }
        assert_eq!(batch.len(), outcomes.len());
        let back: Vec<OnlineOutcome> = batch.iter().collect();
        assert_eq!(back, outcomes);
    }

    #[test]
    fn has_prob_flag_round_trips() {
        // Score 0 with and without the flag must stay distinguishable:
        // the flag, not the value, carries presence.
        let mut batch = OutcomeBatch::new();
        for has_prob in [false, true] {
            let o = OnlineOutcome {
                score: 0,
                has_prob,
                predicted_taken: false,
                mispredicted: false,
            };
            batch.push(&o);
            assert_eq!(batch.get(batch.len() - 1), o);
        }
        assert_eq!(batch.get(0).probability(), None);
        assert_eq!(batch.get(1).probability(), Some(1.0));
        assert_eq!(batch.flags(), &[0, OutcomeBatch::FLAG_HAS_PROB]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch = OutcomeBatch::new();
        for o in &samples() {
            batch.push(o);
        }
        let cap = batch.scores.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.scores.capacity(), cap);
    }
}
