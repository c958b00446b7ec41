//! Bimodal (per-PC 2-bit counter) direction predictor.

use crate::{CounterTable, DirectionPredictor};
use paco_types::Pc;

/// A bimodal predictor: a table of 2-bit saturating counters indexed by a
/// hash of the branch PC.
///
/// The paper's tournament predictor uses a 32KB bimodal component
/// (2<sup>17</sup> 2-bit counters).
///
/// # Examples
///
/// ```
/// use paco_branch::{BimodalPredictor, DirectionPredictor};
/// use paco_types::Pc;
///
/// let mut p = BimodalPredictor::new(1 << 10);
/// let pc = Pc::new(0x40);
/// for _ in 0..4 {
///     let pred = p.predict(pc, 0);
///     p.update(pc, 0, true, pred);
/// }
/// assert!(p.predict(pc, 0));
/// ```
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: CounterTable,
    mask: u64,
}

impl BimodalPredictor {
    /// Creates a predictor with `entries` 2-bit counters, initialized
    /// weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or is zero.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        BimodalPredictor {
            table: CounterTable::new(2, 1, entries),
            mask: entries as u64 - 1,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// The counters, for [`TournamentLane`](crate::TournamentLane).
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut [u8] {
        self.table.values_mut()
    }

    #[inline]
    fn index(&self, pc_hash: u64) -> usize {
        (pc_hash & self.mask) as usize
    }

    /// [`predict`](DirectionPredictor::predict) with the PC hash
    /// ([`Pc::table_hash`]) precomputed — the batched hot path hashes
    /// each event's PC once and feeds every table from it. The plain
    /// trait methods delegate here, so the two spellings cannot drift.
    #[inline]
    pub fn predict_hashed(&self, pc_hash: u64) -> bool {
        self.table.msb(self.index(pc_hash))
    }

    /// [`update`](DirectionPredictor::update) with the PC hash
    /// precomputed (see [`predict_hashed`](Self::predict_hashed)).
    #[inline]
    pub fn update_hashed(&mut self, pc_hash: u64, taken: bool) {
        let idx = self.index(pc_hash);
        if taken {
            self.table.increment(idx);
        } else {
            self.table.decrement(idx);
        }
    }

    /// Fused predict-then-train: returns the pre-update prediction and
    /// applies the outcome to the same counter, touching the entry once
    /// — ≡ [`predict_hashed`](Self::predict_hashed) followed by
    /// [`update_hashed`](Self::update_hashed), which is how choosers
    /// use the component at resolve time.
    #[inline]
    pub fn train_hashed(&mut self, pc_hash: u64, taken: bool) -> bool {
        self.table.train(self.index(pc_hash), taken)
    }

    /// Appends the predictor's table state (for session snapshots).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.table.save_state(out);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// predictor of the same configuration; `false` on any mismatch.
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        self.table.load_state(input)
    }
}

impl DirectionPredictor for BimodalPredictor {
    #[inline]
    fn predict(&self, pc: Pc, _history: u64) -> bool {
        self.predict_hashed(pc.table_hash())
    }

    #[inline]
    fn update(&mut self, pc: Pc, _history: u64, taken: bool, _predicted: bool) {
        self.update_hashed(pc.table_hash(), taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut BimodalPredictor, pc: Pc, outcomes: &[bool]) {
        for &t in outcomes {
            let pred = p.predict(pc, 0);
            p.update(pc, 0, t, pred);
        }
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = BimodalPredictor::new(256);
        let pc = Pc::new(0x100);
        train(&mut p, pc, &[true; 8]);
        assert!(p.predict(pc, 0));
        train(&mut p, pc, &[false; 8]);
        assert!(!p.predict(pc, 0));
    }

    #[test]
    fn hysteresis_survives_single_flip() {
        let mut p = BimodalPredictor::new(256);
        let pc = Pc::new(0x100);
        train(&mut p, pc, &[true; 8]);
        // One not-taken outcome should not flip a strongly-taken counter.
        train(&mut p, pc, &[false]);
        assert!(p.predict(pc, 0));
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = BimodalPredictor::new(1 << 12);
        let a = Pc::new(0x1000);
        let b = Pc::new(0x1004);
        train(&mut p, a, &[true; 8]);
        train(&mut p, b, &[false; 8]);
        assert!(p.predict(a, 0));
        assert!(!p.predict(b, 0));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = BimodalPredictor::new(1000);
    }
}
