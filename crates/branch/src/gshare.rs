//! Gshare (history-XOR-PC) direction predictor.

use crate::{CounterTable, DirectionPredictor};
use paco_types::Pc;

/// A gshare predictor: 2-bit counters indexed by the XOR of a PC hash and
/// the global branch history.
///
/// The paper's tournament predictor uses a 32KB gshare component with 8 bits
/// of global history.
///
/// # Examples
///
/// ```
/// use paco_branch::{GsharePredictor, DirectionPredictor};
/// use paco_types::Pc;
///
/// let mut p = GsharePredictor::new(1 << 12, 8);
/// let pc = Pc::new(0x80);
/// // A branch that is taken exactly when the previous branch was taken
/// // (history bit 0 set) is learnable by gshare.
/// for _ in 0..64 {
///     for &h in &[0u64, 1u64] {
///         let taken = h & 1 == 1;
///         let pred = p.predict(pc, h);
///         p.update(pc, h, taken, pred);
///     }
/// }
/// assert!(!p.predict(pc, 0));
/// assert!(p.predict(pc, 1));
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: CounterTable,
    mask: u64,
    history_bits: u32,
}

impl GsharePredictor {
    /// Creates a predictor with `entries` 2-bit counters and `history_bits`
    /// of global history folded into the index.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two, or `history_bits > 64`.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(history_bits <= 64, "history bits must be <= 64");
        GsharePredictor {
            table: CounterTable::new(2, 1, entries),
            mask: entries as u64 - 1,
            history_bits,
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Number of global-history bits used in the index.
    pub fn history_bits(&self) -> u32 {
        self.history_bits
    }

    /// The counters, for [`TournamentLane`](crate::TournamentLane).
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut [u8] {
        self.table.values_mut()
    }

    #[inline]
    fn index(&self, pc_hash: u64, history: u64) -> usize {
        let hist_mask = if self.history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.history_bits) - 1
        };
        ((pc_hash ^ (history & hist_mask)) & self.mask) as usize
    }

    /// [`predict`](DirectionPredictor::predict) with the PC hash
    /// ([`Pc::table_hash`]) precomputed — the batched hot path hashes
    /// each event's PC once and feeds every table from it. The plain
    /// trait methods delegate here, so the two spellings cannot drift.
    #[inline]
    pub fn predict_hashed(&self, pc_hash: u64, history: u64) -> bool {
        self.table.msb(self.index(pc_hash, history))
    }

    /// [`update`](DirectionPredictor::update) with the PC hash
    /// precomputed (see [`predict_hashed`](Self::predict_hashed)).
    #[inline]
    pub fn update_hashed(&mut self, pc_hash: u64, history: u64, taken: bool) {
        let idx = self.index(pc_hash, history);
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
    pub fn train_hashed(&mut self, pc_hash: u64, history: u64, taken: bool) -> bool {
        self.table.train(self.index(pc_hash, history), taken)
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

impl DirectionPredictor for GsharePredictor {
    #[inline]
    fn predict(&self, pc: Pc, history: u64) -> bool {
        self.predict_hashed(pc.table_hash(), history)
    }

    #[inline]
    fn update(&mut self, pc: Pc, history: u64, taken: bool, _predicted: bool) {
        self.update_hashed(pc.table_hash(), history, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_history_correlated_branch() {
        let mut p = GsharePredictor::new(1 << 12, 8);
        let pc = Pc::new(0x2000);
        // Outcome equals parity of low 2 history bits.
        for _ in 0..32 {
            for h in 0u64..4 {
                let taken = (h.count_ones() & 1) == 1;
                let pred = p.predict(pc, h);
                p.update(pc, h, taken, pred);
            }
        }
        for h in 0u64..4 {
            let taken = (h.count_ones() & 1) == 1;
            assert_eq!(p.predict(pc, h), taken, "history {h}");
        }
    }

    #[test]
    fn zero_history_bits_degenerates_to_bimodal() {
        let mut p = GsharePredictor::new(256, 0);
        let pc = Pc::new(0x10);
        for _ in 0..4 {
            let pred = p.predict(pc, 0b1111);
            p.update(pc, 0b1111, true, pred);
        }
        // History must be ignored entirely.
        assert!(p.predict(pc, 0b0000));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = GsharePredictor::new(100, 8);
    }
}
