//! The paper's tournament (hybrid) predictor: gshare + bimodal + selector.

use crate::counter::slot;
use crate::{BimodalPredictor, CounterTable, DirectionPredictor, GsharePredictor};
use paco_types::canon::Canon;
use paco_types::Pc;

/// Configuration for a [`TournamentPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentConfig {
    /// Entries in the gshare component (2-bit counters).
    pub gshare_entries: usize,
    /// Entries in the bimodal component (2-bit counters).
    pub bimodal_entries: usize,
    /// Entries in the selector (2-bit chooser counters).
    pub selector_entries: usize,
    /// Global history bits folded into gshare and selector indices.
    pub history_bits: u32,
}

impl TournamentConfig {
    /// The paper's configuration: "96KB hybrid, 32KB gshare, 32KB bimodal,
    /// 32KB selector, 8 bits of global history".
    ///
    /// 32KB of 2-bit counters = 2<sup>17</sup> entries per component.
    pub const fn paper() -> Self {
        TournamentConfig {
            gshare_entries: 1 << 17,
            bimodal_entries: 1 << 17,
            selector_entries: 1 << 17,
            history_bits: 8,
        }
    }

    /// A small configuration for fast unit tests.
    pub const fn tiny() -> Self {
        TournamentConfig {
            gshare_entries: 1 << 10,
            bimodal_entries: 1 << 10,
            selector_entries: 1 << 10,
            history_bits: 8,
        }
    }
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig::paper()
    }
}

impl Canon for TournamentConfig {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x01); // type tag
        self.gshare_entries.canon(out);
        self.bimodal_entries.canon(out);
        self.selector_entries.canon(out);
        self.history_bits.canon(out);
    }
}

/// A McFarling-style tournament predictor combining gshare and bimodal
/// components through a 2-bit chooser table.
///
/// The chooser counter moves toward the component that was correct when the
/// two disagree (high = prefer gshare).
///
/// # Examples
///
/// ```
/// use paco_branch::{TournamentPredictor, TournamentConfig, DirectionPredictor};
/// use paco_types::Pc;
///
/// let mut p = TournamentPredictor::new(TournamentConfig::tiny());
/// let pc = Pc::new(0x400);
/// for _ in 0..16 {
///     let pred = p.predict(pc, 0);
///     p.update(pc, 0, true, pred);
/// }
/// assert!(p.predict(pc, 0));
/// ```
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    gshare: GsharePredictor,
    bimodal: BimodalPredictor,
    selector: CounterTable,
    selector_mask: u64,
    history_bits: u32,
}

impl TournamentPredictor {
    /// Creates a tournament predictor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if any component size is not a power of two.
    pub fn new(config: TournamentConfig) -> Self {
        assert!(
            config.selector_entries.is_power_of_two(),
            "selector size must be a power of two"
        );
        TournamentPredictor {
            gshare: GsharePredictor::new(config.gshare_entries, config.history_bits),
            bimodal: BimodalPredictor::new(config.bimodal_entries),
            // Initialize the chooser with a slight bimodal preference
            // (bimodal warms up faster).
            selector: CounterTable::new(2, 1, config.selector_entries),
            selector_mask: config.selector_entries as u64 - 1,
            history_bits: config.history_bits,
        }
    }

    /// Creates the predictor in the paper's 96KB configuration.
    pub fn paper_default() -> Self {
        TournamentPredictor::new(TournamentConfig::paper())
    }

    #[inline]
    fn selector_index(&self, pc_hash: u64, history: u64) -> usize {
        let hist_mask = if self.history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.history_bits) - 1
        };
        ((pc_hash ^ (history & hist_mask)) & self.selector_mask) as usize
    }

    /// Prediction with the PC hash ([`Pc::table_hash`]) precomputed;
    /// the plain trait methods delegate here.
    #[inline]
    fn predict_hashed(&self, pc_hash: u64, history: u64) -> bool {
        let g = self.gshare.predict_hashed(pc_hash, history);
        let b = self.bimodal.predict_hashed(pc_hash);
        if self.selector.msb(self.selector_index(pc_hash, history)) {
            g
        } else {
            b
        }
    }

    /// Update with the PC hash precomputed (see
    /// [`predict_hashed`](Self::predict_hashed)).
    ///
    /// Each component entry is touched once via the fused
    /// `train_hashed` ops: the pre-update component predictions train
    /// the chooser (chooser and component tables are disjoint, so
    /// updating the components first cannot change what the chooser
    /// sees), then the components absorb the outcome — the same final
    /// state as the read-then-update spelling, entry for entry.
    #[inline]
    fn update_hashed(&mut self, pc_hash: u64, history: u64, taken: bool) {
        let g = self.gshare.train_hashed(pc_hash, history, taken);
        let b = self.bimodal.train_hashed(pc_hash, taken);
        // Train the chooser only on disagreement.
        if g != b {
            let idx = self.selector_index(pc_hash, history);
            if g == taken {
                self.selector.increment(idx);
            } else {
                self.selector.decrement(idx);
            }
        }
    }

    /// The predictor as a [`TournamentLane`]: the batched hot loop's
    /// view, with the three tables and their masks hoisted out of the
    /// loop.
    #[inline]
    pub fn lane(&mut self) -> TournamentLane<'_> {
        let hist_mask = if self.history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.history_bits) - 1
        };
        let lane = TournamentLane {
            gshare: self.gshare.counters_mut(),
            bimodal: self.bimodal.counters_mut(),
            selector: self.selector.values_mut(),
            hist_mask,
        };
        // Non-empty tables let the compiler see every masked index in
        // bounds.
        assert!(!lane.gshare.is_empty() && !lane.bimodal.is_empty() && !lane.selector.is_empty());
        lane
    }

    /// The two component predictions `(gshare, bimodal)` for inspection.
    pub fn component_predictions(&self, pc: Pc, history: u64) -> (bool, bool) {
        (
            self.gshare.predict(pc, history),
            self.bimodal.predict(pc, history),
        )
    }

    /// Appends the full predictor state — all three component tables —
    /// (for session snapshots).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.gshare.save_state(out);
        self.bimodal.save_state(out);
        self.selector.save_state(out);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// predictor of the same configuration; `false` on any mismatch (the
    /// predictor may then be partially restored and must be discarded).
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        self.gshare.load_state(input)
            && self.bimodal.load_state(input)
            && self.selector.load_state(input)
    }
}

/// A [`TournamentPredictor`] borrowed for a batch of events: the same
/// prediction and training as the predictor's own
/// [`predict`](DirectionPredictor::predict) and
/// [`update`](DirectionPredictor::update), keyed by the PC hash
/// ([`Pc::table_hash`]) the caller computes once per event.
///
/// The three tables are plain slices whose power-of-two lengths are the
/// index masks, so every access is in bounds by construction, and the
/// components' 2-bit counter bounds are constants. The unit tests drive
/// both spellings through one stream and require equal predictions and
/// equal tables.
#[derive(Debug)]
pub struct TournamentLane<'a> {
    gshare: &'a mut [u8],
    bimodal: &'a mut [u8],
    selector: &'a mut [u8],
    hist_mask: u64,
}

/// The 2-bit counter's "predict taken" test (`msb`: above 1).
#[inline]
fn taken2(v: u8) -> bool {
    v > 1
}

/// The 2-bit counter's saturating step toward `up`.
#[inline]
fn step2(v: u8, up: bool) -> u8 {
    if up {
        v + (v < 3) as u8
    } else {
        v - (v > 0) as u8
    }
}

impl TournamentLane<'_> {
    /// The predicted direction of the branch whose PC hashes to
    /// `pc_hash` under `history`.
    #[inline]
    pub fn predict(&mut self, pc_hash: u64, history: u64) -> bool {
        let key = pc_hash ^ (history & self.hist_mask);
        let g = taken2(*slot(self.gshare, key));
        let b = taken2(*slot(self.bimodal, pc_hash));
        if taken2(*slot(self.selector, key)) {
            g
        } else {
            b
        }
    }

    /// Trains on the resolved outcome: both components step toward
    /// `taken`, and the chooser toward the component that was right
    /// when they disagreed.
    #[inline]
    pub fn train(&mut self, pc_hash: u64, history: u64, taken: bool) {
        let key = pc_hash ^ (history & self.hist_mask);
        let g = slot(self.gshare, key);
        let g_taken = taken2(*g);
        *g = step2(*g, taken);
        let b = slot(self.bimodal, pc_hash);
        let b_taken = taken2(*b);
        *b = step2(*b, taken);
        if g_taken != b_taken {
            let s = slot(self.selector, key);
            *s = step2(*s, g_taken == taken);
        }
    }
}

impl DirectionPredictor for TournamentPredictor {
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
    fn learns_static_bias() {
        let mut p = TournamentPredictor::new(TournamentConfig::tiny());
        let pc = Pc::new(0x3000);
        for _ in 0..16 {
            let pred = p.predict(pc, 0);
            p.update(pc, 0, false, pred);
        }
        assert!(!p.predict(pc, 0));
    }

    #[test]
    fn chooser_picks_gshare_for_history_correlated_branch() {
        let mut p = TournamentPredictor::new(TournamentConfig::tiny());
        let pc = Pc::new(0x5000);
        // Alternating pattern driven by history bit 0: bimodal is ~50%,
        // gshare is perfect once trained.
        for i in 0..512u64 {
            let h = i & 0xff;
            let taken = h & 1 == 1;
            let pred = p.predict(pc, h);
            p.update(pc, h, taken, pred);
        }
        let mut correct = 0;
        for i in 0..64u64 {
            let h = i & 0xff;
            let taken = h & 1 == 1;
            if p.predict(pc, h) == taken {
                correct += 1;
            }
        }
        assert!(
            correct >= 60,
            "tournament should track gshare: {correct}/64"
        );
    }

    #[test]
    fn paper_config_sizes() {
        let c = TournamentConfig::paper();
        // 2^17 2-bit counters = 32KB per component.
        assert_eq!(c.gshare_entries * 2 / 8, 32 * 1024);
        assert_eq!(c.bimodal_entries * 2 / 8, 32 * 1024);
        assert_eq!(c.selector_entries * 2 / 8, 32 * 1024);
        assert_eq!(c.history_bits, 8);
    }

    #[test]
    fn state_snapshot_round_trips() {
        let mut trained = TournamentPredictor::new(TournamentConfig::tiny());
        for i in 0..256u64 {
            let pc = Pc::new(0x4000 + (i % 13) * 4);
            let h = i & 0xff;
            let taken = (i * 7) % 3 == 0;
            let pred = trained.predict(pc, h);
            trained.update(pc, h, taken, pred);
        }
        let mut blob = Vec::new();
        trained.save_state(&mut blob);

        let mut fresh = TournamentPredictor::new(TournamentConfig::tiny());
        let mut input = blob.as_slice();
        assert!(fresh.load_state(&mut input));
        assert!(input.is_empty());
        for i in 0..64u64 {
            let pc = Pc::new(0x4000 + (i % 13) * 4);
            assert_eq!(fresh.predict(pc, i & 0xff), trained.predict(pc, i & 0xff));
        }
    }

    #[test]
    fn state_rejects_mismatched_configuration() {
        let trained = TournamentPredictor::new(TournamentConfig::tiny());
        let mut blob = Vec::new();
        trained.save_state(&mut blob);
        let mut bigger = TournamentPredictor::new(TournamentConfig {
            gshare_entries: 1 << 11,
            ..TournamentConfig::tiny()
        });
        assert!(!bigger.load_state(&mut blob.as_slice()));
        // Truncation fails too.
        let mut small = TournamentPredictor::new(TournamentConfig::tiny());
        assert!(!small.load_state(&mut &blob[..blob.len() / 2]));
    }

    #[test]
    fn lane_matches_the_plain_predictor() {
        // Small tables and a drifting PC set force aliasing, so every
        // saturation and chooser path runs.
        for history_bits in [0, 3, 8, 64] {
            let config = TournamentConfig {
                gshare_entries: 1 << 6,
                bimodal_entries: 1 << 4,
                selector_entries: 1 << 5,
                history_bits,
            };
            let mut plain = TournamentPredictor::new(config);
            let mut laned = TournamentPredictor::new(config);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = Pc::new(0x4000 + (x % 97) * 4);
                let history = x.rotate_left(17);
                let taken = x % 3 != 0;
                let predicted = plain.predict(pc, history);
                let mut lane = laned.lane();
                assert_eq!(lane.predict(pc.table_hash(), history), predicted);
                lane.train(pc.table_hash(), history, taken);
                plain.update(pc, history, taken, predicted);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            plain.save_state(&mut a);
            laned.save_state(&mut b);
            assert_eq!(a, b, "history_bits {history_bits}");
        }
    }

    #[test]
    fn component_predictions_exposed() {
        let p = TournamentPredictor::new(TournamentConfig::tiny());
        let (g, b) = p.component_predictions(Pc::new(0x10), 0);
        // Fresh tables are weakly not-taken.
        assert!(!g);
        assert!(!b);
    }
}
