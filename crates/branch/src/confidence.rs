//! JRS / enhanced-JRS branch confidence estimation.
//!
//! The JRS predictor (Jacobsen, Rotenberg, Smith, MICRO-29) keeps a table of
//! 4-bit *miss distance counters* (MDCs). An MDC is incremented on every
//! correct prediction of the branch that maps to it and reset to zero on a
//! mispredict, so its value is the number of consecutive correct
//! predictions since the last mispredict — a strong predictor of
//! predictability. The *enhanced* JRS variant (Grunwald et al., ISCA-25)
//! additionally folds the predicted direction into the table index.
//!
//! PaCo uses the MDC value not as a binary high/low classification but as a
//! *stratifier*: branches are bucketed by MDC value and a correct-prediction
//! probability is measured per bucket.

use crate::counter::slot;
use crate::CounterTable;
use paco_types::canon::Canon;
use paco_types::Pc;

/// An MDC (miss-distance counter) value, `0..=15` for the paper's 4-bit
/// counters.
///
/// # Examples
///
/// ```
/// use paco_branch::Mdc;
/// let m = Mdc::new(7);
/// assert_eq!(m.value(), 7);
/// assert!(!m.is_high_confidence(8));
/// assert!(m.is_high_confidence(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mdc(u8);

impl Mdc {
    /// Number of distinct MDC values for 4-bit counters.
    pub const BUCKETS: usize = 16;
    /// The maximum 4-bit MDC value.
    pub const MAX: Mdc = Mdc(15);

    /// Creates an MDC value.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds 15.
    #[inline]
    pub fn new(value: u8) -> Self {
        assert!(value < Self::BUCKETS as u8, "MDC value must be 0..=15");
        Mdc(value)
    }

    /// A counter value as an MDC, saturating at [`Mdc::MAX`].
    #[inline]
    const fn saturating(value: u8) -> Self {
        Mdc(if value > Self::MAX.0 {
            Self::MAX.0
        } else {
            value
        })
    }

    /// The raw counter value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// The bucket index for per-MDC statistics tables.
    #[inline]
    pub const fn bucket(self) -> usize {
        self.0 as usize
    }

    /// The conventional threshold classification: MDC ≥ threshold is "high
    /// confidence" (unlikely to mispredict).
    #[inline]
    pub const fn is_high_confidence(self, threshold: u8) -> bool {
        self.0 >= threshold
    }
}

impl std::fmt::Display for Mdc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An index into the MDC table, captured at prediction time.
///
/// The front end reads the MDC when a branch is fetched and carries the
/// index with the in-flight branch so that the resolution-time update hits
/// the same entry even if global history has since moved on.
///
/// The `Default` value indexes entry 0 — a placeholder for in-flight
/// records of branches that never touch the table (non-conditional
/// control flow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MdcIndex(u32);

/// Configuration for an [`MdcTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceConfig {
    /// Number of table entries (power of two). The paper uses an 8KB table
    /// of 4-bit counters = 16384 entries.
    pub entries: usize,
    /// MDC counter width in bits (paper: 4).
    pub counter_bits: u32,
    /// Global-history bits folded into the index.
    pub history_bits: u32,
    /// Enhanced JRS: also fold the predicted direction into the index.
    pub enhanced: bool,
}

impl ConfidenceConfig {
    /// The paper's configuration: "an 8 KB enhanced JRS confidence
    /// predictor, where the MDCs are 4-bit counters".
    pub const fn paper() -> Self {
        ConfidenceConfig {
            entries: 16 * 1024,
            counter_bits: 4,
            history_bits: 8,
            enhanced: true,
        }
    }

    /// The original (non-enhanced) JRS configuration at the same size.
    pub const fn jrs_classic() -> Self {
        ConfidenceConfig {
            entries: 16 * 1024,
            counter_bits: 4,
            history_bits: 8,
            enhanced: false,
        }
    }

    /// A small configuration for unit tests.
    pub const fn tiny() -> Self {
        ConfidenceConfig {
            entries: 256,
            counter_bits: 4,
            history_bits: 4,
            enhanced: true,
        }
    }
}

impl Default for ConfidenceConfig {
    fn default() -> Self {
        ConfidenceConfig::paper()
    }
}

impl Canon for ConfidenceConfig {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x02); // type tag
        self.entries.canon(out);
        self.counter_bits.canon(out);
        self.history_bits.canon(out);
        self.enhanced.canon(out);
    }
}

/// The JRS miss-distance-counter table.
///
/// # Examples
///
/// ```
/// use paco_branch::{MdcTable, ConfidenceConfig};
/// use paco_types::Pc;
///
/// let mut table = MdcTable::new(ConfidenceConfig::tiny());
/// let pc = Pc::new(0x100);
/// let idx = table.index(pc, 0, true);
/// assert_eq!(table.read(idx).value(), 0);
/// table.update(idx, true);
/// table.update(idx, true);
/// assert_eq!(table.read(idx).value(), 2);
/// table.update(idx, false); // mispredict resets
/// assert_eq!(table.read(idx).value(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MdcTable {
    counters: CounterTable,
    mask: u64,
    history_mask: u64,
    enhanced: bool,
}

impl MdcTable {
    /// Creates an MDC table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two at most 2^32 or the
    /// counter width is outside `1..=8`.
    pub fn new(config: ConfidenceConfig) -> Self {
        assert!(
            config.entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(
            config.entries as u64 <= 1 << 32,
            "an MDC index must fit 32 bits"
        );
        let history_mask = if config.history_bits == 64 {
            u64::MAX
        } else {
            (1u64 << config.history_bits) - 1
        };
        MdcTable {
            counters: CounterTable::new(config.counter_bits, 0, config.entries),
            mask: config.entries as u64 - 1,
            history_mask,
            enhanced: config.enhanced,
        }
    }

    /// Computes the table index for a branch at prediction time.
    ///
    /// `predicted_taken` participates in the hash only in the enhanced
    /// configuration.
    #[inline]
    pub fn index(&self, pc: Pc, history: u64, predicted_taken: bool) -> MdcIndex {
        self.index_hashed(pc.table_hash(), history, predicted_taken)
    }

    /// [`index`](Self::index) with the PC hash ([`Pc::table_hash`])
    /// precomputed.
    #[inline]
    fn index_hashed(&self, pc_hash: u64, history: u64, predicted_taken: bool) -> MdcIndex {
        let mut h = pc_hash ^ (history & self.history_mask);
        if self.enhanced {
            // Grunwald et al.: include the predicted direction in the hash.
            h ^= (predicted_taken as u64) << 5;
        }
        MdcIndex((h & self.mask) as u32)
    }

    /// Reads the MDC at a previously computed index. A counter wider
    /// than 4 bits reads as at most [`Mdc::MAX`]: the MDC strata are the
    /// 16 values of the paper's 4-bit counter, so a longer run of
    /// correct predictions lands in the top stratum.
    #[inline]
    pub fn read(&self, idx: MdcIndex) -> Mdc {
        Mdc::saturating(self.counters.value(idx.0 as usize))
    }

    /// The fused fetch-time operation — [`index`](Self::index) +
    /// [`read`](Self::read) in one call, hashing once; defined as
    /// exactly the two-step sequence, so both spellings are
    /// interchangeable.
    #[inline]
    pub fn fetch(&self, pc: Pc, history: u64, predicted_taken: bool) -> (MdcIndex, Mdc) {
        let idx = self.index(pc, history, predicted_taken);
        (idx, self.read(idx))
    }

    /// Applies the resolution-time update: increment on a correct
    /// prediction, reset on a mispredict.
    #[inline]
    pub fn update(&mut self, idx: MdcIndex, correct: bool) {
        if correct {
            self.counters.increment(idx.0 as usize);
        } else {
            self.counters.reset(idx.0 as usize);
        }
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    /// The table as an [`MdcLane`]: the batched hot loop's view, with
    /// the counters, masks and counter bound hoisted out of the loop.
    #[inline]
    pub fn lane(&mut self) -> MdcLane<'_> {
        let max = self.counters.max();
        let lane = MdcLane {
            counters: self.counters.values_mut(),
            history_mask: self.history_mask,
            enhanced_bit: if self.enhanced { 1 << 5 } else { 0 },
            max,
        };
        // A non-empty table lets the compiler see every masked index in
        // bounds.
        assert!(!lane.counters.is_empty());
        lane
    }

    /// Appends the table's counter state (for session snapshots).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.counters.save_state(out);
    }

    /// Restores state saved by [`save_state`](Self::save_state) into a
    /// table of the same configuration; `false` on any mismatch.
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        self.counters.load_state(input)
    }

    /// Storage footprint in bytes (for hardware-budget reporting).
    pub fn storage_bytes(&self) -> usize {
        // All counters share one width.
        self.counters.len() * self.counters.counter_bits() as usize / 8
    }
}

/// An [`MdcTable`] borrowed for a batch of events: the same fetch and
/// update as the table's own [`fetch`](MdcTable::fetch) and
/// [`update`](MdcTable::update), keyed by the PC hash
/// ([`Pc::table_hash`]) the caller computes once per event. The
/// counters are a plain slice whose power-of-two length is the index
/// mask, so every access is in bounds by construction.
#[derive(Debug)]
pub struct MdcLane<'a> {
    counters: &'a mut [u8],
    history_mask: u64,
    /// The enhanced configuration's predicted-direction bit (0 when
    /// classic).
    enhanced_bit: u64,
    max: u8,
}

impl MdcLane<'_> {
    /// The index and current MDC of the branch whose PC hashes to
    /// `pc_hash`, fetched under `history` with `predicted_taken`.
    #[inline]
    pub fn fetch(&mut self, pc_hash: u64, history: u64, predicted_taken: bool) -> (MdcIndex, Mdc) {
        let key = pc_hash
            ^ (history & self.history_mask)
            ^ ((predicted_taken as u64) << 5 & self.enhanced_bit);
        let idx = key as usize & (self.counters.len() - 1);
        (MdcIndex(idx as u32), Mdc::saturating(self.counters[idx]))
    }

    /// The resolution-time update: increment on a correct prediction,
    /// reset on a mispredict.
    #[inline]
    pub fn update(&mut self, idx: MdcIndex, correct: bool) {
        let v = slot(self.counters, idx.0 as u64);
        *v = if correct {
            *v + (*v < self.max) as u8
        } else {
            0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_matches_the_table() {
        for (counter_bits, history_bits, enhanced) in [(1, 0, true), (4, 8, true), (8, 64, false)] {
            let config = ConfidenceConfig {
                entries: 1 << 5,
                counter_bits,
                history_bits,
                enhanced,
            };
            let mut plain = MdcTable::new(config);
            let mut laned = MdcTable::new(config);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = Pc::new(0x1000 + (x % 61) * 4);
                let (history, predicted, correct) = (x.rotate_left(9), x & 1 == 1, x % 5 != 0);
                let (idx, mdc) = plain.fetch(pc, history, predicted);
                let mut lane = laned.lane();
                assert_eq!(lane.fetch(pc.table_hash(), history, predicted), (idx, mdc));
                lane.update(idx, correct);
                plain.update(idx, correct);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            plain.save_state(&mut a);
            laned.save_state(&mut b);
            assert_eq!(a, b, "{config:?}");
        }
    }

    #[test]
    fn mdc_counts_consecutive_correct_predictions() {
        let mut t = MdcTable::new(ConfidenceConfig::tiny());
        let idx = t.index(Pc::new(0x40), 0b1010, true);
        for i in 1..=20 {
            t.update(idx, true);
            assert_eq!(t.read(idx).value(), i.min(15));
        }
        t.update(idx, false);
        assert_eq!(t.read(idx).value(), 0);
    }

    #[test]
    fn wide_counters_read_in_the_mdc_range() {
        // An 8-bit counter counts past 15; its MDC stays a valid bucket.
        let mut t = MdcTable::new(ConfidenceConfig {
            counter_bits: 8,
            ..ConfidenceConfig::tiny()
        });
        let idx = t.index(Pc::new(0x40), 0, true);
        for _ in 0..40 {
            t.update(idx, true);
        }
        assert_eq!(t.read(idx), Mdc::MAX);
        assert_eq!(
            t.lane().fetch(Pc::new(0x40).table_hash(), 0, true).1,
            Mdc::MAX
        );
    }

    #[test]
    fn enhanced_index_depends_on_predicted_direction() {
        let t = MdcTable::new(ConfidenceConfig::tiny());
        let a = t.index(Pc::new(0x40), 0, true);
        let b = t.index(Pc::new(0x40), 0, false);
        assert_ne!(a, b, "enhanced JRS must split on predicted direction");
    }

    #[test]
    fn classic_index_ignores_predicted_direction() {
        let mut cfg = ConfidenceConfig::tiny();
        cfg.enhanced = false;
        let t = MdcTable::new(cfg);
        let a = t.index(Pc::new(0x40), 0, true);
        let b = t.index(Pc::new(0x40), 0, false);
        assert_eq!(a, b);
    }

    #[test]
    fn index_depends_on_history() {
        let t = MdcTable::new(ConfidenceConfig::tiny());
        let a = t.index(Pc::new(0x40), 0b0001, true);
        let b = t.index(Pc::new(0x40), 0b0010, true);
        assert_ne!(a, b);
    }

    #[test]
    fn paper_config_is_8kb() {
        let t = MdcTable::new(ConfidenceConfig::paper());
        assert_eq!(t.storage_bytes(), 8 * 1024);
        assert_eq!(t.entries(), 16 * 1024);
    }

    #[test]
    fn high_confidence_threshold_semantics() {
        // "with a threshold of 3, branches need to be predicted correctly
        // three consecutive times before they are considered high-confidence"
        let mut t = MdcTable::new(ConfidenceConfig::tiny());
        let idx = t.index(Pc::new(0x80), 0, false);
        assert!(!t.read(idx).is_high_confidence(3));
        t.update(idx, true);
        t.update(idx, true);
        assert!(!t.read(idx).is_high_confidence(3));
        t.update(idx, true);
        assert!(t.read(idx).is_high_confidence(3));
    }

    #[test]
    #[should_panic(expected = "0..=15")]
    fn mdc_rejects_out_of_range() {
        let _ = Mdc::new(16);
    }
}
