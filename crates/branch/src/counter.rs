//! Saturating up/down counters, the workhorse of table-based predictors.

/// An n-bit saturating counter (n ≤ 8).
///
/// # Examples
///
/// ```
/// use paco_branch::SaturatingCounter;
/// let mut c = SaturatingCounter::new(2, 1); // 2-bit, weakly not-taken
/// c.increment();
/// c.increment();
/// c.increment();
/// assert_eq!(c.value(), 3); // saturates at 3
/// assert!(c.msb());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates an `bits`-bit counter with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or `initial` exceeds the
    /// maximum representable value.
    pub fn new(bits: u32, initial: u8) -> Self {
        assert!((1..=8).contains(&bits), "counter width must be 1..=8 bits");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        SaturatingCounter {
            value: initial,
            max,
        }
    }

    /// Current counter value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.value
    }

    /// Maximum representable value.
    #[inline]
    pub const fn max(self) -> u8 {
        self.max
    }

    /// Increments, saturating at the maximum.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Resets to zero (the JRS miss-distance counter does this on a
    /// mispredict).
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Most significant bit: the conventional "predict taken" test for
    /// direction counters.
    #[inline]
    pub const fn msb(self) -> bool {
        self.value > self.max / 2
    }

    /// Whether the counter is saturated high.
    #[inline]
    pub const fn is_max(self) -> bool {
        self.value == self.max
    }

    /// Overwrites the counter value (state restore); `false` if `value`
    /// exceeds the counter's maximum, leaving it unchanged.
    #[inline]
    pub fn set_value(&mut self, value: u8) -> bool {
        if value > self.max {
            return false;
        }
        self.value = value;
        true
    }
}

/// A dense table of equal-width saturating counters.
///
/// The table-based predictors (gshare, bimodal, the tournament chooser,
/// the JRS MDC table) all hold thousands-to-millions of counters that
/// share one width. Storing them as `Vec<SaturatingCounter>` costs two
/// bytes per entry — half of it the `max` bound duplicated into every
/// element. A `CounterTable` keeps one byte per counter plus a single
/// shared bound, **halving every predictor table's memory footprint and
/// cache traffic** — the paper's 96KB hybrid predictor state drops from
/// ~832KB to ~416KB per pipeline/session, which is what the batched
/// confidence hot path ends up bounded by.
///
/// # Examples
///
/// ```
/// use paco_branch::CounterTable;
/// let mut t = CounterTable::new(2, 1, 4); // 2-bit counters, weakly not-taken
/// assert!(!t.msb(0));
/// t.increment(0);
/// assert!(t.msb(0));
/// ```
#[derive(Debug, Clone)]
pub struct CounterTable {
    values: Vec<u8>,
    max: u8,
    /// `max / 2`: `msb(i)` ⇔ `values[i] > msb_threshold`.
    msb_threshold: u8,
}

impl CounterTable {
    /// Creates a table of `entries` `bits`-wide counters, all at
    /// `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8, or `initial` exceeds the
    /// maximum representable value.
    pub fn new(bits: u32, initial: u8, entries: usize) -> Self {
        assert!((1..=8).contains(&bits), "counter width must be 1..=8 bits");
        let max = ((1u16 << bits) - 1) as u8;
        assert!(initial <= max, "initial value {initial} exceeds max {max}");
        CounterTable {
            values: vec![initial; entries],
            max,
            msb_threshold: max / 2,
        }
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table holds no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The shared maximum representable value.
    #[inline]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// The shared counter width in bits.
    #[inline]
    pub fn counter_bits(&self) -> u32 {
        8 - self.max.leading_zeros()
    }

    /// Counter `idx`'s current value.
    #[inline]
    pub fn value(&self, idx: usize) -> u8 {
        self.values[idx]
    }

    /// Counter `idx`'s most significant bit: the conventional "predict
    /// taken" test.
    #[inline]
    pub fn msb(&self, idx: usize) -> bool {
        self.values[idx] > self.msb_threshold
    }

    /// Increments counter `idx`, saturating at the maximum.
    #[inline]
    pub fn increment(&mut self, idx: usize) {
        let v = &mut self.values[idx];
        if *v < self.max {
            *v += 1;
        }
    }

    /// Decrements counter `idx`, saturating at zero.
    #[inline]
    pub fn decrement(&mut self, idx: usize) {
        let v = &mut self.values[idx];
        if *v > 0 {
            *v -= 1;
        }
    }

    /// Resets counter `idx` to zero (the JRS miss-distance counter does
    /// this on a mispredict).
    #[inline]
    pub fn reset(&mut self, idx: usize) {
        self.values[idx] = 0;
    }

    /// Fused predict-then-train on counter `idx`: returns the pre-update
    /// prediction and applies the outcome, touching the entry once — ≡
    /// [`msb`](Self::msb) followed by increment/decrement.
    #[inline]
    pub fn train(&mut self, idx: usize, taken: bool) -> bool {
        let v = &mut self.values[idx];
        let predicted = *v > self.msb_threshold;
        if taken {
            if *v < self.max {
                *v += 1;
            }
        } else if *v > 0 {
            *v -= 1;
        }
        predicted
    }

    /// Appends the raw counter values (length prefix + one byte per
    /// counter) — the shared snapshot encoding for every table-based
    /// predictor in this crate.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        paco_types::wire::write_uvarint(out, self.values.len() as u64);
        out.extend_from_slice(&self.values);
    }

    /// Restores state saved by [`save_state`](Self::save_state),
    /// advancing `input`. `false` (table untouched or partially written
    /// — callers treat any failure as fatal for the whole restore) on a
    /// length mismatch, truncation, or an out-of-range counter value.
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        let Some(len) = paco_types::wire::read_uvarint(input) else {
            return false;
        };
        if len != self.values.len() as u64 || input.len() < self.values.len() {
            return false;
        }
        let (bytes, rest) = input.split_at(self.values.len());
        if bytes.iter().any(|&v| v > self.max) {
            return false;
        }
        self.values.copy_from_slice(bytes);
        *input = rest;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_both_ends() {
        let mut c = SaturatingCounter::new(2, 0);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_max());
    }

    #[test]
    fn msb_threshold_for_two_bit() {
        // 0,1 predict not-taken; 2,3 predict taken.
        assert!(!SaturatingCounter::new(2, 0).msb());
        assert!(!SaturatingCounter::new(2, 1).msb());
        assert!(SaturatingCounter::new(2, 2).msb());
        assert!(SaturatingCounter::new(2, 3).msb());
    }

    #[test]
    fn four_bit_counter_range() {
        let mut c = SaturatingCounter::new(4, 0);
        for _ in 0..20 {
            c.increment();
        }
        assert_eq!(c.value(), 15);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_wide_counters() {
        let _ = SaturatingCounter::new(9, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_bad_initial() {
        let _ = SaturatingCounter::new(2, 4);
    }
}
