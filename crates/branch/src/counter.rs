//! Saturating up/down counters, the workhorse of table-based predictors.

/// A dense table of equal-width saturating counters.
///
/// The table-based predictors (gshare, bimodal, the tournament chooser,
/// the JRS MDC table) all hold thousands-to-millions of counters that
/// share one width. A `CounterTable` keeps one byte per counter plus a
/// single shared bound (a counter that carried its own bound would cost
/// two bytes), so the paper's 96KB hybrid predictor state takes ~416KB
/// per pipeline/session.
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

    /// The counters themselves, for the batched lanes' hoisted table
    /// views (`TournamentLane`, `MdcLane`).
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [u8] {
        &mut self.values
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

    /// Bits each counter occupies in a snapshot: the counter width
    /// rounded up to 1, 2, 4 or 8, so whole counters tile every byte.
    fn lane_bits(&self) -> u32 {
        self.counter_bits().next_power_of_two()
    }

    /// Appends the table at its hardware width — the shared snapshot
    /// encoding for every table-based predictor in this crate. A length
    /// varint is followed by `⌈len·w/8⌉` bytes, where `w` is the counter
    /// width rounded up to 1, 2, 4 or 8 bits: counter `k` sits at bit
    /// `w·(k mod 8/w)` of byte `k/(8/w)`, and unused high bits of the
    /// last byte are zero.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        paco_types::wire::write_uvarint(out, self.values.len() as u64);
        match self.lane_bits() {
            1 => pack::<1>(&self.values, out),
            2 => pack::<2>(&self.values, out),
            4 => pack::<4>(&self.values, out),
            _ => out.extend_from_slice(&self.values),
        }
    }

    /// Restores state saved by [`save_state`](Self::save_state),
    /// advancing `input`. `false` (table untouched or partially written
    /// — callers treat any failure as fatal for the whole restore) on a
    /// length mismatch, truncation, nonzero padding bits, or an
    /// out-of-range counter value.
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        let Some(len) = paco_types::wire::read_uvarint(input) else {
            return false;
        };
        let w = self.lane_bits() as usize;
        let packed = (self.values.len() * w).div_ceil(8);
        if len != self.values.len() as u64 || input.len() < packed {
            return false;
        }
        let (bytes, rest) = input.split_at(packed);
        let used = self.values.len() * w % 8;
        if used != 0 && bytes[packed - 1] >> used != 0 {
            return false;
        }
        match w {
            1 => unpack::<1>(bytes, &mut self.values),
            2 => unpack::<2>(bytes, &mut self.values),
            4 => unpack::<4>(bytes, &mut self.values),
            _ => self.values.copy_from_slice(bytes),
        }
        // A max fold, not an early-exit `any`: it vectorizes, and a
        // restore reads whole tables of valid counters. Lanes wider than
        // the counter (widths 3 and 5–7) can hold out-of-range values.
        if self.values.iter().fold(0, |m, &v| m.max(v)) > self.max {
            return false;
        }
        *input = rest;
        true
    }
}

/// `table[key mod len]` for a power-of-two-long table: the masked
/// index is in bounds by construction, so the batched lanes' accesses
/// carry no bounds check once the table is known to be non-empty.
#[inline]
pub(crate) fn slot(table: &mut [u8], key: u64) -> &mut u8 {
    let mask = table.len() - 1;
    &mut table[key as usize & mask]
}

/// `pattern` repeated in every `lane`-bit lane of a word.
const fn splat(pattern: u64, lane: u32) -> u64 {
    u64::MAX / ((1u64 << lane) - 1) * pattern
}

/// Packs eight byte-wide counters (each below `2^W`) into the low `8·W`
/// bits of a word, counter `i` at bit `W·i`: three lane merges, each
/// halving the number of lanes.
#[inline]
fn merge<const W: u32>(x: u64) -> u64 {
    let x = (x | x >> (8 - W)) & splat((1 << (2 * W)) - 1, 16);
    let x = (x | x >> (16 - 2 * W)) & splat((1 << (4 * W)) - 1, 32);
    (x | x >> (32 - 4 * W)) & ((1 << (8 * W)) - 1)
}

/// The inverse of [`merge`]: spreads `8·W` packed bits back into eight
/// byte-wide counters.
#[inline]
fn spread<const W: u32>(x: u64) -> u64 {
    let x = (x | x << (32 - 4 * W)) & splat((1 << (4 * W)) - 1, 32);
    let x = (x | x << (16 - 2 * W)) & splat((1 << (2 * W)) - 1, 16);
    (x | x << (8 - W)) & splat((1 << W) - 1, 8)
}

/// Appends `values` at `W` bits each: eight counters (one word) per
/// step, then the tail byte-wise.
fn pack<const W: u32>(values: &[u8], out: &mut Vec<u8>) {
    let w = W as usize;
    let start = out.len();
    out.resize(start + (values.len() * w).div_ceil(8), 0);
    let (body, tail) = out[start..].split_at_mut(values.len() / 8 * w);
    let mut chunks = values.chunks_exact(8);
    for (dst, src) in body.chunks_exact_mut(w).zip(&mut chunks) {
        let word = merge::<W>(u64::from_le_bytes(src.try_into().expect("8-byte chunk")));
        dst.copy_from_slice(&word.to_le_bytes()[..w]);
    }
    for (byte, lanes) in tail.iter_mut().zip(chunks.remainder().chunks(8 / w)) {
        *byte = lanes
            .iter()
            .enumerate()
            .fold(0, |byte, (i, &v)| byte | v << (w * i));
    }
}

/// Fills `values` from `bytes` packed by [`pack`] at the same `W`
/// (`bytes.len()` is exactly `⌈values.len()·W/8⌉`).
fn unpack<const W: u32>(bytes: &[u8], values: &mut [u8]) {
    let w = W as usize;
    let (body, tail) = bytes.split_at(values.len() / 8 * w);
    let mut chunks = values.chunks_exact_mut(8);
    for (dst, src) in (&mut chunks).zip(body.chunks_exact(w)) {
        let mut word = [0u8; 8];
        word[..w].copy_from_slice(src);
        dst.copy_from_slice(&spread::<W>(u64::from_le_bytes(word)).to_le_bytes());
    }
    let mask = (1u8 << W) - 1;
    for (lanes, &byte) in chunks.into_remainder().chunks_mut(8 / w).zip(tail) {
        for (i, v) in lanes.iter_mut().enumerate() {
            *v = byte >> (w * i) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_both_ends() {
        let mut t = CounterTable::new(2, 0, 1);
        t.decrement(0);
        assert_eq!(t.value(0), 0);
        for _ in 0..10 {
            t.increment(0);
        }
        assert_eq!(t.value(0), 3);
        assert_eq!(t.value(0), t.max());
    }

    #[test]
    fn msb_threshold_for_two_bit() {
        // 0,1 predict not-taken; 2,3 predict taken.
        for initial in 0..=3u8 {
            let mut t = CounterTable::new(2, initial, 1);
            assert_eq!(t.msb(0), initial >= 2, "value {initial}");
            assert_eq!(t.train(0, true), initial >= 2, "train reads msb first");
        }
    }

    #[test]
    fn four_bit_counter_range() {
        let mut t = CounterTable::new(4, 0, 2);
        for _ in 0..20 {
            t.increment(1);
        }
        assert_eq!((t.value(0), t.value(1)), (0, 15));
        assert_eq!(t.counter_bits(), 4);
        t.reset(1);
        assert_eq!(t.value(1), 0);
    }

    #[test]
    fn load_state_refuses_an_out_of_range_counter_anywhere() {
        // 3-bit counters ride in 4-bit lanes, so max + 1 is encodable
        // and only the bound check stands between it and the table.
        let mut table = CounterTable::new(3, 1, 64);
        table.increment(5);
        let mut blob = Vec::new();
        table.save_state(&mut blob);
        let mut input = blob.as_slice();
        assert!(CounterTable::new(3, 0, 64).load_state(&mut input));
        assert!(input.is_empty());

        let first = blob.len() - table.len() / 2;
        for idx in [0, table.len() / 2 + 1, table.len() - 1] {
            let mut bad = blob.clone();
            let shift = 4 * (idx % 2);
            bad[first + idx / 2] &= !(0xf << shift);
            bad[first + idx / 2] |= (table.max() + 1) << shift;
            let mut input = bad.as_slice();
            assert!(
                !CounterTable::new(3, 0, 64).load_state(&mut input),
                "counter {idx} = max + 1 must be refused"
            );
        }
    }

    #[test]
    fn packed_state_round_trips_at_every_width_and_tail() {
        for bits in 1..=8u32 {
            let lane = bits.next_power_of_two() as usize;
            for len in 0..=67usize {
                let mut table = CounterTable::new(bits, 0, len);
                let max = table.max() as usize;
                for idx in 0..len {
                    // A spread of values that hits 0 and max in every
                    // lane position.
                    for _ in 0..(idx * 7 + bits as usize) % (max + 1) {
                        table.increment(idx);
                    }
                }
                let mut blob = Vec::new();
                table.save_state(&mut blob);
                let mut prefix = Vec::new();
                paco_types::wire::write_uvarint(&mut prefix, len as u64);
                assert_eq!(
                    blob.len(),
                    prefix.len() + (len * lane).div_ceil(8),
                    "bits={bits} len={len}"
                );
                blob.push(0xa5); // trailing bytes belong to the caller
                let mut restored = CounterTable::new(bits, max as u8, len);
                let mut input = blob.as_slice();
                assert!(restored.load_state(&mut input), "bits={bits} len={len}");
                assert_eq!(input, &[0xa5]);
                assert_eq!(restored.values, table.values, "bits={bits} len={len}");
                // Every cut short of the whole table is refused.
                for cut in 0..blob.len() - 1 {
                    assert!(!CounterTable::new(bits, 0, len).load_state(&mut &blob[..cut]));
                }
            }
        }
    }

    #[test]
    fn load_state_refuses_nonzero_padding() {
        let table = CounterTable::new(2, 1, 5); // 10 bits: 6 padding bits
        let mut blob = Vec::new();
        table.save_state(&mut blob);
        *blob.last_mut().unwrap() |= 0x80;
        assert!(!CounterTable::new(2, 1, 5).load_state(&mut blob.as_slice()));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn rejects_wide_counters() {
        let _ = CounterTable::new(9, 0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn rejects_bad_initial() {
        let _ = CounterTable::new(2, 4, 1);
    }
}
