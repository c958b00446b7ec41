//! Shared wire-codec primitives: LEB128 varints, ZigZag signed mapping
//! and CRC-32 checksums.
//!
//! Three subsystems speak the same low-level byte vocabulary — the
//! `paco-trace` on-disk format, the `paco-bench` result cache and the
//! `paco-serve` network protocol — so the primitives live here, in the
//! dependency-free vocabulary crate, with a single implementation and a
//! single test suite. `paco-trace` re-exports them for compatibility.
//!
//! Every framed byte crosses the CRC up to four times per served round
//! trip (client encode, server decode, server encode, client decode),
//! so its loop is the largest per-byte cost on that path. Inputs below
//! 1 KiB (`BRAID_MIN_LEN`) run slice-by-8: eight 1 KiB tables fold eight
//! input bytes per step with independent lookups instead of a serial
//! chain of eight. Longer inputs run zlib's braided CRC: five chains
//! take turns over consecutive 8-byte words, each folding its word
//! through eight more tables that carry the word past the other four
//! chains' words, and the last block merges the chains through the
//! slice-by-8 step. The chains are independent, so the loop runs at the
//! rate of the table loads rather than the latency of one chain: about
//! 0.21 ns/B on a bulk frame of 10–12 KB against 0.67–0.71 for
//! slice-by-8 (2-vCPU Xeon VM). The threshold keeps small frames on
//! slice-by-8's tables alone: with its own 8 KiB of tables cold, the
//! braid lost to slice-by-8 up to about 1–1.5 KiB. All tables are
//! `const`-evaluated, so nothing is initialised at run time.
//!
//! It is plain safe code, so the trace format, the result cache and the
//! network protocol all share the one implementation on any hardware. A
//! carry-less-multiply (PCLMULQDQ) CRC would be faster still, but it
//! needs `unsafe` intrinsics, run-time feature detection and a second
//! path for other hardware. The byte-at-a-time loop survives in the
//! tests as the reference.
//!
//! # Examples
//!
//! ```
//! use paco_types::wire::{read_uvarint, write_uvarint, zigzag, unzigzag, crc32};
//!
//! let mut buf = Vec::new();
//! write_uvarint(&mut buf, zigzag(-2));
//! let mut s = buf.as_slice();
//! assert_eq!(read_uvarint(&mut s).map(unzigzag), Some(-2));
//! assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
//! ```

/// Appends `v` as a LEB128 varint.
#[inline]
pub fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The longest LEB128 encoding of a `u64`.
pub const MAX_UVARINT_LEN: usize = 10;

/// Writes `v` as a LEB128 varint into the front of `buf` and returns the
/// number of bytes written — the same bytes [`write_uvarint`] appends,
/// for encoders that reserve a worst case once and write by index.
/// Panics if `buf` is shorter than the encoding
/// ([`MAX_UVARINT_LEN`] always suffices).
///
/// One- and two-byte values (warm scores, sequential PC deltas) take a
/// straight-line fast path; longer ones fall back to the byte loop.
#[inline]
pub fn put_uvarint(buf: &mut [u8], v: u64) -> usize {
    if v < 0x80 {
        buf[0] = v as u8;
        1
    } else if v < 0x4000 {
        buf[0] = v as u8 | 0x80;
        buf[1] = (v >> 7) as u8;
        2
    } else {
        put_uvarint_loop(buf, v)
    }
}

/// [`put_uvarint`] one byte at a time: the general case.
fn put_uvarint_loop(buf: &mut [u8], mut v: u64) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        buf[i] = (v as u8) | 0x80;
        v >>= 7;
        i += 1;
    }
    buf[i] = v as u8;
    i + 1
}

/// Reads a LEB128 varint from the front of `input`, advancing it.
/// `None` on truncation or a varint longer than 10 bytes.
///
/// One- and two-byte varints take a straight-line fast path; longer
/// ones fall back to the byte loop, so the accepted bytes and the
/// verdicts are the loop's.
#[inline]
pub fn read_uvarint(input: &mut &[u8]) -> Option<u64> {
    let bytes = *input;
    match *bytes {
        [b0, ref rest @ ..] if b0 < 0x80 => {
            *input = rest;
            Some(b0 as u64)
        }
        [b0, b1, ref rest @ ..] if b1 < 0x80 => {
            *input = rest;
            Some((b0 & 0x7f) as u64 | (b1 as u64) << 7)
        }
        _ => {
            let (v, len) = read_uvarint_loop(bytes)?;
            *input = &bytes[len..];
            Some(v)
        }
    }
}

/// [`read_uvarint`] one byte at a time: the general case. Returns the
/// value and its length in bytes. It takes the slice by value, so a
/// caller's cursor never has its address taken and stays in a
/// register.
fn read_uvarint_loop(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in bytes.iter().take(MAX_UVARINT_LEN).enumerate() {
        v |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

/// Maps a signed delta onto the unsigned varint domain (small magnitudes
/// of either sign encode in one byte).
#[inline]
pub const fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub const fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Eight CRC lookup tables: `tables[k][b]` is the CRC contribution of
/// byte `b` followed by `zeros + k` zero bytes (from a zero state), so
/// eight input bytes fold into a state with eight independent lookups.
/// With `zeros == 0` these are the slice-by-8 tables and `tables[0]` is
/// the classic byte-at-a-time table; the braided loop's tables carry
/// the other chains' words as `zeros` extra zero bytes.
const fn crc32_tables(zeros: usize) -> [[u32; 256]; 8] {
    let mut base = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        base[i] = crc;
        i += 1;
    }
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        // Each step appends one zero byte to the byte's contribution.
        let mut crc = base[i];
        let mut step = 0;
        while step < zeros + 8 {
            if step >= zeros {
                tables[step - zeros][i] = crc;
            }
            crc = (crc >> 8) ^ base[(crc & 0xff) as usize];
            step += 1;
        }
        i += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables(0);

/// Independent chains the braided loop runs side by side.
const BRAID_CHAINS: usize = 5;

/// Bytes one braided step consumes: one 8-byte word per chain.
const BRAID_BLOCK: usize = 8 * BRAID_CHAINS;

/// Inputs shorter than this take the slice-by-8 loop alone. Below it
/// the braid tables' extra cache footprint costs more than the braid
/// saves when they are cold (see the module doc).
const BRAID_MIN_LEN: usize = 1024;

/// The braided loop's tables: a word of one chain is followed by the
/// other chains' words before that chain's next word.
static BRAID_TABLES: [[u32; 256]; 8] = crc32_tables(8 * (BRAID_CHAINS - 1));

/// CRC-32 (IEEE 802.3) of `data`, used as the payload checksum by every
/// framed format in the workspace.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0u32, data) ^ !0u32
}

/// Feeds `data` into a running CRC-32 state (start from `!0u32`, finish
/// by XORing with `!0u32`); lets framed formats checksum a header byte
/// plus a payload without concatenating them.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    if data.len() < BRAID_MIN_LEN {
        return crc32_slice8(state, data);
    }
    let (braided, rest) = data.split_at(data.len() / BRAID_BLOCK * BRAID_BLOCK);
    crc32_slice8(crc32_braided(state, braided), rest)
}

/// Folds one little-endian 8-byte word into `state` through the tables
/// `t`: the slice-by-8 step.
#[inline(always)]
fn fold_word(t: &[[u32; 256]; 8], state: u32, word: &[u8]) -> u32 {
    let w = state as u64 ^ u64::from_le_bytes(word.try_into().unwrap());
    t[7][w as u8 as usize]
        ^ t[6][(w >> 8) as u8 as usize]
        ^ t[5][(w >> 16) as u8 as usize]
        ^ t[4][(w >> 24) as u8 as usize]
        ^ t[3][(w >> 32) as u8 as usize]
        ^ t[2][(w >> 40) as u8 as usize]
        ^ t[1][(w >> 48) as u8 as usize]
        ^ t[0][(w >> 56) as usize]
}

/// Slice-by-8, then byte at a time for the last `len % 8` bytes.
fn crc32_slice8(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        state = fold_word(&CRC_TABLES, state, w);
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ CRC_TABLES[0][(state as u8 ^ b) as usize];
    }
    state
}

/// The braided loop over `data`, a nonzero multiple of [`BRAID_BLOCK`]
/// bytes: chain `i` folds words `i`, `i + N`, `i + 2N`, ... through
/// [`BRAID_TABLES`], so the chains' lookups are independent, and the
/// last block merges them through the slice-by-8 step.
fn crc32_braided(state: u32, data: &[u8]) -> u32 {
    let (body, last) = data.split_at(data.len() - BRAID_BLOCK);
    let mut chains = [0u32; BRAID_CHAINS];
    chains[0] = state;
    for block in body.chunks_exact(BRAID_BLOCK) {
        for (i, chain) in chains.iter_mut().enumerate() {
            *chain = fold_word(&BRAID_TABLES, *chain, &block[8 * i..8 * i + 8]);
        }
    }
    let mut state = 0;
    for (i, chain) in chains.iter().enumerate() {
        state = fold_word(&CRC_TABLES, state ^ chain, &last[8 * i..8 * i + 8]);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            buf.clear();
            write_uvarint(&mut buf, v);
            let mut s = buf.as_slice();
            assert_eq!(read_uvarint(&mut s), Some(v));
            assert!(s.is_empty());
        }
    }

    #[test]
    fn put_uvarint_writes_what_write_uvarint_appends() {
        let mut values = vec![0, 1, 127, 128, 300, 16_383, 16_384, u64::MAX];
        values.extend((0..64).map(|shift| 1u64 << shift));
        values.extend((1..64).map(|shift| (1u64 << shift) - 1));
        for v in values {
            let mut appended = Vec::new();
            write_uvarint(&mut appended, v);
            let mut buf = [0xaau8; MAX_UVARINT_LEN];
            let n = put_uvarint(&mut buf, v);
            assert_eq!(&buf[..n], appended.as_slice(), "value {v}");
        }
    }

    /// Every value below 2^16 (the one- and two-byte fast paths and the
    /// first three-byte values) plus both sides of each 7-bit boundary
    /// up to `u64::MAX`.
    fn varint_probe_values() -> Vec<u64> {
        let mut values: Vec<u64> = (0..1 << 16).collect();
        for k in 1..10 {
            let edge = 1u64 << (7 * k);
            values.extend([edge - 1, edge, edge + 1]);
        }
        values.extend([u64::MAX - 1, u64::MAX]);
        values
    }

    #[test]
    fn varint_fast_paths_agree_with_the_byte_loop() {
        for v in varint_probe_values() {
            let mut fast = [0xaau8; MAX_UVARINT_LEN];
            let mut slow = [0xaau8; MAX_UVARINT_LEN];
            let n = put_uvarint(&mut fast, v);
            assert_eq!(n, put_uvarint_loop(&mut slow, v), "value {v}");
            assert_eq!(fast, slow, "value {v}");

            // Followed by a byte that must be left unread.
            let mut bytes = fast[..n].to_vec();
            bytes.push(0xff);
            let mut rest = bytes.as_slice();
            assert_eq!(read_uvarint(&mut rest), Some(v), "value {v}");
            assert_eq!(rest, [0xff], "value {v}");
            assert_eq!(read_uvarint_loop(&bytes), Some((v, n)), "value {v}");
        }
    }

    #[test]
    fn varint_refuses_every_truncation_and_an_eleventh_byte() {
        for v in varint_probe_values() {
            let mut buf = [0u8; MAX_UVARINT_LEN];
            let n = put_uvarint(&mut buf, v);
            for cut in 0..n {
                let mut s = &buf[..cut];
                assert_eq!(read_uvarint(&mut s), None, "value {v}, cut {cut}");
                assert_eq!(s.len(), cut, "a refused read must not advance");
            }
        }
        let mut eleven = [0x80u8; 11];
        eleven[10] = 0x01;
        let mut s = eleven.as_slice();
        assert_eq!(read_uvarint(&mut s), None);
        let mut s = &eleven[..10];
        assert_eq!(read_uvarint(&mut s), None);
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut buf = Vec::new();
        write_uvarint(&mut buf, 8); // a sequential +4 PC delta, zigzagged
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut s: &[u8] = &[0x80, 0x80];
        assert_eq!(read_uvarint(&mut s), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 2, -2, 4, i64::MAX, i64::MIN, -123_456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_update_chains_like_concatenation() {
        let state = crc32_update(!0u32, b"12345");
        assert_eq!(crc32_update(state, b"6789") ^ !0u32, crc32(b"123456789"));
    }

    /// The byte-at-a-time CRC the slice-by-8 and braided loops must
    /// agree with.
    fn crc32_update_reference(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = (state >> 8) ^ CRC_TABLES[0][((state ^ b as u32) & 0xff) as usize];
        }
        state
    }

    fn seeded_bytes(len: usize) -> Vec<u8> {
        let mut rng = crate::SplitMix64::new(0x5eed_c0c0);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// Every length up to two braided blocks and a partial word past
    /// the braid threshold, at every start offset within a word, from
    /// the initial state and from a chained one.
    #[test]
    fn crc32_matches_byte_at_a_time_reference() {
        let longest = BRAID_MIN_LEN + 2 * BRAID_BLOCK + 7;
        let buf = seeded_bytes(longest + 8);
        let chained = crc32_update_reference(!0u32, b"a chained start");
        for start in [!0u32, chained] {
            for offset in 0..8 {
                for len in 0..=longest {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        crc32_update(start, data),
                        crc32_update_reference(start, data),
                        "start {start:#x}, offset {offset}, len {len}"
                    );
                }
            }
        }
    }

    /// Every cut of a bulk-size (12 KB) buffer: both halves may take
    /// either loop, and the braided one must chain like the rest.
    #[test]
    fn crc32_update_chains_at_every_cut() {
        let data = seeded_bytes(12 * 1024);
        let whole = crc32(&data);
        assert_eq!(whole, crc32_update_reference(!0u32, &data) ^ !0u32);
        let mut state = !0u32;
        for cut in 0..=data.len() {
            assert_eq!(crc32_update(!0u32, &data[..cut]), state, "cut {cut}");
            assert_eq!(
                crc32_update(state, &data[cut..]) ^ !0u32,
                whole,
                "cut {cut}"
            );
            if let Some(&b) = data.get(cut) {
                state = crc32_update_reference(state, &[b]);
            }
        }
    }
}
