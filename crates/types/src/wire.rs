//! Shared wire-codec primitives: LEB128 varints, ZigZag signed mapping
//! and CRC-32 checksums.
//!
//! Three subsystems speak the same low-level byte vocabulary — the
//! `paco-trace` on-disk format, the `paco-bench` result cache and the
//! `paco-serve` network protocol — so the primitives live here, in the
//! dependency-free vocabulary crate, with a single implementation and a
//! single test suite. `paco-trace` re-exports them for compatibility.
//!
//! The CRC is computed slice-by-8: eight 1 KiB tables fold eight input
//! bytes per step with independent lookups instead of a serial chain of
//! eight. Every framed byte crosses it up to four times per served
//! round trip (client encode, server decode, server encode, client
//! decode), and the byte-at-a-time loop was the largest per-byte cost
//! on that path. It is plain safe code, so the trace format, the result
//! cache and the network protocol all share the one implementation; the
//! byte-at-a-time loop survives in the tests as the reference.
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

/// The eight slice-by-8 lookup tables. `CRC_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC contribution of
/// byte `b` followed by `k` zero bytes, so eight input bytes fold into
/// the state with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE 802.3) of `data`, used as the payload checksum by every
/// framed format in the workspace.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0u32, data) ^ !0u32
}

/// Feeds `data` into a running CRC-32 state (start from `!0u32`, finish
/// by XORing with `!0u32`); lets framed formats checksum a header byte
/// plus a payload without concatenating them.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][lo as u8 as usize]
            ^ t[6][(lo >> 8) as u8 as usize]
            ^ t[5][(lo >> 16) as u8 as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][hi as u8 as usize]
            ^ t[2][(hi >> 8) as u8 as usize]
            ^ t[1][(hi >> 16) as u8 as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][(state as u8 ^ b) as usize];
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

    /// The byte-at-a-time CRC the slice-by-8 loop must agree with.
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

    #[test]
    fn crc32_matches_byte_at_a_time_reference() {
        let buf = seeded_bytes(256 + 8);
        for offset in 0..8 {
            for len in 0..=256 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32_update(!0u32, data),
                    crc32_update_reference(!0u32, data),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_update_chains_at_every_cut() {
        let data = seeded_bytes(100);
        let whole = crc32(&data);
        for cut in 0..=data.len() {
            let state = crc32_update(!0u32, &data[..cut]);
            assert_eq!(
                crc32_update(state, &data[cut..]) ^ !0u32,
                whole,
                "cut {cut}"
            );
        }
    }
}
