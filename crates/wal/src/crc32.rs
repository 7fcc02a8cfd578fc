//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8.
//!
//! The standard `crc32fast` crate is unavailable offline, so the tables
//! are generated at compile time from the reversed polynomial
//! `0xEDB88320`. The output matches zlib's `crc32()` (and therefore any
//! external tool a trace or log might be inspected with).
//!
//! Slicing-by-8 folds eight input bytes per step through eight 256-entry
//! tables: `TABLES[0]` is the classic byte-at-a-time table, and
//! `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes. The
//! eight lookups of a step are independent, so they overlap in the CPU
//! instead of forming one serial chain per byte. A tail shorter than eight
//! bytes runs byte at a time.

/// The eight 256-entry lookup tables of slicing-by-8.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes` (initial value `!0`, final XOR `!0` — the zlib
/// convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_end(crc32_update(crc32_begin(), bytes))
}

/// Incremental form: extends a running CRC with more bytes. Start from
/// [`crc32_begin`], finish with [`crc32_end`].
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Initial state for [`crc32_update`].
pub fn crc32_begin() -> u32 {
    !0u32
}

/// Finalizes an incremental CRC state into the checksum value.
pub fn crc32_end(state: u32) -> u32 {
    !state
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference the sliced loop must reproduce.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // zlib reference values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"batch-dynamic subgraph matching";
        let mut s = crc32_begin();
        for chunk in data.chunks(7) {
            s = crc32_update(s, chunk);
        }
        assert_eq!(crc32_end(s), crc32(data));
    }

    #[test]
    fn single_bit_flip_detected() {
        let mut data = vec![0xA5u8; 97];
        let before = crc32(&data);
        data[41] ^= 0x08;
        assert_ne!(before, crc32(&data));
    }

    proptest! {
        /// Every length 0–300, from any start offset (unaligned reads),
        /// split anywhere into two `crc32_update` calls, gives the byte
        /// loop's CRC.
        #[test]
        fn sliced_matches_byte_loop(
            data in prop::collection::vec(0u8..=255, 0..308usize),
            start in 0usize..8,
            len in 0usize..=300,
            split in 0usize..=300,
        ) {
            let start = start.min(data.len());
            let len = len.min(data.len() - start);
            let bytes = &data[start..start + len];
            let want = reference(bytes);
            prop_assert_eq!(crc32(bytes), want);
            let (a, b) = bytes.split_at(split.min(len));
            prop_assert_eq!(crc32_end(crc32_update(crc32_update(crc32_begin(), a), b)), want);
        }
    }
}
