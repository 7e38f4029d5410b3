//! CRC-32 (IEEE 802.3) — the one checksum implementation of the workspace.
//!
//! Both the binary wire protocol (`metaseg_serve::wire`) and the chunked
//! container format ([`crate::container`]) checksum their payloads with this
//! function; it lives in the data crate so the two byte formats can never
//! drift apart on polynomial, reflection or initial value.

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables (Kounavis & Berry, ISCC 2005), built at compile
/// time from [`CRC32_TABLE`]: `CRC32_TABLES[k][b]` is the CRC state change
/// of byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the checksum over eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let previous = tables[k - 1][i];
            tables[k][i] = (previous >> 8) ^ CRC32_TABLE[(previous & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of a byte slice — the chunk/payload checksum shared by the
/// wire protocol and the container format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = 0xFFFF_FFFFu32;
    for word in words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_reference_vector() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The polynomial applied one bit at a time, with no table: the
    /// reference the table-driven [`crc32`] must equal.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        // Every split of a slice into 8-byte words plus a 0..=7-byte tail,
        // at every start offset relative to the buffer.
        let buffer = noise(8 + 64, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buffer[start..start + len];
                assert_eq!(
                    crc32(slice),
                    bitwise_crc32(slice),
                    "start {start}, length {len}"
                );
            }
        }
        // A buffer over 1 MiB, with a ragged tail.
        let large = noise((1 << 20) + 13, 0xD1B5_4A32_D192_ED03);
        assert_eq!(crc32(&large), bitwise_crc32(&large));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let bytes = vec![0xA5u8; 64];
        let reference = crc32(&bytes);
        for position in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[position] ^= 0x10;
            assert_ne!(crc32(&corrupt), reference);
        }
    }
}
