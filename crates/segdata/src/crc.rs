//! CRC-32 (IEEE 802.3) — the one checksum implementation of the workspace.
//!
//! Both the binary wire protocol (`metaseg_serve::wire`) and the chunked
//! container format ([`crate::container`]) checksum their payloads with this
//! function; it lives in the data crate so the two byte formats can never
//! drift apart on polynomial, reflection or initial value.

/// The CRC-32 (IEEE 802.3) polynomial in reflected bit order.
const POLY: u32 = 0xEDB8_8320;

/// CRC-32 (IEEE 802.3, polynomial [`POLY`]) lookup table, built at compile
/// time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
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

/// Inputs of at least this many bytes run as four lanes (see [`crc32`]).
/// Shorter ones run as one stream: there the lanes' join, about 0.2 µs of
/// [`multmodp`] steps, costs more than their overlap saves. Timed side by
/// side on a shared 2-vCPU x86-64 VM (release build), the lanes took
/// 1.19–1.52x the one stream's time at 448 bytes and 0.73–0.88x at 512
/// (three runs), and 0.35–0.52x at 44 KB and at 2.8 MB (four runs).
const LANE_CROSSOVER: usize = 512;

/// CRC-32 (IEEE) of a byte slice — the chunk/payload checksum shared by the
/// wire protocol and the container format.
///
/// From 512 bytes up, the input is cut into four equal lanes whose
/// slicing-by-8 streams run interleaved in one loop, so the CPU overlaps
/// their table lookups instead of waiting on one dependency chain.
/// The lane registers are then joined in GF(2): the register of `a ‖ b` is
/// the register of `a` times x^(8·|b|) mod P, plus that of `b` started from
/// zero. The result is bit for bit the one-stream CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF;
    let mut rest = bytes;
    if bytes.len() >= LANE_CROSSOVER {
        let lane_len = bytes.len() / 32 * 8;
        let (lanes, tail) = bytes.split_at(4 * lane_len);
        crc = four_lanes(crc, lanes, lane_len);
        rest = tail;
    }
    !update(crc, rest)
}

/// Runs four slicing-by-8 streams over the four `lane_len`-byte lanes of
/// `bytes` (`lane_len` a multiple of 8), the first continuing from `crc`,
/// and joins them.
fn four_lanes(crc: u32, bytes: &[u8], lane_len: usize) -> u32 {
    let lane_words = lane_len / 8;
    let (words, _) = bytes.as_chunks::<8>();
    let (a, rest) = words.split_at(lane_words);
    let (b, rest) = rest.split_at(lane_words);
    let (c, d) = rest.split_at(lane_words);
    let mut lanes = [crc, 0, 0, 0];
    for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
        lanes[0] = step(lanes[0], a);
        lanes[1] = step(lanes[1], b);
        lanes[2] = step(lanes[2], c);
        lanes[3] = step(lanes[3], d);
    }
    let shift = x2nmodp(lane_len as u64, 3);
    lanes[1..]
        .iter()
        .fold(lanes[0], |joined, &lane| multmodp(shift, joined) ^ lane)
}

/// Advances a CRC register over `bytes`: eight bytes a step, then the
/// 0–7-byte tail one byte at a time.
fn update(mut crc: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        crc = step(crc, word);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// One slicing-by-8 step: eight table lookups advance the register over
/// eight bytes.
#[inline(always)]
fn step(crc: u32, word: &[u8; 8]) -> u32 {
    let t = &CRC32_TABLES;
    let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
    let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][((hi >> 8) & 0xFF) as usize]
        ^ t[1][((hi >> 16) & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

/// `a · b mod P` over GF(2), both in the CRC register's reflected bit order
/// (bit 31 is x^0) — zlib's `multmodp`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
            if a & (m - 1) == 0 {
                break;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    product
}

/// `X2N_TABLE[k]` is x^(2^k) mod P, built at compile time (zlib's
/// `x2n_table`). x^(2^32) mod P is x again, so 32 entries cover every
/// power.
const X2N_TABLE: [u32; 32] = {
    let mut table = [0u32; 32];
    // x^1 in the reflected order.
    let mut power = 1u32 << 30;
    table[0] = power;
    let mut k = 1;
    while k < 32 {
        power = multmodp(power, power);
        table[k] = power;
        k += 1;
    }
    table
};

/// x^(n · 2^k) mod P — zlib's `x2nmodp`. With `k = 3` it is the shift a
/// register takes over `n` zero bytes.
fn x2nmodp(mut n: u64, mut k: usize) -> u32 {
    // x^0 in the reflected order.
    let mut power = 1u32 << 31;
    while n != 0 {
        if n & 1 != 0 {
            power = multmodp(X2N_TABLE[k & 31], power);
        }
        n >>= 1;
        k += 1;
    }
    power
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// zlib's `crc32_combine`: the CRC of `a ‖ b` from the CRCs of `a` and
    /// `b` and the length of `b`.
    fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
        multmodp(x2nmodp(len_b as u64, 3), crc_a) ^ crc_b
    }

    #[test]
    fn the_power_table_wraps_after_32_squarings() {
        // x^(2^32) mod P is x: what lets `x2nmodp` index its table mod 32.
        assert_eq!(multmodp(X2N_TABLE[31], X2N_TABLE[31]), X2N_TABLE[0]);
    }

    proptest! {
        #[test]
        fn prop_crc32_matches_the_bitwise_reference_and_joins(
            len_bits in 0u32..=18,
            len_draw in any::<u64>(),
            start in 0usize..8,
            seed in any::<u64>(),
            split_draw in any::<u64>()
        ) {
            // Lengths up to 256 KiB, log-uniform so that inputs below and
            // above the lane crossover are both common; every length mod
            // 32 covers each lane split and 0–7-byte tail.
            let len = (len_draw % ((1u64 << len_bits) + 1)) as usize;
            let buffer = noise(start + len, seed | 1);
            let bytes = &buffer[start..];
            prop_assert_eq!(crc32(bytes), bitwise_crc32(bytes));
            let (a, b) = bytes.split_at((split_draw % (len as u64 + 1)) as usize);
            prop_assert_eq!(crc32(bytes), crc32_combine(crc32(a), crc32(b), b.len()));
        }
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
