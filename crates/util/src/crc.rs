//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
//! protecting data-file headers and payload chunks in format v2. Std-only,
//! with a streaming state so readers that fetch a payload incrementally
//! (LOD prefix reads) can verify chunk boundaries without re-reading
//! earlier bytes.
//!
//! Two paths compute the same function:
//!
//! * a portable slicing-by-16 loop over sixteen 256-entry tables built at
//!   compile time, which consumes 16 bytes per step and finishes a tail
//!   byte by byte with the first table;
//! * on x86_64 CPUs with `pclmulqdq` and `sse4.1`, detected at run time,
//!   a carry-less-multiply kernel that folds four 128-bit lanes per
//!   64-byte block and Barrett-reduces them to 32 bits. The tail under
//!   64 bytes goes through the portable loop.
//!
//! [`Crc32::update`] picks the path on every call; nothing configures it.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC state
/// contribution of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

static TABLES: [[u32; 256]; 16] = make_tables();

/// Advance the raw (pre-inversion) CRC `state` over `bytes` with the
/// slicing-by-16 tables.
fn update_portable(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let s = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        state = t[15][(s & 0xFF) as usize]
            ^ t[14][((s >> 8) & 0xFF) as usize]
            ^ t[13][((s >> 16) & 0xFF) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Advance the raw CRC `state` over `bytes` on the fastest path this CPU
/// supports.
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = bytes.split_at(bytes.len() & !63);
        // SAFETY: `fold_clmul` needs only the `pclmulqdq` and `sse4.1`
        // target features, and the CPU was just detected to have both.
        let state = unsafe { clmul::fold_clmul(state, blocks) };
        return update_portable(state, tail);
    }
    update_portable(state, bytes)
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial: `x^n mod P(x)`,
    // bit-reflected and shifted left by one, for fold distances of 512
    // bits (K1, K2), 128 bits (K3, K4) and 64 bits (K5); then `P(x)` and
    // the Barrett constant `μ = floor(x^64 / P(x))`, both reflected.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Sixteen bytes as one lane, least significant byte first.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(b: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Fold lane `a` forward by the distance `keys` encodes, into `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Advance the raw CRC `state` over `bytes`, whose length is a
    /// multiple of 64.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold_clmul(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len().is_multiple_of(64));
        let mut blocks = bytes.chunks_exact(64);
        let Some(first) = blocks.next() else {
            return state;
        };
        let mut x0 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&first[16..32]);
        let mut x2 = load(&first[32..48]);
        let mut x3 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        for b in blocks {
            x0 = fold(x0, load(&b[..16]), k1k2);
            x1 = fold(x1, load(&b[16..32]), k1k2);
            x2 = fold(x2, load(&b[32..48]), k1k2);
            x3 = fold(x3, load(&b[48..]), k1k2);
        }

        // Four lanes to one.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let x = fold(fold(fold(x0, x1, k3k4), x2, k3k4), x3, k3k4);

        // 128 bits to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 bits to 32 (reflected form: the result is
        // the upper half of the low quadword).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

/// Streaming CRC-32 state. `finalize` does not consume the state, so a
/// caller can checkpoint the running value at chunk boundaries.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the running checksum.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    /// The CRC of everything fed so far.
    #[inline]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Reset to the empty-input state (start of a new chunk).
    #[inline]
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

/// One-shot CRC-32 of `bytes` on the portable path alone, whatever the
/// CPU. Equal to [`crc32`]; it exists so benches and tests can measure
/// and check the fallback on machines where [`crc32`] takes the hardware
/// path.
pub fn crc32_portable(bytes: &[u8]) -> u32 {
    update_portable(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Bit-at-a-time CRC-32 with no table: the definition both paths must
    /// match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut rng = Rng::seed_from_u64(0x5EED_C2C3);
        (0..n).map(|_| rng.u8()).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values, through both paths.
        for f in [crc32, crc32_portable] {
            assert_eq!(f(b""), 0x0000_0000);
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn paths_agree_at_every_length_and_offset() {
        let data = seeded_bytes(16 + 1100);
        for start in 0..16 {
            for len in 0..=1100 {
                let bytes = &data[start..start + len];
                let want = crc32_bitwise(bytes);
                assert_eq!(crc32_portable(bytes), want, "portable, {start}+{len}");
                assert_eq!(crc32(bytes), want, "dispatched, {start}+{len}");
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = seeded_bytes(5_000);
        let want = crc32_bitwise(&data);
        let n = data.len();
        let splits = (0..n).step_by(37).chain([63, 64, 65, n - 1, n]);
        for split in splits {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), want, "split at {split}");
        }
        // Streaming in 37-byte pieces, each below the hardware threshold.
        let mut c = Crc32::new();
        for piece in data.chunks(37) {
            c.update(piece);
        }
        assert_eq!(c.finalize(), want);
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 512];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn reset_restarts_the_stream() {
        let mut c = Crc32::new();
        c.update(b"garbage");
        c.reset();
        c.update(b"123456789");
        assert_eq!(c.finalize(), 0xCBF4_3926);
    }
}
