//! AVX2 ChaCha20 kernel for x86-64 — with `sha256::x86`, one of the two
//! modules in this crate allowed to contain `unsafe`.
//!
//! The kernel itself is safe code: `#[target_feature]` functions built
//! from value intrinsics only (no pointer loads or stores). The single
//! `unsafe` block is the call into it from code compiled without that
//! feature, in [`kernel`], on the branch where the CPU reported it.
//!
//! Row layout: the ChaCha state is a 4 × 4 matrix of words, and each
//! `__m256i` here is one row of **two consecutive blocks** — block `c` in
//! the low 128 bits, block `c + 1` in the high. A column round is then
//! four whole-register operations; a diagonal round is the same after
//! rotating rows 1, 2, 3 left by one, two, three words within each half.
//! Up to four such pairs (512 bytes) are in flight at once to cover the
//! latency of the add → xor → rotate chain.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_extract_epi64, _mm256_or_si256, _mm256_permute2x128_si256,
    _mm256_set_epi32, _mm256_set_epi64x, _mm256_shuffle_epi32, _mm256_shuffle_epi8,
    _mm256_slli_epi32, _mm256_srli_epi32, _mm256_xor_si256,
};

use super::{xor_blocks_scalar, ChaCha20, XorBlocksFn, BLOCK_LEN, SIGMA};

/// The AVX2 whole-block function, if this CPU can run it.
pub(super) fn kernel() -> Option<XorBlocksFn> {
    if is_x86_feature_detected!("avx2") {
        Some(|cipher, counter, blocks| {
            // SAFETY: this function pointer exists only on the branch where
            // the CPU reported `avx2` — exactly the feature
            // `xor_blocks_avx2` is compiled with — and CPU features do not
            // change while a process runs.
            unsafe { xor_blocks_avx2(cipher, counter, blocks) }
        })
    } else {
        None
    }
}

/// Bytes one register pair of rows covers: two blocks.
const PAIR_LEN: usize = 2 * BLOCK_LEN;

/// XORs the keystream from block `counter` on into `blocks` (whole
/// 64-byte blocks): 512 bytes at a time while they last, then at most one
/// 256-byte and one 128-byte step; a last odd block is the scalar code's.
#[target_feature(enable = "avx2")]
fn xor_blocks_avx2(cipher: &ChaCha20, counter: u32, blocks: &mut [u8]) {
    let mut counter = counter;
    let mut rest = blocks;
    while rest.len() >= 4 * PAIR_LEN {
        rest = xor_pairs::<4>(cipher, &mut counter, rest);
    }
    if rest.len() >= 2 * PAIR_LEN {
        rest = xor_pairs::<2>(cipher, &mut counter, rest);
    }
    if rest.len() >= PAIR_LEN {
        rest = xor_pairs::<1>(cipher, &mut counter, rest);
    }
    xor_blocks_scalar(cipher, counter, rest);
}

/// `word` rotated left by 16, 12, 8 and 7 bits in every 32-bit lane: the
/// byte-aligned two are one byte shuffle, the others shift-shift-or.
#[inline]
#[target_feature(enable = "avx2")]
fn rotl16(word: __m256i) -> __m256i {
    let lanes = _mm256_set_epi64x(
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
    );
    _mm256_shuffle_epi8(word, lanes)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl12(word: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<12>(word), _mm256_srli_epi32::<20>(word))
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl8(word: __m256i) -> __m256i {
    let lanes = _mm256_set_epi64x(
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
    );
    _mm256_shuffle_epi8(word, lanes)
}

#[inline]
#[target_feature(enable = "avx2")]
fn rotl7(word: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<7>(word), _mm256_srli_epi32::<25>(word))
}

/// The quarter round on all four columns of both blocks of every pair.
#[inline]
#[target_feature(enable = "avx2")]
fn quarter_rounds<const N: usize>(pairs: &mut [[__m256i; 4]; N]) {
    for [a, b, c, d] in pairs {
        *a = _mm256_add_epi32(*a, *b);
        *d = rotl16(_mm256_xor_si256(*d, *a));
        *c = _mm256_add_epi32(*c, *d);
        *b = rotl12(_mm256_xor_si256(*b, *c));
        *a = _mm256_add_epi32(*a, *b);
        *d = rotl8(_mm256_xor_si256(*d, *a));
        *c = _mm256_add_epi32(*c, *d);
        *b = rotl7(_mm256_xor_si256(*b, *c));
    }
}

/// 32 bytes as a register, byte 0 lowest.
#[inline]
#[target_feature(enable = "avx2")]
fn load(bytes: &[u8; 32]) -> __m256i {
    let quad = |i: usize| {
        let mut eight = [0u8; 8];
        eight.copy_from_slice(&bytes[8 * i..8 * i + 8]);
        i64::from_le_bytes(eight)
    };
    _mm256_set_epi64x(quad(3), quad(2), quad(1), quad(0))
}

/// XORs `keystream` into 32 bytes of data.
#[inline]
#[target_feature(enable = "avx2")]
fn xor_into(bytes: &mut [u8; 32], keystream: __m256i) {
    let mixed = _mm256_xor_si256(load(bytes), keystream);
    bytes[..8].copy_from_slice(&_mm256_extract_epi64::<0>(mixed).to_le_bytes());
    bytes[8..16].copy_from_slice(&_mm256_extract_epi64::<1>(mixed).to_le_bytes());
    bytes[16..24].copy_from_slice(&_mm256_extract_epi64::<2>(mixed).to_le_bytes());
    bytes[24..].copy_from_slice(&_mm256_extract_epi64::<3>(mixed).to_le_bytes());
}

/// XORs `2 · N` blocks of keystream, from block `counter` on, into the
/// first `N · 128` bytes of `data`; advances `counter` past them and
/// returns the rest of `data`. Each block's counter is its own
/// `wrapping_add`, so the 32-bit wrap falls between the same two blocks as
/// in the scalar stream, wherever in a group that is.
#[inline]
#[target_feature(enable = "avx2")]
fn xor_pairs<'a, const N: usize>(
    cipher: &ChaCha20,
    counter: &mut u32,
    data: &'a mut [u8],
) -> &'a mut [u8] {
    let (data, rest) = data.split_at_mut(N * PAIR_LEN);
    // A row of key material, the same in both blocks of a pair.
    let both = |w: [u32; 4]| {
        let [w0, w1, w2, w3] = w.map(|word| word as i32);
        _mm256_set_epi32(w3, w2, w1, w0, w3, w2, w1, w0)
    };
    let k = &cipher.key;
    let [n0, n1, n2] = cipher.nonce.map(|word| word as i32);
    let (sigma, key_low, key_high) = (
        both(SIGMA),
        both([k[0], k[1], k[2], k[3]]),
        both([k[4], k[5], k[6], k[7]]),
    );
    // Row 3 is each block's own counter, then the nonce.
    let mut input = [[sigma, key_low, key_high, sigma]; N];
    for rows in &mut input {
        let (low, high) = (*counter, counter.wrapping_add(1));
        rows[3] = _mm256_set_epi32(n2, n1, n0, high as i32, n2, n1, n0, low as i32);
        *counter = counter.wrapping_add(2);
    }

    let mut pairs = input;
    for _ in 0..10 {
        quarter_rounds(&mut pairs);
        // Diagonals into columns: row r rotates left by r words …
        for [_, b, c, d] in &mut pairs {
            *b = _mm256_shuffle_epi32::<0x39>(*b);
            *c = _mm256_shuffle_epi32::<0x4e>(*c);
            *d = _mm256_shuffle_epi32::<0x93>(*d);
        }
        quarter_rounds(&mut pairs);
        // … and back.
        for [_, b, c, d] in &mut pairs {
            *b = _mm256_shuffle_epi32::<0x93>(*b);
            *c = _mm256_shuffle_epi32::<0x4e>(*c);
            *d = _mm256_shuffle_epi32::<0x39>(*d);
        }
    }

    let (chunks, _) = data.as_chunks_mut::<32>();
    for ((rows, input), out) in pairs.iter().zip(&input).zip(chunks.chunks_exact_mut(4)) {
        let sum = |row: usize| _mm256_add_epi32(rows[row], input[row]);
        let (a, b, c, d) = (sum(0), sum(1), sum(2), sum(3));
        // Rows back to stream order: the low halves are block `c`'s 64
        // bytes, the high halves block `c + 1`'s.
        xor_into(&mut out[0], _mm256_permute2x128_si256::<0x20>(a, b));
        xor_into(&mut out[1], _mm256_permute2x128_si256::<0x20>(c, d));
        xor_into(&mut out[2], _mm256_permute2x128_si256::<0x31>(a, b));
        xor_into(&mut out[3], _mm256_permute2x128_si256::<0x31>(c, d));
    }
    rest
}
