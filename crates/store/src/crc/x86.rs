//! Carry-less-multiply CRC-32 kernel for x86-64 — the one module in this
//! crate allowed to contain `unsafe`.
//!
//! The kernel itself is safe code: a `#[target_feature]` function built
//! from value intrinsics only (no pointer loads or stores). The single
//! `unsafe` block is the call into it from code compiled without those
//! features, in [`kernel`], on the branch where the CPU reported all of
//! them.
//!
//! The method is the folding of Gopal et al., "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
//! bit-reflected domain the IEEE CRC lives in: a 128-bit register `x`
//! standing `n` bits ahead of the data still to come is congruent, modulo
//! the polynomial `P`, to `x.lo · (x^(n+32) mod P) ⊕ x.hi · (x^(n-32) mod
//! P)` at that later position — two carry-less multiplies and an XOR move
//! it forward without ever reducing it. Four registers fold 512 bits ahead
//! side by side (64 bytes per step), then into one 128 bits at a time;
//! what is left is reduced 128 → 64 → 32 bits, the last step by Barrett's
//! method (multiply by `μ = ⌊x^64 / P⌋`, then by `P`).

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

use super::{update_table, UpdateFn};

/// The folding constants, each `x^n mod P` bit-reflected over 32 bits and
/// shifted left once (the form a reflected carry-less multiply wants).
/// Public so `tests/prop_crc32.rs` can re-derive every one of them by
/// bitwise polynomial division instead of trusting a transcription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldConstants {
    /// `x^(4·128+32) mod P` and `x^(4·128-32) mod P`: four registers side
    /// by side, each folded 512 bits ahead.
    pub fold_512: [u64; 2],
    /// `x^(128+32) mod P` and `x^(128-32) mod P`: one register folded 128
    /// bits ahead (the second also reduces 128 bits to 96).
    pub fold_128: [u64; 2],
    /// `x^64 mod P`: reduces 96 bits to 64.
    pub fold_64: u64,
    /// `P` itself, 33 bits, reflected.
    pub poly: u64,
    /// Barrett's `μ = ⌊x^64 / P⌋`, 33 bits, reflected.
    pub mu: u64,
}

/// The constants for the IEEE 802.3 polynomial.
pub const FOLD: FoldConstants = FoldConstants {
    fold_512: [0x0000_0001_5444_2bd4, 0x0000_0001_c6e4_1596],
    fold_128: [0x0000_0001_7519_97d0, 0x0000_0000_ccaa_009e],
    fold_64: 0x0000_0001_63cd_6124,
    poly: 0x0000_0001_db71_0641,
    mu: 0x0000_0001_f701_1641,
};

/// Bytes folded per step of the main loop, and the shortest input the
/// kernel takes; anything shorter goes to the table code.
const STEP: usize = 64;

/// The carry-less-multiply update function, if this CPU can run it.
pub(super) fn kernel() -> Option<UpdateFn> {
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        Some(|state, data| {
            if data.len() < STEP {
                return update_table(state, data);
            }
            // SAFETY: this function pointer exists only on the branch where
            // the CPU reported `pclmulqdq` and `sse4.1` — exactly the
            // features `update_clmul` is compiled with — and CPU features
            // do not change while a process runs.
            unsafe { update_clmul(state, data) }
        })
    } else {
        None
    }
}

/// Sixteen bytes of `data` at `at`, the first byte in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn load(data: &[u8], at: usize) -> __m128i {
    let half = |at: usize| {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&data[at..at + 8]);
        i64::from_le_bytes(bytes)
    };
    _mm_set_epi64x(half(at + 8), half(at))
}

/// Both 64-bit constants of one fold in a register, the first low.
#[inline]
#[target_feature(enable = "sse2")]
fn pair(k: [u64; 2]) -> __m128i {
    _mm_set_epi64x(k[1] as i64, k[0] as i64)
}

/// `x` moved ahead by the distance `k` encodes, onto `next`.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
    let lo = _mm_clmulepi64_si128(x, k, 0x00);
    let hi = _mm_clmulepi64_si128(x, k, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// Advances the running CRC `state` over `data` (at least [`STEP`]
/// bytes): whole 64-byte steps, then whole 16-byte steps, folded; the
/// last `len % 16` bytes by the table code.
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn update_clmul(state: u32, data: &[u8]) -> u32 {
    debug_assert!(data.len() >= STEP);
    let mut x0 = _mm_xor_si128(load(data, 0), _mm_cvtsi32_si128(state as i32));
    let mut x1 = load(data, 16);
    let mut x2 = load(data, 32);
    let mut x3 = load(data, 48);
    let mut at = STEP;

    let k512 = pair(FOLD.fold_512);
    while data.len() - at >= STEP {
        x0 = fold(x0, k512, load(data, at));
        x1 = fold(x1, k512, load(data, at + 16));
        x2 = fold(x2, k512, load(data, at + 32));
        x3 = fold(x3, k512, load(data, at + 48));
        at += STEP;
    }

    let k128 = pair(FOLD.fold_128);
    let mut x = fold(x0, k128, x1);
    x = fold(x, k128, x2);
    x = fold(x, k128, x3);
    while data.len() - at >= 16 {
        x = fold(x, k128, load(data, at));
        at += 16;
    }

    // 128 → 96 bits: the low half folded 64 bits ahead onto the high half.
    let low32 = _mm_set_epi32(0, !0, 0, !0);
    x = _mm_xor_si128(_mm_clmulepi64_si128(x, k128, 0x10), _mm_srli_si128(x, 8));
    // 96 → 64 bits: the low 32 folded 64 bits ahead onto the rest.
    let k64 = _mm_set_epi64x(0, FOLD.fold_64 as i64);
    x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k64, 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: 64 → 32 bits.
    let poly_mu = pair([FOLD.poly, FOLD.mu]);
    let t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
    let t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
    let folded = _mm_extract_epi32(_mm_xor_si128(x, t), 1) as u32;

    update_table(folded, &data[at..])
}
