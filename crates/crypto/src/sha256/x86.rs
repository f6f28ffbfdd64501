//! SHA-NI compression kernel for x86-64 — with `chacha20::x86`, one of the
//! two modules in this crate allowed to contain `unsafe`.
//!
//! The kernel itself is safe code: a `#[target_feature]` function built
//! from value intrinsics only (no pointer loads or stores). The single
//! `unsafe` block is the call into it from code compiled without those
//! features, in [`kernel`], on the branch where the CPU reported all of
//! them.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8,
};

use super::{CompressFn, BLOCK_LEN, K};

/// The SHA-NI compression function, if this CPU can run it.
pub(super) fn kernel() -> Option<CompressFn> {
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse4.1")
        && is_x86_feature_detected!("ssse3")
    {
        Some(|state, blocks| {
            // SAFETY: this function pointer exists only on the branch where
            // the CPU reported `sha`, `sse4.1` and `ssse3` — exactly the
            // features `compress_blocks_sha_ni` is compiled with — and
            // CPU features do not change while a process runs.
            unsafe { compress_blocks_sha_ni(state, blocks) }
        })
    } else {
        None
    }
}

/// Four message words `W[4i..4i+4]` of `block`, `W[4i]` in the low lane.
#[inline]
#[target_feature(enable = "ssse3")]
fn load_words(block: &[u8], i: usize) -> __m128i {
    let half = |at: usize| {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&block[at..at + 8]);
        i64::from_le_bytes(bytes)
    };
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let be32 = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    _mm_shuffle_epi8(_mm_set_epi64x(half(16 * i + 8), half(16 * i)), be32)
}

/// Round constants `K[4g..4g+4]`, `K[4g]` in the low lane.
#[inline]
#[target_feature(enable = "sse2")]
fn round_constants(g: usize) -> __m128i {
    let k = |j: usize| K[4 * g + j] as i32;
    _mm_set_epi32(k(3), k(2), k(1), k(0))
}

/// Folds `blocks` (whole 64-byte blocks) into `state`. The working
/// variables live in two registers in the order the `sha256rnds2`
/// instruction wants — `abef` and `cdgh`, first letter in the high lane —
/// from the first block to the last; they are converted from and to the
/// `[a, b, c, d, e, f, g, h]` array once per call.
#[target_feature(enable = "sha,sse4.1,ssse3")]
fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);

    // Four rounds on the message words `$w` of group `$g` (rounds
    // 4g..4g+4). `sha256rnds2(cdgh, abef, wk)` returns the new `abef`; the
    // old `abef` is the new `cdgh`, so the two names swap roles on the
    // first call and swap back on the second.
    macro_rules! rounds4 {
        ($w:expr, $g:expr) => {{
            let wk = _mm_add_epi32($w, round_constants($g));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }
    // Message schedule: the next four words from the previous sixteen,
    // `$w0` the oldest group and `$w3` the newest.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w0 = load_words(block, 0);
        rounds4!(w0, 0);
        let mut w1 = load_words(block, 1);
        rounds4!(w1, 1);
        let mut w2 = load_words(block, 2);
        rounds4!(w2, 2);
        let mut w3 = load_words(block, 3);
        rounds4!(w3, 3);
        for g in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(w0, g);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(w1, g + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(w2, g + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(w3, g + 3);
        }

        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|word| word as u32);
}
