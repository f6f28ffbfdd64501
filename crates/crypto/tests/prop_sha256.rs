//! Differential tests: the dispatched SHA-256 path (the SHA-NI kernel on
//! CPUs that have one) against the scalar reference on the same bytes.
//!
//! On a CPU without SHA extensions both sides are the scalar code; the
//! tests still run — they then check the block pipeline alone — and say
//! so once on stderr.

use proptest::prelude::*;
use unicore_crypto::sha256::{
    compress_blocks, compress_blocks_scalar, kernel_name, sha256_scalar, BLOCK_LEN,
};
use unicore_crypto::Sha256;

fn note_kernel() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| match kernel_name() {
        "scalar" => {
            eprintln!("prop_sha256: no SHA extensions on this CPU — both sides run the scalar code")
        }
        kernel => eprintln!("prop_sha256: comparing the {kernel} kernel with the scalar reference"),
    });
}

proptest! {
    /// Any input, at any alignment, fed through `update` in one to five
    /// pieces, hashes to what the scalar reference makes of the same
    /// bytes in one piece.
    #[test]
    fn pieces_at_any_offset_equal_scalar_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..8192 + 8),
        cuts in proptest::collection::vec(any::<Index>(), 0..5),
    ) {
        note_kernel();
        // Every start offset 0..8 moves the 64-byte block boundaries (and
        // the slice's alignment) relative to the same bytes.
        for skip in 0..8.min(data.len() + 1) {
            let slice = &data[skip..];
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(slice.len() + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut at = 0;
            for cut in cuts {
                hasher.update(&slice[at..cut]);
                at = cut;
            }
            hasher.update(&slice[at..]);
            prop_assert_eq!(hasher.finalize(), sha256_scalar(slice), "skip {}", skip);
        }
    }

    /// From any chaining state, three or more blocks in one
    /// `compress_blocks` call — the kernel's multi-block loop, state held
    /// in registers — equal the same blocks one call each, and the scalar
    /// reference.
    #[test]
    fn chained_blocks_equal_one_block_per_call(
        state in proptest::collection::vec(any::<u32>(), 8),
        data in proptest::collection::vec(any::<u8>(), 3 * BLOCK_LEN..40 * BLOCK_LEN),
        skip in 0usize..8,
    ) {
        note_kernel();
        let state: [u32; 8] = state.try_into().expect("eight words");
        let data = &data[skip.min(data.len() - 3 * BLOCK_LEN)..];
        let blocks = &data[..data.len() - data.len() % BLOCK_LEN];

        let mut at_once = state;
        compress_blocks(&mut at_once, blocks);
        let mut one_by_one = state;
        for block in blocks.chunks_exact(BLOCK_LEN) {
            compress_blocks(&mut one_by_one, block);
        }
        let mut reference = state;
        compress_blocks_scalar(&mut reference, blocks);

        prop_assert_eq!(at_once, one_by_one);
        prop_assert_eq!(at_once, reference);
    }
}
