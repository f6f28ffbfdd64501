//! ChaCha20 stream cipher (RFC 7539 flavour: 32-byte key, 12-byte nonce,
//! 32-bit block counter).
//!
//! Used as the record-protection cipher by `unicore-transport` and as the
//! core of this crate's deterministic CSPRNG.
//!
//! # Which block function runs
//!
//! [`ChaCha20::apply`] first drains what is left of a keystream block it
//! already drew, then hands every run of whole 64-byte blocks, in place in
//! the caller's slice, to a whole-block function resolved once per process
//! from what the CPU reports:
//!
//! - on x86-64 with `avx2` (run-time `is_x86_feature_detected!`), the
//!   kernel in the private `x86` module: 128 to 512 bytes per step, a last
//!   odd block left to the scalar code;
//! - everywhere else (other architectures, older x86-64 CPUs), one
//!   [`ChaCha20::block`] call per block.
//!
//! Only a final piece shorter than a block draws a block into the
//! instance's buffer, which the next call drains. Both paths produce the
//! identical keystream; [`kernel_name`] says which one this process uses.
//! There is no feature flag, environment variable or build setting that
//! selects a path. `block()` is also the reference the tests compare the
//! kernel against (`tests/kat.rs`, `tests/prop_chacha20.rs`).

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// "expand 32-byte k": the first row of every block's initial state.
const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

/// ChaCha20 cipher instance bound to a key and nonce.
///
/// Encryption and decryption are the same XOR operation; the struct tracks
/// the keystream offset so data can be processed in arbitrary chunks.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
    /// Unconsumed tail of the current keystream block.
    partial: [u8; BLOCK_LEN],
    partial_used: usize,
}

impl ChaCha20 {
    /// Creates a cipher with the RFC 7539 initial counter of `counter`.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut k = [0u32; 8];
        for i in 0..8 {
            k[i] = u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        let mut n = [0u32; 3];
        for i in 0..3 {
            n[i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
            partial: [0u8; BLOCK_LEN],
            partial_used: BLOCK_LEN,
        }
    }

    /// Produces the raw 64-byte keystream block for `counter`: the
    /// portable scalar block function.
    pub fn block(&self, counter: u32) -> [u8; BLOCK_LEN] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = counter;
        state[13..16].copy_from_slice(&self.nonce);

        let mut working = state;
        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; BLOCK_LEN];
        for i in 0..16 {
            let word = working[i].wrapping_add(state[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        // What an earlier call left of its last block comes first.
        let pending = (BLOCK_LEN - self.partial_used).min(data.len());
        let (head, data) = data.split_at_mut(pending);
        xor(
            head,
            &self.partial[self.partial_used..self.partial_used + pending],
        );
        self.partial_used += pending;

        // Every whole block goes to the kernel in one call, in place; only
        // a sub-block tail draws a block into `partial`.
        let (blocks, tail) = data.split_at_mut(data.len() - data.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            (kernel().0)(self, self.counter, blocks);
            let count = (blocks.len() / BLOCK_LEN) as u32;
            self.counter = self.counter.wrapping_add(count);
        }
        if !tail.is_empty() {
            self.partial = self.block(self.counter);
            self.counter = self.counter.wrapping_add(1);
            xor(tail, &self.partial[..tail.len()]);
            self.partial_used = tail.len();
        }
    }

    /// Convenience: encrypts a copy of `data`.
    pub fn apply_copy(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }

    /// Fills `out` with raw keystream bytes (used by the CSPRNG).
    pub fn keystream(&mut self, out: &mut [u8]) {
        out.fill(0);
        self.apply(out);
    }
}

/// `data[i] ^= keystream[i]` over two slices of one length.
#[inline]
fn xor(data: &mut [u8], keystream: &[u8]) {
    for (byte, k) in data.iter_mut().zip(keystream) {
        *byte ^= k;
    }
}

/// A whole-block function: XORs the keystream of `cipher`'s key and nonce,
/// from the block numbered by the `u32` on, into a multiple of
/// [`BLOCK_LEN`] bytes.
type XorBlocksFn = fn(&ChaCha20, u32, &mut [u8]);

/// The whole-block function this process uses, resolved on first call
/// from the CPU's reported features and never again.
fn kernel() -> (XorBlocksFn, &'static str) {
    static KERNEL: OnceLock<(XorBlocksFn, &'static str)> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(avx2) = x86::kernel() {
            return (avx2, "avx2");
        }
        (xor_blocks_scalar, "scalar")
    })
}

/// Name of the whole-block function [`ChaCha20::apply`] dispatches to in
/// this process: `"avx2"` or `"scalar"`.
pub fn kernel_name() -> &'static str {
    kernel().1
}

/// Portable whole-block function, one [`ChaCha20::block`] per block: the
/// path on CPUs without AVX2, and what the kernel itself runs on a last
/// odd block.
fn xor_blocks_scalar(cipher: &ChaCha20, counter: u32, blocks: &mut [u8]) {
    for (i, block) in blocks.chunks_exact_mut(BLOCK_LEN).enumerate() {
        xor(block, &cipher.block(counter.wrapping_add(i as u32)));
    }
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn test_key() -> [u8; KEY_LEN] {
        let mut k = [0u8; KEY_LEN];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn rfc7539_block_function() {
        // RFC 7539 section 2.3.2 test vector.
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block(1);
        assert_eq!(
            hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc7539_sunscreen_encryption() {
        // RFC 7539 section 2.4.2.
        let key = test_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let ct = cipher.apply_copy(plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Round trip.
        let mut dec = ChaCha20::new(&key, &nonce, 1);
        assert_eq!(dec.apply_copy(&ct), plaintext.to_vec());
    }

    /// `data` XOR the keystream from block `counter` on, one `block()`
    /// call per 64 bytes: what `apply` must equal on either kernel.
    fn by_block(cipher: &ChaCha20, counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for (i, chunk) in data.chunks(BLOCK_LEN).enumerate() {
            let keystream = cipher.block(counter.wrapping_add(i as u32));
            out.extend(chunk.iter().zip(keystream).map(|(byte, k)| byte ^ k));
        }
        out
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32).map(|i| (i * 31 % 256) as u8).collect()
    }

    #[test]
    fn chunked_equals_oneshot() {
        let key = test_key();
        let nonce = [7u8; NONCE_LEN];
        // Long enough that after any first piece there is still a
        // 512-byte group, a 256, a 128 and an odd block to come.
        let data = pattern(2_100);
        let mut one = ChaCha20::new(&key, &nonce, 0);
        let expected = one.apply_copy(&data);
        assert_eq!(expected, by_block(&one, 0, &data));
        for chunk_size in [1usize, 13, 63, 64, 65, 127, 128, 129, 200, 511, 513] {
            let mut c = ChaCha20::new(&key, &nonce, 0);
            let mut out = data.clone();
            for chunk in out.chunks_mut(chunk_size) {
                c.apply(chunk);
            }
            assert_eq!(out, expected, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn every_step_of_the_ladder_equals_scalar() {
        let key = test_key();
        let nonce = [3u8; NONCE_LEN];
        // 512 + 256 + 128 + 60: one group of each width, then a tail that
        // stays in `partial` — from a fresh block and after a 5-byte draw.
        let data = pattern(512 + 256 + 128 + 60);
        let mut fresh = ChaCha20::new(&key, &nonce, 9);
        assert_eq!(fresh.apply_copy(&data), by_block(&fresh, 9, &data));
        assert_eq!(fresh.partial_used, 60);

        let mut offset = ChaCha20::new(&key, &nonce, 9);
        let mut whole = [pattern(5), data].concat();
        let expected = by_block(&offset, 9, &whole);
        let (head, rest) = whole.split_at_mut(5);
        offset.apply(head);
        offset.apply(rest);
        assert_eq!(whole, expected);
    }

    #[test]
    fn counter_wraps_lane_by_lane() {
        // Wherever in an eight-block group the 32-bit counter wraps, the
        // block after `u32::MAX` is block 0.
        let key = test_key();
        let nonce = [5u8; NONCE_LEN];
        let data = pattern(2 * 512 + 60);
        for k in 0..8 {
            let start = u32::MAX - k;
            let mut c = ChaCha20::new(&key, &nonce, start);
            assert_eq!(c.apply_copy(&data), by_block(&c, start, &data), "k = {k}");
            assert_eq!(c.counter, start.wrapping_add(17));
        }
    }

    #[test]
    fn a_clone_mid_stream_continues_identically() {
        let key = test_key();
        let nonce = [11u8; NONCE_LEN];
        let data = pattern(700 + 1_300);
        let mut original = ChaCha20::new(&key, &nonce, 0);
        let mut out = data.clone();
        // 700 bytes leave 60 bytes of a drawn block pending.
        original.apply(&mut out[..700]);
        let mut copy = original.clone();
        let mut out_copy = out.clone();
        original.apply(&mut out[700..]);
        copy.apply(&mut out_copy[700..]);
        assert_eq!(out, out_copy);
        assert_eq!(out, by_block(&original, 0, &data));
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = test_key();
        let mut a = ChaCha20::new(&key, &[1u8; NONCE_LEN], 0);
        let mut b = ChaCha20::new(&key, &[2u8; NONCE_LEN], 0);
        let mut ka = [0u8; 64];
        let mut kb = [0u8; 64];
        a.keystream(&mut ka);
        b.keystream(&mut kb);
        assert_ne!(ka, kb);
    }

    #[test]
    fn counter_wraps_without_panic() {
        let key = test_key();
        let mut c = ChaCha20::new(&key, &[0u8; NONCE_LEN], u32::MAX);
        let mut buf = [0u8; 130];
        c.apply(&mut buf); // crosses the wrap boundary
    }
}
