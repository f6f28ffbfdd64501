//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Supports incremental hashing via [`Sha256`] and a one-shot helper
//! [`sha256`]. This is the only digest used throughout the workspace (cert
//! signatures, HMAC, transcript hashes, file checksums).
//!
//! # Which compression function runs
//!
//! [`Sha256`] splits its input into 64-byte blocks and hands every run of
//! whole blocks, straight from the caller's slice, to [`compress_blocks`].
//! That function is resolved once per process, from what the CPU reports:
//!
//! - on x86-64 with the `sha`, `sse4.1` and `ssse3` features (run-time
//!   `is_x86_feature_detected!`), the SHA-NI kernel in the private `x86`
//!   module (one of the crate's two `unsafe` call sites, with
//!   `chacha20::x86`);
//! - everywhere else (other architectures, older x86-64 CPUs), the portable
//!   [`compress_blocks_scalar`].
//!
//! Both produce identical states for identical input; [`kernel_name`] says
//! which one this process uses. There is no feature flag, environment
//! variable or build setting that selects a path. The scalar function is
//! also the reference the tests compare the kernel against
//! (`tests/kat.rs`, `tests/prop_sha256.rs`), through [`sha256_scalar`].

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size in bytes (used by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block goes to the kernel in one call, uncopied; only
        // the sub-block tail is buffered.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        finish(
            self.state,
            self.buffer,
            self.buffered,
            self.total_len,
            kernel().0,
        )
    }
}

/// Pads the partial block `buffer[..buffered]` of a `total_len`-byte
/// message in place — `0x80`, zeros, 64-bit big-endian bit length, spilling
/// into a second block when fewer than 8 bytes are left after the marker —
/// compresses it and serialises the state.
fn finish(
    mut state: [u32; 8],
    mut buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
    compress: CompressFn,
) -> [u8; DIGEST_LEN] {
    buffer[buffered] = 0x80;
    buffer[buffered + 1..].fill(0);
    if buffered >= BLOCK_LEN - 8 {
        compress(&mut state, &buffer);
        buffer.fill(0);
    }
    buffer[BLOCK_LEN - 8..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &buffer);

    let mut out = [0u8; DIGEST_LEN];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// A compression function over whole blocks: folds `blocks` (a multiple
/// of [`BLOCK_LEN`] bytes) into `state`.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// The compression function this process uses, resolved on first call
/// from the CPU's reported features and never again.
fn kernel() -> (CompressFn, &'static str) {
    static KERNEL: OnceLock<(CompressFn, &'static str)> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(sha_ni) = x86::kernel() {
            return (sha_ni, "sha-ni");
        }
        (compress_blocks_scalar, "scalar")
    })
}

/// Name of the compression function [`compress_blocks`] dispatches to in
/// this process: `"sha-ni"` or `"scalar"`.
pub fn kernel_name() -> &'static str {
    kernel().1
}

/// Folds `blocks` into `state` with the fastest compression function the
/// CPU supports (see the module docs); same result as
/// [`compress_blocks_scalar`].
///
/// # Panics
/// Panics if `blocks.len()` is not a multiple of [`BLOCK_LEN`].
pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % BLOCK_LEN, 0, "partial SHA-256 block");
    (kernel().0)(state, blocks);
}

/// Portable compression function: the fallback on CPUs without SHA
/// extensions and the reference the hardware kernel is tested against.
///
/// # Panics
/// Panics if `blocks.len()` is not a multiple of [`BLOCK_LEN`].
pub fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % BLOCK_LEN, 0, "partial SHA-256 block");
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress_scalar(state, block);
    }
}

fn compress_scalar(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 on [`compress_blocks_scalar`] whatever the CPU: the
/// reference digest the dispatched path must reproduce.
pub fn sha256_scalar(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut state = H0;
    let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
    compress_blocks_scalar(&mut state, blocks);
    let mut buffer = [0u8; BLOCK_LEN];
    buffer[..tail.len()].copy_from_slice(tail);
    finish(
        state,
        buffer,
        tail.len(),
        data.len() as u64,
        compress_blocks_scalar,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Padding edge cases: lengths around the 56-byte boundary.
        for len in 54..=66usize {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
