//! Deterministic ChaCha20-based CSPRNG.
//!
//! Every randomised component in the workspace (key generation, handshake
//! nonces, workload generators) draws from a [`CryptoRng`] so that tests and
//! benchmarks are reproducible from a seed.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::sha256::sha256;

/// A deterministic cryptographically-strong pseudo-random generator.
///
/// The stream is ChaCha20 keyed with `SHA-256(seed material)`; forking a
/// labelled child generator is supported so subsystems can derive
/// independent streams from one master seed.
pub struct CryptoRng {
    cipher: ChaCha20,
    seed_digest: [u8; 32],
}

impl CryptoRng {
    /// Creates a generator from arbitrary seed bytes.
    pub fn from_seed(seed: &[u8]) -> Self {
        let digest = sha256(seed);
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&digest);
        let nonce = [0u8; NONCE_LEN];
        CryptoRng {
            cipher: ChaCha20::new(&key, &nonce, 0),
            seed_digest: digest,
        }
    }

    /// Creates a generator from a `u64` seed (test convenience).
    pub fn from_u64(seed: u64) -> Self {
        Self::from_seed(&seed.to_be_bytes())
    }

    /// Derives an independent child generator identified by `label`.
    pub fn fork(&self, label: &str) -> CryptoRng {
        let mut material = Vec::with_capacity(self.seed_digest.len() + label.len() + 1);
        material.extend_from_slice(&self.seed_digest);
        material.push(b'/');
        material.extend_from_slice(label.as_bytes());
        CryptoRng::from_seed(&material)
    }

    /// Fills `out` with random bytes.
    pub(crate) fn fill_bytes(&mut self, out: &mut [u8]) {
        self.cipher.keystream(out);
    }

    /// Returns a random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }

    /// Returns a random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_be_bytes(b)
    }

    /// Uniform value in `[0, bound)` via rejection sampling.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: zero bound");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Random byte vector of length `len`.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = CryptoRng::from_u64(42);
        let mut b = CryptoRng::from_u64(42);
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = CryptoRng::from_u64(1);
        let mut b = CryptoRng::from_u64(2);
        assert_ne!(a.bytes(32), b.bytes(32));
    }

    #[test]
    fn fork_streams_are_independent() {
        let root = CryptoRng::from_u64(7);
        let mut c1 = root.fork("keygen");
        let mut c2 = root.fork("nonce");
        assert_ne!(c1.bytes(32), c2.bytes(32));
        // A child's stream differs from the parent's.
        let mut parent = CryptoRng::from_u64(7);
        let mut child = CryptoRng::from_u64(7).fork("keygen");
        assert_ne!(parent.bytes(32), child.bytes(32));
    }

    #[test]
    fn fork_deterministic() {
        let mut a = CryptoRng::from_u64(7).fork("child");
        let mut b = CryptoRng::from_u64(7).fork("child");
        assert_eq!(a.bytes(64), b.bytes(64));
    }

    #[test]
    fn next_below_in_range() {
        let mut r = CryptoRng::from_u64(3);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut r = CryptoRng::from_u64(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.next_below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = CryptoRng::from_u64(11);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "zero bound")]
    fn next_below_zero_panics() {
        CryptoRng::from_u64(1).next_below(0);
    }
}
