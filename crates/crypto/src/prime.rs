//! Probabilistic primality testing and random prime generation
//! (Miller–Rabin with trial division pre-filtering).

use crate::bignum::BigUint;
use crate::rng::CryptoRng;

/// Small primes used for trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199,
];

/// Number of Miller–Rabin witness rounds (error probability ≤ 4^-24).
const MR_ROUNDS: usize = 24;

/// Probabilistic primality test.
///
/// Deterministically correct for all inputs below 2^64 thanks to trial
/// division plus fixed small witnesses; probabilistic (Miller–Rabin with
/// `rng`-drawn witnesses) above.
pub fn is_probable_prime(n: &BigUint, rng: &mut CryptoRng) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let pb = BigUint::from_u64(p);
        match n.cmp_big(&pb) {
            core::cmp::Ordering::Equal => return true,
            core::cmp::Ordering::Less => return false,
            core::cmp::Ordering::Greater => {}
        }
        if n.rem(&pb).is_zero() {
            return false;
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random witnesses.
fn miller_rabin(n: &BigUint, rounds: usize, rng: &mut CryptoRng) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    let n_minus_1 = n.sub(&one);

    // Write n-1 = d * 2^r with d odd.
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr(1);
        r += 1;
    }

    'witness: for _ in 0..rounds {
        let a = random_in_range(&two, &n_minus_1, rng);
        let mut x = a.modpow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..r - 1 {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Uniform random value in `[low, high)` (both exclusive bound semantics as
/// needed by Miller–Rabin witnesses).
fn random_in_range(low: &BigUint, high: &BigUint, rng: &mut CryptoRng) -> BigUint {
    debug_assert!(low.cmp_big(high) == core::cmp::Ordering::Less);
    let span = high.sub(low);
    let byte_len = span.bit_len().div_ceil(8);
    loop {
        let mut bytes = rng.bytes(byte_len.max(1));
        // Mask the top byte so the rejection rate stays below 50%.
        let excess_bits = byte_len * 8 - span.bit_len();
        if byte_len > 0 && excess_bits > 0 {
            bytes[0] &= 0xff >> excess_bits;
        }
        let candidate = BigUint::from_bytes_be(&bytes);
        if candidate.cmp_big(&span) == core::cmp::Ordering::Less {
            return low.add(&candidate);
        }
    }
}

/// Generates a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so RSA moduli built from two such
/// primes have exactly `2 * bits` bits) and the low bit is forced to 1.
///
/// # Panics
/// Panics when `bits < 8`.
pub fn generate_prime(bits: usize, rng: &mut CryptoRng) -> BigUint {
    assert!(bits >= 8, "prime size too small");
    loop {
        let mut bytes = rng.bytes(bits.div_ceil(8));
        // Trim to exactly `bits` bits.
        let excess = bytes.len() * 8 - bits;
        bytes[0] &= 0xff >> excess;
        let mut candidate = BigUint::from_bytes_be(&bytes);
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> CryptoRng {
        CryptoRng::from_u64(0xdead_beef)
    }

    #[test]
    fn small_primes_accepted() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 127, 199] {
            assert!(is_probable_prime(&BigUint::from_u64(p), &mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 21, 25, 100, 121, 143, 187, 209] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), &mut r), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^61 - 1 is a Mersenne prime.
        let p = BigUint::from_u64((1u64 << 61) - 1);
        assert!(is_probable_prime(&p, &mut rng()));
    }

    #[test]
    fn known_large_composite() {
        // (2^61 - 1) * 3
        let p = BigUint::from_u64((1u64 << 61) - 1).mul(&BigUint::from_u64(3));
        assert!(!is_probable_prime(&p, &mut rng()));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat but not Miller-Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), &mut r), "{c}");
        }
    }

    #[test]
    fn generated_prime_has_exact_bits() {
        let mut r = rng();
        for bits in [64usize, 128, 256] {
            let p = generate_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            // Top two bits set.
            assert!(p.bit(bits - 1) && p.bit(bits - 2));
        }
    }

    #[test]
    fn generated_primes_differ() {
        let mut r = rng();
        let a = generate_prime(128, &mut r);
        let b = generate_prime(128, &mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_prime(128, &mut CryptoRng::from_u64(5));
        let b = generate_prime(128, &mut CryptoRng::from_u64(5));
        assert_eq!(a, b);
    }
}
