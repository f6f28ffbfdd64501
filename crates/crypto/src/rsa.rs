//! RSA key generation, signing and verification (PKCS#1 v1.5-style
//! deterministic padding over SHA-256).
//!
//! This is the signature scheme behind every certificate in the workspace:
//! CA signatures on user/server/software certificates and the handshake
//! signatures proving key possession.

use crate::bignum::BigUint;
use crate::error::CryptoError;
use crate::prime::generate_prime;
use crate::rng::CryptoRng;
use crate::sha256::sha256;

/// Public exponent used for all generated keys (F4).
const PUBLIC_EXPONENT: u64 = 65537;

/// DER-ish prefix identifying "SHA-256 digest" inside the padded block,
/// mirroring the PKCS#1 DigestInfo role.
const DIGEST_INFO_PREFIX: &[u8] = &[
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    pub n: BigUint,
    /// Public exponent `e`.
    pub e: BigUint,
}

/// An RSA private key (with CRT parameters for fast signing).
#[derive(Clone)]
pub struct RsaPrivateKey {
    /// The matching public key.
    pub public: RsaPublicKey,
    /// Private exponent `d`.
    d: BigUint,
    p: BigUint,
    q: BigUint,
    d_p: BigUint,
    d_q: BigUint,
    q_inv: BigUint,
}

/// An RSA key pair.
#[derive(Clone)]
pub struct RsaKeyPair {
    /// Public half.
    pub public: RsaPublicKey,
    /// Private half.
    pub private: RsaPrivateKey,
}

impl RsaKeyPair {
    /// Generates a key pair with a modulus of `modulus_bits` bits.
    ///
    /// # Panics
    /// Panics when `modulus_bits < 128` (too small even for tests).
    pub fn generate(modulus_bits: usize, rng: &mut CryptoRng) -> Self {
        assert!(modulus_bits >= 128, "RSA modulus too small");
        let half = modulus_bits / 2;
        loop {
            let p = generate_prime(half, rng);
            let q = generate_prime(modulus_bits - half, rng);
            match Self::from_primes(p, q) {
                Some(pair) if pair.public.n.bit_len() == modulus_bits => return pair,
                _ => continue,
            }
        }
    }

    /// The key pair over `n = p · q` with public exponent F4, CRT parameters
    /// included. `None` when `p == q` or 65537 has no inverse modulo
    /// `(p − 1)(q − 1)`. The primality of `p` and `q` is the caller's word:
    /// key generation draws them from [`generate_prime`]; known-answer tests
    /// write a fixed key out.
    pub fn from_primes(p: BigUint, q: BigUint) -> Option<Self> {
        if p == q {
            return None;
        }
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        let one = BigUint::one();
        let phi = p.sub(&one).mul(&q.sub(&one));
        let d = e.modinv(&phi)?;
        let d_p = d.rem(&p.sub(&one));
        let d_q = d.rem(&q.sub(&one));
        let q_inv = q.modinv(&p)?;
        let public = RsaPublicKey { n: p.mul(&q), e };
        Some(RsaKeyPair {
            public: public.clone(),
            private: RsaPrivateKey {
                public,
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
            },
        })
    }
}

impl RsaPublicKey {
    /// Modulus size in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verifies a signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        let k = self.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_big(&self.n) != core::cmp::Ordering::Less {
            return Err(CryptoError::BadSignature);
        }
        let em_int = s.modpow(&self.e, &self.n);
        let em = em_int
            .to_bytes_be_padded(k)
            .ok_or(CryptoError::BadSignature)?;
        let expected = pad_digest(message, k)?;
        if crate::ct::ct_eq(&em, &expected) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }
}

impl RsaPrivateKey {
    /// Signs `message` (SHA-256 + deterministic type-1 padding).
    pub fn sign(&self, message: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = pad_digest(message, k)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.private_op(&m);
        s.to_bytes_be_padded(k).ok_or(CryptoError::Internal)
    }

    /// Raw private-key operation with CRT acceleration.
    fn private_op(&self, m: &BigUint) -> BigUint {
        // CRT: m1 = m^dP mod p, m2 = m^dQ mod q,
        //      h = qInv (m1 - m2) mod p, result = m2 + h q.
        let m1 = m.modpow(&self.d_p, &self.p);
        let m2 = m.modpow(&self.d_q, &self.q);
        let diff = if m1.cmp_big(&m2) != core::cmp::Ordering::Less {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p with m1 < m2: add enough multiples of p.
            let (q_over_p, _) = m2.sub(&m1).divrem(&self.p);
            let bump = q_over_p.add(&BigUint::one()).mul(&self.p);
            m1.add(&bump).sub(&m2)
        };
        let h = diff.rem(&self.p).mul_mod(&self.q_inv, &self.p);
        m2.add(&h.mul(&self.q))
    }

    /// The private exponent (exposed for serialisation by `unicore-certs`).
    pub fn d(&self) -> &BigUint {
        &self.d
    }
}

/// EMSA-PKCS1-v1_5 style encoding: `0x00 0x01 FF.. 0x00 DigestInfo digest`.
fn pad_digest(message: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = sha256(message);
    let t_len = DIGEST_INFO_PREFIX.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::KeyTooSmall);
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(DIGEST_INFO_PREFIX);
    em.extend_from_slice(&digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> RsaKeyPair {
        // 512-bit keys keep the test suite fast; size is asserted elsewhere.
        RsaKeyPair::generate(512, &mut CryptoRng::from_u64(99))
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair();
        let msg = b"the unicore abstract job object";
        let sig = kp.private.sign(msg).unwrap();
        assert_eq!(sig.len(), kp.public.modulus_len());
        kp.public.verify(msg, &sig).unwrap();
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = keypair();
        let sig = kp.private.sign(b"message A").unwrap();
        assert!(kp.public.verify(b"message B", &sig).is_err());
    }

    #[test]
    fn verify_rejects_bit_flip() {
        let kp = keypair();
        let mut sig = kp.private.sign(b"payload").unwrap();
        sig[10] ^= 0x01;
        assert!(kp.public.verify(b"payload", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(100));
        let sig = kp1.private.sign(b"payload").unwrap();
        assert!(kp2.public.verify(b"payload", &sig).is_err());
    }

    #[test]
    fn verify_rejects_truncated_signature() {
        let kp = keypair();
        let sig = kp.private.sign(b"payload").unwrap();
        assert!(kp.public.verify(b"payload", &sig[..sig.len() - 1]).is_err());
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(4));
        let b = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(4));
        assert_eq!(a.public, b.public);
    }

    #[test]
    fn modulus_has_requested_size() {
        let kp = keypair();
        assert_eq!(kp.public.n.bit_len(), 512);
        assert_eq!(kp.public.modulus_len(), 64);
    }

    #[test]
    fn empty_message_signs() {
        let kp = keypair();
        let sig = kp.private.sign(b"").unwrap();
        kp.public.verify(b"", &sig).unwrap();
    }
}
