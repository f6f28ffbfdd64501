//! Classic finite-field Diffie-Hellman key agreement.
//!
//! The transport handshake uses ephemeral DH over the well-known Oakley
//! Group 2 (RFC 2409, 1024-bit MODP) to derive session keys, with RSA
//! certificate signatures providing authentication.
//!
//! That one group gets a once-per-process context — the parsed prime, its
//! Montgomery constants and a fixed-base comb table for the generator — so
//! a handshake pays for its two exponentiations and nothing else. The
//! values are the ones the general `modpow` computes; any other [`DhGroup`]
//! uses that.

use crate::bignum::{BigUint, Montgomery};
use crate::error::CryptoError;
use crate::rng::CryptoRng;
use std::borrow::Cow;
use std::sync::OnceLock;

/// 1024-bit MODP prime from RFC 2409 (Oakley Group 2).
const OAKLEY_GROUP2_PRIME: &str = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1\
29024E088A67CC74020BBEA63B139B22514A08798E3404DD\
EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245\
E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381\
FFFFFFFFFFFFFFFF";

/// A Diffie-Hellman group (prime modulus and generator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DhGroup {
    /// Prime modulus.
    pub p: BigUint,
    /// Generator.
    pub g: BigUint,
}

/// Rows of the fixed-base comb: the exponent is read as `COMB_TEETH` rows of
/// `COMB_COLUMNS` bits, and one table entry per column covers all rows.
const COMB_TEETH: usize = 8;
const COMB_COLUMNS: usize = 128;

/// Everything about Oakley group 2 that does not depend on the handshake,
/// computed once per process: every connect uses this one group, and
/// parsing the prime and deriving the Montgomery constants per modexp cost
/// more than a resumed handshake does.
struct Oakley2 {
    group: DhGroup,
    p_minus_1: BigUint,
    /// Montgomery constants for `p`.
    mont: Montgomery,
    /// Lim–Lee comb for the fixed base `g`, in Montgomery form, flat:
    /// entry `u` (of `2^COMB_TEETH`) is the product of `g^(2^(COMB_COLUMNS·i))`
    /// over the set bits `i` of `u`; entry 0 is one. 256 × 128 B = 32 KiB.
    comb: Vec<u64>,
}

impl Oakley2 {
    fn get() -> &'static Oakley2 {
        static CONTEXT: OnceLock<Oakley2> = OnceLock::new();
        CONTEXT.get_or_init(Oakley2::build)
    }

    fn build() -> Oakley2 {
        let group = DhGroup {
            p: BigUint::from_hex(OAKLEY_GROUP2_PRIME).expect("constant prime parses"),
            g: BigUint::from_u64(2),
        };
        let mont = Montgomery::new(&group.p);
        let s = mont.limbs();
        let mut t = vec![0u64; mont.scratch_len()];
        let mut comb = vec![0u64; (1 << COMB_TEETH) * s];
        mont.to_mont(&BigUint::one(), &mut comb[..s], &mut t);
        // Row i's base is row i−1's squared COMB_COLUMNS times; an entry
        // whose highest row is i is the entry of its lower rows times that.
        let mut base = vec![0u64; s];
        mont.to_mont(&group.g, &mut base, &mut t);
        for i in 0..COMB_TEETH {
            if i > 0 {
                for _ in 0..COMB_COLUMNS {
                    mont.mont_sqr(&mut base, &mut t);
                }
            }
            let row = 1usize << i;
            for u in row..2 * row {
                let (lower, entry) = comb.split_at_mut(u * s);
                entry[..s].copy_from_slice(&lower[(u - row) * s..][..s]);
                mont.mont_mul(&mut entry[..s], &base, &mut t);
            }
        }
        Oakley2 {
            p_minus_1: group.p.sub(&BigUint::one()),
            group,
            mont,
            comb,
        }
    }

    /// `g^x mod p`: one squaring per comb column and at most one product,
    /// instead of one squaring per exponent bit.
    fn pow_g(&self, x: &BigUint) -> BigUint {
        if x.bit_len() > COMB_TEETH * COMB_COLUMNS {
            return self.mont.modpow(&self.group.g, x);
        }
        let s = self.mont.limbs();
        let mut buf = vec![0u64; s + self.mont.scratch_len()];
        let (acc, t) = buf.split_at_mut(s);
        acc.copy_from_slice(&self.comb[..s]);
        for column in (0..COMB_COLUMNS).rev() {
            self.mont.mont_sqr(acc, t);
            let u = (0..COMB_TEETH).fold(0usize, |u, row| {
                u | (x.bit(row * COMB_COLUMNS + column) as usize) << row
            });
            if u != 0 {
                self.mont.mont_mul(acc, &self.comb[u * s..][..s], t);
            }
        }
        self.mont.from_mont(acc, t)
    }
}

impl DhGroup {
    /// The standard 1024-bit Oakley Group 2 used by the transport layer.
    pub fn oakley_group2() -> Self {
        Oakley2::get().group.clone()
    }

    /// A tiny toy group (p = 23, g = 5) — fast and NOT secure, unit tests only.
    #[cfg(test)]
    fn test_group() -> Self {
        DhGroup {
            p: BigUint::from_u64(23),
            g: BigUint::from_u64(5),
        }
    }

    /// The precomputed context when this is Oakley group 2; any other group
    /// computes from its own `p` and `g`.
    fn precomputed(&self) -> Option<&'static Oakley2> {
        let context = Oakley2::get();
        (*self == context.group).then_some(context)
    }

    fn p_minus_1(&self) -> Cow<'static, BigUint> {
        match self.precomputed() {
            Some(context) => Cow::Borrowed(&context.p_minus_1),
            None => Cow::Owned(self.p.sub(&BigUint::one())),
        }
    }

    /// Samples a private exponent in `[2, p-2]`.
    pub(crate) fn sample_private(&self, rng: &mut CryptoRng) -> BigUint {
        let bits = self.p.bit_len().max(16);
        let p_minus_1 = self.p_minus_1();
        loop {
            let bytes = rng.bytes(bits.div_ceil(8));
            let x = BigUint::from_bytes_be(&bytes).rem(&self.p);
            // p − 1 has public value 1, which every peer refuses.
            if !x.is_zero() && !x.is_one() && x != *p_minus_1 {
                return x;
            }
        }
    }

    /// Computes the public value `g^x mod p`.
    pub fn public_value(&self, private: &BigUint) -> BigUint {
        match self.precomputed() {
            Some(context) => context.pow_g(private),
            None => self.g.modpow(private, &self.p),
        }
    }

    /// Computes the shared secret `peer^x mod p`, validating the peer value.
    pub(crate) fn shared_secret(
        &self,
        private: &BigUint,
        peer_public: &BigUint,
    ) -> Result<BigUint, CryptoError> {
        // Reject degenerate peer values (0, 1, p-1, >= p).
        if peer_public.is_zero() || peer_public.is_one() {
            return Err(CryptoError::InvalidDhPublic);
        }
        if peer_public.cmp_big(&self.p) != core::cmp::Ordering::Less {
            return Err(CryptoError::InvalidDhPublic);
        }
        if *peer_public == *self.p_minus_1() {
            return Err(CryptoError::InvalidDhPublic);
        }
        Ok(match self.precomputed() {
            Some(context) => context.mont.modpow(peer_public, private),
            None => peer_public.modpow(private, &self.p),
        })
    }
}

/// One side's ephemeral DH state.
pub struct DhEphemeral {
    group: DhGroup,
    private: BigUint,
    /// The public value to send to the peer.
    pub public: BigUint,
}

impl DhEphemeral {
    /// Generates a fresh ephemeral key in `group`.
    pub fn generate(group: DhGroup, rng: &mut CryptoRng) -> Self {
        let private = group.sample_private(rng);
        let public = group.public_value(&private);
        DhEphemeral {
            group,
            private,
            public,
        }
    }

    /// Completes the agreement against the peer's public value.
    pub fn agree(&self, peer_public: &BigUint) -> Result<Vec<u8>, CryptoError> {
        let secret = self.group.shared_secret(&self.private, peer_public)?;
        // Fixed-width encoding so both sides derive identical bytes.
        let len = self.group.p.bit_len().div_ceil(8);
        secret.to_bytes_be_padded(len).ok_or(CryptoError::Internal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oakley_group_parses() {
        let g = DhGroup::oakley_group2();
        assert_eq!(g.p.bit_len(), 1024);
        assert_eq!(g.g, BigUint::from_u64(2));
        assert!(!g.p.is_even());
    }

    #[test]
    fn agreement_produces_shared_secret() {
        let group = DhGroup::oakley_group2();
        let mut rng = CryptoRng::from_u64(1);
        let alice = DhEphemeral::generate(group.clone(), &mut rng);
        let bob = DhEphemeral::generate(group, &mut rng);
        let s1 = alice.agree(&bob.public).unwrap();
        let s2 = bob.agree(&alice.public).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 128);
    }

    #[test]
    fn different_sessions_different_secrets() {
        let group = DhGroup::oakley_group2();
        let mut rng = CryptoRng::from_u64(2);
        let a1 = DhEphemeral::generate(group.clone(), &mut rng);
        let b1 = DhEphemeral::generate(group.clone(), &mut rng);
        let a2 = DhEphemeral::generate(group.clone(), &mut rng);
        let b2 = DhEphemeral::generate(group, &mut rng);
        assert_ne!(a1.agree(&b1.public).unwrap(), a2.agree(&b2.public).unwrap());
    }

    #[test]
    fn degenerate_peer_values_rejected() {
        let group = DhGroup::oakley_group2();
        let mut rng = CryptoRng::from_u64(3);
        let alice = DhEphemeral::generate(group.clone(), &mut rng);
        assert!(alice.agree(&BigUint::zero()).is_err());
        assert!(alice.agree(&BigUint::one()).is_err());
        assert!(alice.agree(&group.p).is_err());
        assert!(alice.agree(&group.p.sub(&BigUint::one())).is_err());
    }

    #[test]
    fn sampled_private_stays_inside_two_to_p_minus_two() {
        // p − 1 = 22 used to be admitted: its public value is 1, which the
        // peer's `shared_secret` refuses, so the handshake failed by
        // construction. 500 draws over 21 residues would hit it.
        let group = DhGroup::test_group();
        let mut rng = CryptoRng::from_u64(6);
        for _ in 0..500 {
            let x = group.sample_private(&mut rng).to_u64().unwrap();
            assert!((2..=21).contains(&x), "sampled {x}");
        }
    }

    #[test]
    fn small_group_agreement() {
        let group = DhGroup::test_group();
        let mut rng = CryptoRng::from_u64(4);
        let alice = DhEphemeral::generate(group.clone(), &mut rng);
        let bob = DhEphemeral::generate(group, &mut rng);
        assert_eq!(
            alice.agree(&bob.public).unwrap(),
            bob.agree(&alice.public).unwrap()
        );
    }
}
