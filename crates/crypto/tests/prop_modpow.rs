//! The Montgomery kernel against the plain reference.
//!
//! `BigUint::modpow` on an odd modulus runs `bignum::Montgomery` — products
//! formed in place on limb slices, a dedicated squaring, a flat window
//! table. `BigUint::modpow_plain` is square-and-multiply over a full product
//! and a Knuth division per step: slow, allocation-heavy and sharing none of
//! that code. Both must give the same value for every modulus shape, base
//! and exponent.
//!
//! Oakley group 2's `public_value` goes further from the reference — a
//! fixed-base comb over a precomputed table — and is held to the general
//! `modpow` on the same group.

use proptest::prelude::*;
use unicore_crypto::bignum::{BigUint, Montgomery};
use unicore_crypto::DhGroup;

const MAX_LIMBS: usize = 40;

/// An odd modulus of exactly `limbs` limbs from `bytes`, with the top bit
/// of the top limb set (the shape `R − n` is small for) or clear.
fn modulus(bytes: &[u8], limbs: usize, top_bit: bool) -> BigUint {
    let mut bytes = bytes[..8 * limbs].to_vec();
    if top_bit {
        bytes[0] |= 0x80;
    } else {
        bytes[0] = (bytes[0] & 0x7f) | 0x01; // top limb stays non-zero
    }
    *bytes.last_mut().unwrap() |= 1;
    let m = BigUint::from_bytes_be(&bytes);
    assert_eq!(m.limb_count(), limbs);
    if m.is_one() {
        BigUint::from_u64(3)
    } else {
        m
    }
}

fn ones(bits: usize) -> BigUint {
    BigUint::one().shl(bits).sub(&BigUint::one())
}

/// The comb reads a 1024-bit exponent as 8 rows of 128 columns.
const COMB_ROWS: usize = 8;
const COMB_COLUMNS: usize = 128;

fn check_public_value(group: &DhGroup, x: &BigUint) {
    assert_eq!(
        group.public_value(x),
        group.g.modpow(x, &group.p),
        "x = {x}"
    );
}

#[test]
fn fixed_base_public_value_equals_general_modpow_on_edge_exponents() {
    let group = DhGroup::oakley_group2();
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    for x in [
        BigUint::zero(),
        one.clone(),
        two.clone(),
        group.p.sub(&two),
        group.p.sub(&one),
        ones(COMB_ROWS * COMB_COLUMNS),
        // Longer than the comb covers: the general path.
        one.shl(COMB_ROWS * COMB_COLUMNS),
        group.p.add(&two),
    ] {
        check_public_value(&group, &x);
    }
    // A single bit in every column (rows in rotation), and in the first
    // and last column of every row.
    for column in 0..COMB_COLUMNS {
        let row = column % COMB_ROWS;
        check_public_value(&group, &one.shl(row * COMB_COLUMNS + column));
    }
    for row in 0..COMB_ROWS {
        check_public_value(&group, &one.shl(row * COMB_COLUMNS));
        check_public_value(&group, &one.shl(row * COMB_COLUMNS + COMB_COLUMNS - 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fixed_base_public_value_equals_general_modpow(
        x in proptest::collection::vec(any::<u8>(), 0..=128),
    ) {
        check_public_value(&DhGroup::oakley_group2(), &BigUint::from_bytes_be(&x));
    }

    /// Bases shorter than, equal to and at or above the modulus; exponents
    /// 0, 1, a power of two, all ones and random.
    #[test]
    fn modpow_equals_plain_square_and_multiply(
        bytes in proptest::collection::vec(any::<u8>(), 8 * MAX_LIMBS),
        limbs in 1usize..=MAX_LIMBS,
        top_bit in any::<bool>(),
        base_bytes in proptest::collection::vec(any::<u8>(), 0..8 * MAX_LIMBS + 9),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..8 * MAX_LIMBS),
        k in 0usize..64 * MAX_LIMBS,
    ) {
        let m = modulus(&bytes, limbs, top_bit);
        let random = BigUint::from_bytes_be(&base_bytes);
        let bases = [
            random.rem(&m).shr(64 * (limbs / 2)), // shorter than the modulus
            random.rem(&m),
            m.sub(&BigUint::one()),
            m.clone(), // ≡ 0
            m.add(&random), // at or above, up to a limb longer
            BigUint::zero(),
        ];
        let k = k % (64 * limbs);
        let random_exp = BigUint::from_bytes_be(&exp_bytes[..exp_bytes.len().min(8 * limbs)]);
        let exps = [
            BigUint::zero(),
            BigUint::one(),
            BigUint::one().shl(k),
            ones(k + 1),
            random_exp.clone(),
        ];
        let check = |base: &BigUint, exp: &BigUint| {
            prop_assert_eq!(
                base.modpow(exp, &m),
                base.modpow_plain(exp, &m),
                "base {} exp {} mod {}", base, exp, m
            );
        };
        // Every exponent shape at full length on one base; every base shape
        // (it only matters on the way into Montgomery form) on the cheap
        // exponents — the plain reference is cubic in the modulus length.
        for exp in &exps {
            check(&bases[1], exp);
        }
        let short_exp = random_exp.shr(random_exp.bit_len().saturating_sub(100));
        for base in &bases {
            for exp in [&exps[0], &exps[1], &short_exp] {
                check(base, exp);
            }
        }
    }

    /// The dedicated squaring is the product of a value with itself, on
    /// the Montgomery-form limbs and after conversion back.
    #[test]
    fn mont_sqr_equals_mont_mul_by_self(
        bytes in proptest::collection::vec(any::<u8>(), 8 * MAX_LIMBS),
        limbs in 1usize..=MAX_LIMBS,
        top_bit in any::<bool>(),
        a_bytes in proptest::collection::vec(any::<u8>(), 0..8 * MAX_LIMBS),
    ) {
        let m = modulus(&bytes, limbs, top_bit);
        let ctx = Montgomery::new(&m);
        let mut t = vec![0u64; ctx.scratch_len()];
        let random = BigUint::from_bytes_be(&a_bytes).rem(&m);
        for a in [random, BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())] {
            let mut a_m = vec![0u64; ctx.limbs()];
            ctx.to_mont(&a, &mut a_m, &mut t);
            let mut squared = a_m.clone();
            ctx.mont_sqr(&mut squared, &mut t);
            let mut product = a_m.clone();
            ctx.mont_mul(&mut product, &a_m, &mut t);
            prop_assert_eq!(&squared, &product, "a {} mod {}", a, m);
            prop_assert_eq!(ctx.from_mont(&squared, &mut t), a.mul_mod(&a, &m));
        }
    }
}
