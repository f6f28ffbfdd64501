//! Arbitrary-precision unsigned integer arithmetic.
//!
//! `BigUint` stores magnitude as little-endian `u64` limbs with no trailing
//! zero limbs (the canonical form; zero is the empty limb vector). The
//! operations provided are exactly those required by the RSA / Diffie-Hellman
//! implementations in this crate: schoolbook and Karatsuba multiplication,
//! Knuth Algorithm D division, Montgomery modular exponentiation for odd
//! moduli ([`Montgomery`]: in place on limb slices, one allocation per
//! exponentiation), and the extended Euclidean algorithm for modular
//! inverses.

use core::cmp::Ordering;
use core::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Little-endian limb order; the invariant `limbs.last() != Some(&0)` holds
/// after every public operation.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds from big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serialises to big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most-significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip.min(7)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serialises to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<u8> = s.bytes().collect();
        let mut i = 0;
        // Handle an odd leading nibble.
        if chars.len() % 2 == 1 {
            bytes.push(hex_val(chars[0])?);
            i = 1;
        }
        while i < chars.len() {
            let hi = hex_val(chars[i])?;
            let lo = hex_val(chars[i + 1])?;
            bytes.push((hi << 4) | lo);
            i += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Lower-case hexadecimal rendering with no leading zeros ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// True for the canonical zero value.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True when the low bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// True when the value equals one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (false beyond the top bit).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let off = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// Sets bit `i`, growing as needed.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        let limb = i / 64;
        let off = i % 64;
        if limb >= self.limbs.len() {
            if !value {
                return;
            }
            self.limbs.resize(limb + 1, 0);
        }
        if value {
            self.limbs[limb] |= 1 << off;
        } else {
            self.limbs[limb] &= !(1 << off);
        }
        self.normalize();
    }

    /// Number of limbs in canonical form.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// The value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Sum of `self` and `other`.
    #[allow(clippy::needless_range_loop)] // index drives two slices at once
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.len() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Difference `self - other`.
    ///
    /// # Panics
    /// Panics if `other > self`; the callers in this crate always guarantee
    /// the ordering.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(
            self.cmp_big(other) != Ordering::Less,
            "BigUint::sub underflow"
        );
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Checked subtraction: `None` when `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_big(other) == Ordering::Less {
            None
        } else {
            Some(self.sub(other))
        }
    }

    /// Total-order comparison.
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Product of `self` and `other`.
    ///
    /// Uses schoolbook multiplication for small operands and Karatsuba
    /// above an empirically chosen limb threshold.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let n = self.limbs.len().min(other.limbs.len());
        if n < KARATSUBA_THRESHOLD {
            self.mul_schoolbook(other)
        } else {
            self.mul_karatsuba(other)
        }
    }

    fn mul_schoolbook(&self, other: &BigUint) -> BigUint {
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    fn mul_karatsuba(&self, other: &BigUint) -> BigUint {
        let split = self.limbs.len().max(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(split);
        let (b0, b1) = other.split_at(split);
        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
        z2.shl_limbs(2 * split).add(&z1.shl_limbs(split)).add(&z0)
    }

    fn split_at(&self, at: usize) -> (BigUint, BigUint) {
        if at >= self.limbs.len() {
            return (self.clone(), BigUint::zero());
        }
        let mut lo = BigUint {
            limbs: self.limbs[..at].to_vec(),
        };
        lo.normalize();
        let hi = BigUint {
            limbs: self.limbs[at..].to_vec(),
        };
        (lo, hi)
    }

    fn shl_limbs(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut limbs = vec![0u64; n];
        limbs.extend_from_slice(&self.limbs);
        BigUint { limbs }
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                limbs.push(carry);
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                limbs.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Quotient and remainder (Knuth Algorithm D).
    ///
    /// # Panics
    /// Panics when `divisor` is zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }

        // Normalise so the top limb of the divisor has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // extra high limb for the algorithm
        let vn = &v.limbs;
        let mut q_limbs = vec![0u64; m + 1];

        let v_hi = vn[n - 1] as u128;
        let v_next = vn[n - 2] as u128;

        for j in (0..=m).rev() {
            // Estimate q_hat = (un[j+n], un[j+n-1]) / v_hi.
            let num = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut q_hat = num / v_hi;
            let mut r_hat = num % v_hi;
            while q_hat >> 64 != 0 || q_hat * v_next > ((r_hat << 64) | un[j + n - 2] as u128) {
                q_hat -= 1;
                r_hat += v_hi;
                if r_hat >> 64 != 0 {
                    break;
                }
            }

            // Multiply-and-subtract: un[j..j+n+1] -= q_hat * vn.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 - borrow;
                un[i + j] = t as u64;
                borrow = if t < 0 { 1 } else { 0 };
            }
            let t = un[j + n] as i128 - carry as i128 - borrow;
            un[j + n] = t as u64;

            if t < 0 {
                // q_hat was one too large: add the divisor back.
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = q_hat as u64;
        }

        let mut q = BigUint { limbs: q_limbs };
        q.normalize();
        un.truncate(n);
        let mut r = BigUint { limbs: un };
        r.normalize();
        (q, r.shr(shift))
    }

    /// Division by a single limb.
    pub fn divrem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            out[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        let mut q = BigUint { limbs: out };
        q.normalize();
        (q, rem as u64)
    }

    /// Remainder modulo `m`.
    pub fn rem(&self, m: &BigUint) -> BigUint {
        self.divrem(m).1
    }

    /// Modular multiplication via full product + reduction.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Uses Montgomery exponentiation ([`Montgomery::modpow`]) for odd
    /// moduli and [`modpow_plain`](Self::modpow_plain) otherwise.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow: zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.modpow_plain(exp, modulus);
        }
        Montgomery::new(modulus).modpow(self, exp)
    }

    /// Modular exponentiation by plain right-to-left square-and-multiply
    /// over [`mul_mod`](Self::mul_mod) (full product, then division).
    ///
    /// The path for even moduli (rare in this codebase), and the reference
    /// the tests hold the Montgomery kernel to.
    pub fn modpow_plain(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow: zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut base = self.rem(modulus);
        let mut result = BigUint::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            base = base.mul_mod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid via divrem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m` (extended Euclid).
    ///
    /// Returns `None` when `gcd(self, m) != 1`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Signed bookkeeping via (value, negative?) pairs.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(m);
        if neg && !mag.is_zero() {
            Some(m.sub(&mag))
        } else {
            Some(mag)
        }
    }
}

/// Limb-count threshold below which schoolbook multiplication wins.
const KARATSUBA_THRESHOLD: usize = 24;

fn hex_val(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

/// Subtraction on sign-magnitude pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative.
        (false, false) => match a.0.cmp_big(&b.0) {
            Ordering::Less => (b.0.sub(&a.0), true),
            _ => (a.0.sub(&b.0), false),
        },
        // (-a) - (-b) = b - a.
        (true, true) => match b.0.cmp_big(&a.0) {
            Ordering::Less => (a.0.sub(&b.0), true),
            _ => (b.0.sub(&a.0), false),
        },
        // a - (-b) = a + b.
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b).
        (true, false) => (a.0.add(&b.0), true),
    }
}

/// Montgomery arithmetic for one fixed odd modulus `n` of `s` limbs, with
/// `R = 2^(64·s)`.
///
/// Values in Montgomery form are plain `s`-limb little-endian slices, always
/// fully reduced (`< n`). Every operation works in place on caller-provided
/// slices and a `2·s`-limb scratch buffer, so an exponentiation allocates
/// once, not once per product. Portable `u128` arithmetic only.
///
/// A product is formed in full in the scratch buffer and then reduced
/// (separated operand scanning), which lets multiplication and the cheaper
/// dedicated squaring share one reduction and lets the result overwrite an
/// operand.
pub struct Montgomery {
    modulus: BigUint,
    /// `-n⁻¹ mod 2^64`.
    n_prime: u64,
    /// `R² mod n`, `s` limbs.
    r2: Vec<u64>,
}

impl Montgomery {
    /// Builds the context: the inverse of the low limb and `R² mod n` (one
    /// `2s`-by-`s`-limb division — worth keeping the context for a modulus
    /// that is used more than once).
    ///
    /// # Panics
    /// Panics when `modulus` is even (which includes zero) or one.
    pub fn new(modulus: &BigUint) -> Self {
        assert!(
            !modulus.is_even() && !modulus.is_one(),
            "Montgomery: modulus must be odd and above one"
        );
        let n0 = modulus.limbs[0];
        // Newton iteration for the inverse of n0 mod 2^64.
        let mut inv = n0; // correct mod 2^3
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let s = modulus.limbs.len();
        let mut r2 = BigUint::one().shl(2 * 64 * s).rem(modulus).limbs;
        r2.resize(s, 0);
        Montgomery {
            modulus: modulus.clone(),
            n_prime: inv.wrapping_neg(),
            r2,
        }
    }

    /// `s`: the limb count of the modulus and of every Montgomery-form value.
    pub fn limbs(&self) -> usize {
        self.modulus.limbs.len()
    }

    /// Limbs of scratch every operation needs (`2·s`, a full product).
    pub fn scratch_len(&self) -> usize {
        2 * self.limbs()
    }

    /// `a ← a · b · R⁻¹ mod n`. `a`, `b` are `s` limbs and `< n`; `t` is
    /// scratch of at least [`scratch_len`](Self::scratch_len) limbs.
    pub fn mont_mul(&self, a: &mut [u64], b: &[u64], t: &mut [u64]) {
        let s = self.limbs();
        let t = &mut t[..2 * s];
        mul_wide(t, &a[..s], &b[..s]);
        self.reduce(t, a);
    }

    /// `a ← a² · R⁻¹ mod n` — [`mont_mul`](Self::mont_mul)`(a, a)` with each
    /// cross product `aᵢ·aⱼ` computed once and doubled.
    pub fn mont_sqr(&self, a: &mut [u64], t: &mut [u64]) {
        let s = self.limbs();
        let t = &mut t[..2 * s];
        sqr_wide(t, &a[..s]);
        self.reduce(t, a);
    }

    /// Writes `a · R mod n` (the Montgomery form of `a`) to `out`.
    ///
    /// # Panics
    /// Panics when `a` is not below the modulus.
    pub fn to_mont(&self, a: &BigUint, out: &mut [u64], t: &mut [u64]) {
        assert!(
            a.cmp_big(&self.modulus) == Ordering::Less,
            "to_mont: value not reduced"
        );
        let out = &mut out[..self.limbs()];
        out[..a.limbs.len()].copy_from_slice(&a.limbs);
        out[a.limbs.len()..].fill(0);
        self.mont_mul(out, &self.r2, t);
    }

    /// Converts `a` out of Montgomery form (`a · R⁻¹ mod n`): a reduction
    /// with no product in front of it.
    #[allow(clippy::wrong_self_convention)] // converts *out of* Montgomery form
    pub fn from_mont(&self, a: &[u64], t: &mut [u64]) -> BigUint {
        let s = self.limbs();
        let t = &mut t[..2 * s];
        t[..s].copy_from_slice(&a[..s]);
        t[s..].fill(0);
        let mut out = BigUint {
            limbs: vec![0u64; s],
        };
        self.reduce(t, &mut out.limbs);
        out.normalize();
        out
    }

    /// Montgomery reduction: `out ← t · R⁻¹ mod n` for the `2s`-limb value
    /// `t < n · R` (which every product of two reduced values is), the
    /// final conditional subtraction included. Clobbers `t`.
    fn reduce(&self, t: &mut [u64], out: &mut [u64]) {
        let n = &self.modulus.limbs[..];
        let s = n.len();
        let out = &mut out[..s];
        // Carry out of limb `i + s` of the previous round.
        let mut top = 0u64;
        for i in 0..s {
            // m makes limb i of t + m·n zero; the sum's limbs above i stay.
            let m = t[i].wrapping_mul(self.n_prime);
            let carry = mul_add_row(&mut t[i..i + s], n, m);
            let cur = t[i + s] as u128 + carry as u128 + top as u128;
            t[i + s] = cur as u64;
            top = (cur >> 64) as u64;
        }
        // The value is top·R + t[s..] < 2n: subtract n at most once.
        let hi = &t[s..];
        let below_n = top == 0
            && hi
                .iter()
                .rev()
                .zip(n.iter().rev())
                .find_map(|(h, m)| (h != m).then_some(h < m))
                .unwrap_or(false);
        if below_n {
            out.copy_from_slice(hi);
        } else {
            let mut borrow = false;
            for ((o, &h), &m) in out.iter_mut().zip(hi).zip(n) {
                let (d1, b1) = h.overflowing_sub(m);
                let (d2, b2) = d1.overflowing_sub(borrow as u64);
                *o = d2;
                borrow = b1 | b2;
            }
            debug_assert_eq!(borrow, top != 0);
        }
    }

    /// `base^exp mod n`: 4-bit fixed-window exponentiation in Montgomery
    /// form. One allocation holds the scratch, the accumulator and the
    /// flat 16-entry window table.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let s = self.limbs();
        let mut buf = vec![0u64; (2 + 1 + 16) * s];
        let (t, rest) = buf.split_at_mut(2 * s);
        let (acc, table) = rest.split_at_mut(s);

        // table[k] = base^k in Montgomery form.
        {
            let (one, base_m) = table.split_at_mut(s);
            self.to_mont(&BigUint::one(), one, t);
            if base.cmp_big(&self.modulus) == Ordering::Less {
                self.to_mont(base, base_m, t);
            } else {
                self.to_mont(&base.rem(&self.modulus), base_m, t);
            }
        }
        for k in 2..16 {
            let (lower, entry) = table.split_at_mut(k * s);
            let entry = &mut entry[..s];
            entry.copy_from_slice(&lower[(k - 1) * s..]);
            self.mont_mul(entry, &lower[s..2 * s], t);
        }

        // A window never straddles a limb: 4 divides 64.
        let window = |w: usize| ((exp.limbs[w / 16] >> (4 * (w % 16))) & 0xf) as usize;
        let top = exp.bit_len().div_ceil(4) - 1;
        let idx = window(top); // holds the top bit, so never zero
        acc.copy_from_slice(&table[idx * s..(idx + 1) * s]);
        for w in (0..top).rev() {
            for _ in 0..4 {
                self.mont_sqr(acc, t);
            }
            let idx = window(w);
            if idx != 0 {
                self.mont_mul(acc, &table[idx * s..(idx + 1) * s], t);
            }
        }
        self.from_mont(acc, t)
    }
}

/// `t[..b.len()] += m · b`; returns the carry out of the top limb. The one
/// inner loop of every product and reduction here.
#[inline]
fn mul_add_row(t: &mut [u64], b: &[u64], m: u64) -> u64 {
    let mut carry = 0u64;
    for (tj, &bj) in t.iter_mut().zip(b) {
        // Cannot overflow: (2^64−1) + (2^64−1)² + (2^64−1) = 2^128 − 1.
        let cur = *tj as u128 + m as u128 * bj as u128 + carry as u128;
        *tj = cur as u64;
        carry = (cur >> 64) as u64;
    }
    carry
}

/// `t ← a · b` in full: `t` is `2·s` limbs, `a` and `b` are `s`.
fn mul_wide(t: &mut [u64], a: &[u64], b: &[u64]) {
    let s = b.len();
    t[..s].fill(0);
    // Row i adds into limbs the rows before it wrote; limb i + s is new.
    for (i, &ai) in a.iter().enumerate() {
        t[i + s] = mul_add_row(&mut t[i..i + s], b, ai);
    }
}

/// `t ← a²` in full: the `s·(s−1)/2` cross products once, then one pass
/// that doubles them and adds the `s` squares on the diagonal.
fn sqr_wide(t: &mut [u64], a: &[u64]) {
    let s = a.len();
    t[..s].fill(0);
    for (i, &ai) in a.iter().enumerate() {
        t[i + s] = mul_add_row(&mut t[2 * i + 1..i + s], &a[i + 1..], ai);
    }
    let mut shifted_out = 0u64;
    let mut carry = 0u64;
    for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
        let sq = ai as u128 * ai as u128;
        let lo = (pair[0] << 1) | shifted_out;
        let hi = (pair[1] << 1) | (pair[0] >> 63);
        shifted_out = pair[1] >> 63;
        let cur = lo as u128 + (sq as u64) as u128 + carry as u128;
        pair[0] = cur as u64;
        let cur = hi as u128 + (sq >> 64) + (cur >> 64);
        pair[1] = cur as u64;
        carry = (cur >> 64) as u64;
    }
    debug_assert_eq!((shifted_out, carry), (0, 0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(hex: &str) -> BigUint {
        BigUint::from_hex(hex).unwrap()
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn hex_round_trip() {
        for h in ["1", "ff", "deadbeef", "123456789abcdef0123456789abcdef"] {
            assert_eq!(n(h).to_hex(), h);
        }
        assert_eq!(BigUint::zero().to_hex(), "0");
        // Leading zeros are dropped.
        assert_eq!(n("000ff").to_hex(), "ff");
    }

    #[test]
    fn bytes_round_trip() {
        let v = n("0102030405060708090a0b0c0d0e0f10");
        assert_eq!(
            v.to_bytes_be(),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
        );
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), BigUint::from_u64(5));
    }

    #[test]
    fn padded_bytes() {
        let v = BigUint::from_u64(0x0102);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 1, 2]);
        assert!(v.to_bytes_be_padded(1).is_none());
        assert_eq!(BigUint::zero().to_bytes_be_padded(2).unwrap(), vec![0, 0]);
    }

    #[test]
    fn add_sub_inverse() {
        let a = n("ffffffffffffffffffffffffffffffff");
        let b = n("1");
        let s = a.add(&b);
        assert_eq!(s.to_hex(), "100000000000000000000000000000000");
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn checked_sub_none_on_underflow() {
        assert!(BigUint::one().checked_sub(&BigUint::from_u64(2)).is_none());
        assert_eq!(
            BigUint::from_u64(5)
                .checked_sub(&BigUint::from_u64(2))
                .unwrap(),
            BigUint::from_u64(3)
        );
    }

    #[test]
    fn mul_small() {
        assert_eq!(
            BigUint::from_u64(0xffff_ffff).mul(&BigUint::from_u64(0xffff_ffff)),
            BigUint::from_u64(0xffff_fffe_0000_0001)
        );
        assert_eq!(BigUint::zero().mul(&BigUint::from_u64(7)), BigUint::zero());
    }

    #[test]
    fn mul_cross_limb() {
        let a = n("ffffffffffffffff"); // 2^64 - 1
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Values big enough to trigger the Karatsuba path.
        let a = BigUint {
            limbs: (1..60u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
                .collect(),
        };
        let b = BigUint {
            limbs: (1..55u64)
                .map(|i| i.wrapping_mul(0xbf58476d1ce4e5b9))
                .collect(),
        };
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn shifts() {
        let a = n("1");
        assert_eq!(a.shl(130).to_hex(), "400000000000000000000000000000000");
        assert_eq!(a.shl(130).shr(130), a);
        assert_eq!(a.shr(1), BigUint::zero());
        let b = n("deadbeefcafebabe1234");
        assert_eq!(b.shl(67).shr(67), b);
    }

    #[test]
    fn divrem_simple() {
        let (q, r) = BigUint::from_u64(100).divrem(&BigUint::from_u64(7));
        assert_eq!(q, BigUint::from_u64(14));
        assert_eq!(r, BigUint::from_u64(2));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = n("123456789abcdef0123456789abcdef0123456789abcdef");
        let b = n("fedcba9876543210f");
        let (q, r) = a.divrem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_big(&b) == Ordering::Less);
    }

    #[test]
    fn divrem_divisor_larger() {
        let a = n("5");
        let b = n("123456789abcdef01");
        let (q, r) = a.divrem(&b);
        assert!(q.is_zero());
        assert_eq!(r, a);
    }

    #[test]
    fn divrem_equal_operands() {
        let a = n("123456789abcdef0123456789");
        let (q, r) = a.divrem(&a);
        assert!(q.is_one());
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        BigUint::one().divrem(&BigUint::zero());
    }

    #[test]
    fn modpow_small_values() {
        // 3^4 mod 5 = 81 mod 5 = 1
        let r = BigUint::from_u64(3).modpow(&BigUint::from_u64(4), &BigUint::from_u64(5));
        assert_eq!(r, BigUint::from_u64(1));
        // 2^10 mod 1000 = 24
        let r = BigUint::from_u64(2).modpow(&BigUint::from_u64(10), &BigUint::from_u64(1000));
        assert_eq!(r, BigUint::from_u64(24));
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 mod p for prime p.
        let p = BigUint::from_u64(1_000_000_007);
        let a = BigUint::from_u64(123_456_789);
        let r = a.modpow(&p.sub(&BigUint::one()), &p);
        assert!(r.is_one());
    }

    #[test]
    fn modpow_large_odd_modulus() {
        // Check Montgomery path against the generic path on an odd modulus.
        let m = n("f0000000000000000000000000000001d"); // odd
        let base = n("abcdef0123456789abcdef");
        let e = n("10001");
        let mont = base.modpow(&e, &m);
        // Generic reference: repeated square-and-multiply via mul_mod.
        let mut acc = BigUint::one();
        let mut b = base.rem(&m);
        for i in 0..e.bit_len() {
            if e.bit(i) {
                acc = acc.mul_mod(&b, &m);
            }
            b = b.mul_mod(&b, &m);
        }
        assert_eq!(mont, acc);
    }

    #[test]
    fn modpow_exponent_zero_and_one() {
        let m = n("10001");
        let b = n("1234");
        assert!(b.modpow(&BigUint::zero(), &m).is_one());
        assert_eq!(b.modpow(&BigUint::one(), &m), b.rem(&m));
    }

    #[test]
    fn modpow_modulus_one() {
        assert!(BigUint::from_u64(7)
            .modpow(&BigUint::from_u64(3), &BigUint::one())
            .is_zero());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigUint::from_u64(48).gcd(&BigUint::from_u64(18)),
            BigUint::from_u64(6)
        );
        assert_eq!(
            BigUint::from_u64(17).gcd(&BigUint::from_u64(13)),
            BigUint::one()
        );
        assert_eq!(
            BigUint::zero().gcd(&BigUint::from_u64(5)),
            BigUint::from_u64(5)
        );
    }

    #[test]
    fn modinv_small() {
        // 3 * 7 = 21 = 1 mod 10
        let inv = BigUint::from_u64(3).modinv(&BigUint::from_u64(10)).unwrap();
        assert_eq!(inv, BigUint::from_u64(7));
        // gcd(4, 10) = 2: no inverse.
        assert!(BigUint::from_u64(4)
            .modinv(&BigUint::from_u64(10))
            .is_none());
    }

    #[test]
    fn modinv_large() {
        let m = n("fffffffffffffffffffffffffffffffeffffffffffffffff"); // odd, large
        let a = n("deadbeefcafebabe123456789");
        if let Some(inv) = a.modinv(&m) {
            assert!(a.mul_mod(&inv, &m).is_one());
        } else {
            panic!("expected an inverse");
        }
    }

    #[test]
    fn bit_access() {
        let mut v = BigUint::zero();
        v.set_bit(100, true);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bit_len(), 101);
        v.set_bit(100, false);
        assert!(v.is_zero());
    }

    #[test]
    fn display_formats() {
        let v = n("ff");
        assert_eq!(format!("{v}"), "0xff");
        assert_eq!(format!("{v:?}"), "BigUint(0xff)");
    }
}
