//! HMAC-SHA256 (RFC 2104) and the HKDF-style key expansion used by the
//! transport handshake.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash already fed the opad key block, so a `finalize`
    /// does not compress that block again for every tag.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Feeds message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = HmacSha256::new(key);
    h.update(data);
    h.finalize()
}

/// HKDF-Extract (RFC 5869): `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869): derives `len` bytes of keying material.
///
/// # Panics
/// Panics if `len > 255 * 32` (the RFC limit).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "hkdf_expand: output too long");
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut h = HmacSha256::new(prk);
        h.update(&t);
        h.update(info);
        h.update(&[counter]);
        t = h.finalize().to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&t[..take]);
        counter = counter.wrapping_add(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // Keys longer than the block size are first hashed; check the
        // incremental and one-shot paths agree on such a key.
        let key = vec![0xaau8; 131];
        let mut h = HmacSha256::new(&key);
        h.update(b"Test Using Larger Than Block-Size Key - Hash Key First");
        let tag = h.finalize();
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some-key";
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut h = HmacSha256::new(key);
        h.update(&data[..100]);
        h.update(&data[100..]);
        assert_eq!(h.finalize(), hmac_sha256(key, &data));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg1"), hmac_sha256(b"k1", b"msg2"));
    }

    #[test]
    fn hkdf_expand_lengths() {
        let prk = hkdf_extract(b"salt", b"input key material");
        for len in [0, 1, 31, 32, 33, 64, 100] {
            let okm = hkdf_expand(&prk, b"ctx", len);
            assert_eq!(okm.len(), len);
        }
        // Prefix property: a longer expansion starts with the shorter one.
        let a = hkdf_expand(&prk, b"ctx", 16);
        let b = hkdf_expand(&prk, b"ctx", 48);
        assert_eq!(&b[..16], &a[..]);
        // Distinct info yields distinct output.
        let c = hkdf_expand(&prk, b"other", 16);
        assert_ne!(a, c);
    }
}
