//! Known-answer tests for the digest, MAC, KDF and RSA signatures.
//!
//! Every SHA-256 and HMAC vector runs twice: through the dispatched path
//! (`sha256` / `hmac_sha256`, the SHA-NI kernel where the CPU has one) and
//! through the scalar reference called directly (`sha256_scalar`, and an
//! RFC 2104 HMAC built on it here), so a CPU with SHA extensions still
//! exercises the fallback every other machine runs.
//!
//! Sources: FIPS 180-4 / NIST example messages ("abc", the 448- and 896-bit
//! messages, one million `a`), the NIST CAVP byte-oriented short-message
//! vectors for 0 and 1 bytes, and NIST's additional SHA-256 vectors (0xbd,
//! c98c8e55, 55/56/57/64/1000 zero bytes, 1000 × 'A', 1005 × 'U', one
//! million zero bytes). CAVP's byte-oriented short messages stop at 64
//! bytes, so the padding boundaries beyond one block (65, 119, 120, 127,
//! 128) — and 63, whose CAVP message is random — use the counting message
//! `00 01 02 …`; those answers were computed with two independent
//! implementations (coreutils `sha256sum`, OpenSSL via Python `hashlib`)
//! and agree. HMAC: RFC 4231 §4.2–4.8. HKDF: RFC 5869 A.1.
//!
//! ChaCha20: RFC 8439 §2.3.2 (block function), §2.4.2 (the 114-byte
//! sunscreen message, every ciphertext byte) and A.1 #1/#2 (the all-zero
//! key's first two keystream blocks). Each runs through `apply` — one
//! shot and in uneven pieces — and through a stream built from `block()`
//! alone.
//!
//! RSA: RSASSA-PKCS1-v1_5 over SHA-256 is deterministic, so one fixed
//! 512-bit and one fixed 1024-bit key (primes written out below, e = 65537)
//! pin the signature bytes of three messages each. The primes, moduli and
//! signatures were computed outside this crate — Python integers, `pow`
//! and `hashlib` — from the RFC 8017 §9.2 encoding.

use unicore_crypto::chacha20::{self, ChaCha20};
use unicore_crypto::sha256::{sha256_scalar, BLOCK_LEN, DIGEST_LEN};
use unicore_crypto::{hkdf_expand, hkdf_extract, hmac_sha256, sha256, BigUint, RsaKeyPair, Sha256};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The counting message `00 01 02 …` of `len` bytes.
fn counting(len: usize) -> Vec<u8> {
    (0..len).map(|i| i as u8).collect()
}

/// Asserts the digest of `msg` on the dispatched one-shot path, the
/// dispatched path fed in uneven pieces, and the scalar reference.
fn check_sha256(msg: &[u8], expected: &str) {
    let len = msg.len();
    assert_eq!(hex(&sha256(msg)), expected, "dispatched, {len} bytes");
    assert_eq!(hex(&sha256_scalar(msg)), expected, "scalar, {len} bytes");
    let mut pieces = Sha256::new();
    for piece in msg.chunks(37) {
        pieces.update(piece);
    }
    assert_eq!(hex(&pieces.finalize()), expected, "pieces, {len} bytes");
}

/// HMAC (RFC 2104) over the scalar reference digest only.
fn hmac_scalar(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..DIGEST_LEN].copy_from_slice(&sha256_scalar(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner: Vec<u8> = key_block.iter().map(|b| b ^ 0x36).collect();
    inner.extend_from_slice(data);
    let mut outer: Vec<u8> = key_block.iter().map(|b| b ^ 0x5c).collect();
    outer.extend_from_slice(&sha256_scalar(&inner));
    sha256_scalar(&outer)
}

#[test]
fn sha256_fips_examples() {
    check_sha256(
        b"abc",
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
    );
    check_sha256(
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    );
    check_sha256(
        b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
          ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
    );
}

#[test]
fn sha256_nist_short_messages() {
    let vectors: [(Vec<u8>, &str); 10] = [
        (
            vec![],
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            vec![0xd3],
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1",
        ),
        (
            vec![0xbd],
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b",
        ),
        (
            vec![0xc9, 0x8c, 0x8e, 0x55],
            "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504",
        ),
        (
            vec![0; 55],
            "02779466cdec163811d078815c633f21901413081449002f24aa3e80f0b88ef7",
        ),
        (
            vec![0; 56],
            "d4817aa5497628e7c77e6b606107042bbba3130888c5f47a375e6179be789fbb",
        ),
        (
            vec![0; 57],
            "65a16cb7861335d5ace3c60718b5052e44660726da4cd13bb745381b235a1785",
        ),
        (
            vec![0; 64],
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        ),
        (
            vec![b'A'; 1000],
            "c2e686823489ced2017f6059b8b239318b6364f6dcd835d0a519105a1eadd6e4",
        ),
        (
            vec![b'U'; 1005],
            "f4d62ddec0f3dd90ea1380fa16a5ff8dc4c54b21740650f24afc4120903552b0",
        ),
    ];
    for (msg, expected) in &vectors {
        check_sha256(msg, expected);
    }
}

#[test]
fn sha256_padding_boundaries() {
    // One and two blocks: the length word fits (≤ 55, ≤ 119), just does
    // not (56, 120), and the block is full or one byte either side.
    let vectors = [
        (
            0,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            1,
            "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
        ),
        (
            55,
            "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
        ),
        (
            56,
            "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
        ),
        (
            57,
            "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f",
        ),
        (
            63,
            "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
        ),
        (
            64,
            "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
        ),
        (
            65,
            "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781",
        ),
        (
            119,
            "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
        ),
        (
            120,
            "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
        ),
        (
            127,
            "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976",
        ),
        (
            128,
            "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5",
        ),
    ];
    for (len, expected) in vectors {
        check_sha256(&counting(len), expected);
    }
}

#[test]
fn sha256_million_byte_messages() {
    check_sha256(
        &vec![b'a'; 1_000_000],
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
    );
    check_sha256(
        &vec![0; 1_000_000],
        "d29751f2649b32ff572b5e0a9f541ea660a50f94ff0beedfb0b692b924cc8025",
    );
}

#[test]
fn hmac_rfc4231_all_cases() {
    let long_key = [0xaa; 131];
    let key_4: Vec<u8> = (1..=25).collect();
    // (key, data, tag or — case 5 — its leading 128 bits)
    let cases: [(&[u8], &[u8], &str); 7] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &key_4,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        ),
        (
            &[0x0c; 20],
            b"Test With Truncation",
            "a3b6167473100ee06e0c796c2955552b",
        ),
        (
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &long_key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    for (n, (key, data, expected)) in cases.iter().enumerate() {
        let case = n + 1;
        let dispatched = hex(&hmac_sha256(key, data));
        let scalar = hex(&hmac_scalar(key, data));
        assert_eq!(&dispatched[..expected.len()], *expected, "case {case}");
        assert_eq!(scalar, dispatched, "case {case}: scalar reference");
    }
}

#[test]
fn hkdf_rfc5869_case_1() {
    let ikm = [0x0b; 22];
    let salt: Vec<u8> = (0x00..=0x0c).collect();
    let info: Vec<u8> = (0xf0..=0xf9).collect();
    let prk = hkdf_extract(&salt, &ikm);
    assert_eq!(
        hex(&prk),
        "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    );
    assert_eq!(
        hex(&hkdf_expand(&prk, &info, 42)),
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
         34007208d5b887185865"
    );
}

/// Asserts the ciphertext of `plaintext` from block `counter` on: `apply`
/// in one shot, `apply` in uneven pieces, and `block()` alone.
fn check_chacha20(
    key: &[u8; chacha20::KEY_LEN],
    nonce: &[u8; chacha20::NONCE_LEN],
    counter: u32,
    plaintext: &[u8],
    expected: &str,
) {
    let len = plaintext.len();
    let one_shot = ChaCha20::new(key, nonce, counter).apply_copy(plaintext);
    assert_eq!(hex(&one_shot), expected, "one shot, {len} bytes");

    let mut cipher = ChaCha20::new(key, nonce, counter);
    let mut pieces = plaintext.to_vec();
    for piece in pieces.chunks_mut(37) {
        cipher.apply(piece);
    }
    assert_eq!(hex(&pieces), expected, "pieces, {len} bytes");

    let cipher = ChaCha20::new(key, nonce, counter);
    let mut by_block = Vec::with_capacity(len);
    for (i, chunk) in plaintext.chunks(chacha20::BLOCK_LEN).enumerate() {
        let keystream = cipher.block(counter.wrapping_add(i as u32));
        by_block.extend(chunk.iter().zip(keystream).map(|(byte, k)| byte ^ k));
    }
    assert_eq!(hex(&by_block), expected, "block(), {len} bytes");
}

#[test]
fn chacha20_rfc8439_block_function() {
    let key: [u8; 32] = counting(32).try_into().unwrap();
    let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    check_chacha20(
        &key,
        &nonce,
        1,
        &[0; 64],
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
         d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
    );
}

#[test]
fn chacha20_rfc8439_sunscreen_every_byte() {
    let key: [u8; 32] = counting(32).try_into().unwrap();
    let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
    check_chacha20(
        &key,
        &nonce,
        1,
        b"Ladies and Gentlemen of the class of '99: If I could offer you \
          only one tip for the future, sunscreen would be it.",
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
         f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
         07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
         5af90bbf74a35be6b40b8eedf2785e42874d",
    );
}

#[test]
fn chacha20_rfc8439_zero_key_keystream() {
    // A.1 test vectors #1 and #2: blocks 0 and 1, back to back.
    check_chacha20(
        &[0; 32],
        &[0; 12],
        0,
        &[0; 128],
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
         da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586\
         9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
         29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f",
    );
}

const RSA_MESSAGES: [&[u8]; 3] = [
    b"",
    b"abc",
    b"The UNICORE Architecture: Seamless Access to Distributed Resources",
];

/// Builds the key from its primes, checks the modulus, and checks each
/// message's signature byte for byte, that it verifies, and that neither a
/// flipped signature bit nor another message does.
fn check_rsa(p: &str, q: &str, n: &str, signatures: [&str; 3]) {
    let from_hex = |h: &str| BigUint::from_hex(h).unwrap();
    let key = RsaKeyPair::from_primes(from_hex(p), from_hex(q)).unwrap();
    assert_eq!(key.public.n.to_hex(), n);
    assert_eq!(key.public.e, BigUint::from_u64(65537));
    for (msg, expected) in RSA_MESSAGES.iter().zip(signatures) {
        let signature = key.private.sign(msg).unwrap();
        assert_eq!(hex(&signature), expected, "message {msg:?}");
        key.public.verify(msg, &signature).unwrap();
        let mut flipped = signature.clone();
        flipped[signature.len() / 2] ^= 0x04;
        assert!(key.public.verify(msg, &flipped).is_err());
        assert!(key.public.verify(b"another message", &signature).is_err());
    }
}

#[test]
fn rsa_pkcs1_v15_sha256_512_bit_key() {
    check_rsa(
        "e8deb2858dd3a756ce8e19d74dd389af61d49e6f0f79659c57b8406d43175a81",
        "e37fbc980ceee7b5011e66817391910bcafe45ab58ff6deaa5f920e3d10a6773",
        "cef1aa54d81bdf0376269cb28fe10ca37b11d9a1295e494f41478b395571b7c1\
         b84430eeb918bbe0448d03a125b613e8e8e9c8211177258dd739f74362f18ef3",
        [
            "3603ba967a13e8fd47ae9c6b51a798620f11feca59dbbe0161982f52c5d90756\
             c2623c1761b5ec7910952052f1a19534fb450f96178bc5d8483702419d896bf8",
            "1bb6c5cb69f47de34d3b200a887633573421889b7d55bfcd49c4e73610dec3be\
             55fa9394e947bb1acfa7c09637b073296fec561212be5d59c0600abe3b3f3534",
            "583ce957418e1fb425f34634e755f3c29767a9e955cddee8100314f75f357394\
             f166e9b4b583cb751ef330bcdbb51c0188d04b41e13ef27845f27f4d5fe9bdb1",
        ],
    );
}

#[test]
fn rsa_pkcs1_v15_sha256_1024_bit_key() {
    check_rsa(
        "e66a836fd6ccfdee47154dc7945231fd1477923650e2095120d7d703335f17e3\
         8aed4b8e1c5243a48248c6f935e000ddc2ef7701bb83944c3fa1698eedd1bc6d",
        "d512add449d1319e0171b5d37e2ea630fbe100231b79c270f64cd64465902910\
         a83dbd3306a9e7fc9ea3c3982c639f770e691eb9a65a71c7f909b2026dba799f",
        "bfc76f4e590dbf90520324a9f910f90fa29de9701f029a14836e4cc1e7ac208b\
         6a468aa2315be7aaf45f7c58061681a762271153af59796061adbb661f97c376\
         5a841bc294eb56c24a373da39dc06f359fdf1cf799132849c6c3f0f89b873bc4\
         f51a1c042d25993e714e2c3f21daf57ffaac1a66b2d64181b2bc78a527858cb3",
        [
            "7a4d15e296193eed9c09be8cddb3428d7e6b6606804beb936d5ed3e8bcfdd573\
             226432838191ccc20716218bad34b0e0fbea5318f040b3ae2b92e9123217725d\
             7cd0591efe237937801326ddfb57bbaae16082c11a0c3a89efa6ea75039eb625\
             ee0360a01dfed729629d4f377f40f8f2f7ae01061d1b6c66bd8cc891272b60ed",
            "3e51b95b3db6054c39896a1299e09fbd9f9f8a917376f8378e90ffe42a4425bd\
             24088d6c970f82273ca52fe67fd12de609cd4a43c780a032290ceed1fafccab1\
             4a351b462d6a46f99a1e0a343305ccb93025edfcbee959598ca0e7a210c24f5c\
             8b9763ca93a3729feb0094fe287f378eb83e74f601de682fbc6c4c080d7dac59",
            "08a277dbdc69092ca247b6f2bc7da15dcb5ad66191f671d7c6a37cbb55ede3c5\
             ded20e2d523dee7ed538599a738c8318e739d021d37a9b87fda484b90613b0cf\
             10557deda98727fcfceb20f26b796356e997e35674b4c95df7ca74bb40a74ef2\
             4b5d8c9f08d4d1df9dc8375be74999a3fb2b5fa6aa8a5f3d6b35215bc382255b",
        ],
    );
}
