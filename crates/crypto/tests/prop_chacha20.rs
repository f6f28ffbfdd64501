//! Pins for the ChaCha20 keystream and everything drawn from it, each also
//! held to a reference built from the scalar `block()` alone, and a
//! differential test: the dispatched `apply` (the AVX2 kernel on CPUs that
//! have one) against that reference on arbitrary input.
//!
//! The golden digests below were produced by the one-block-at-a-time
//! scalar `apply` this crate started with. A change under `apply` that
//! claims "same keystream" leaves them green unedited.
//!
//! On a CPU without AVX2 both sides are the scalar code; the tests still
//! run — they then check `apply`'s buffering alone — and say so once on
//! stderr.

use proptest::prelude::*;
use unicore_crypto::chacha20::{kernel_name, ChaCha20, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use unicore_crypto::{sha256, CryptoRng};

fn note_kernel() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| match kernel_name() {
        "scalar" => {
            eprintln!("prop_chacha20: no AVX2 on this CPU — both sides run the scalar code")
        }
        kernel => {
            eprintln!("prop_chacha20: comparing the {kernel} kernel with the block() reference")
        }
    });
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The counting pattern `00 01 02 …` of `len` bytes.
fn counting(len: usize) -> Vec<u8> {
    (0..len).map(|i| i as u8).collect()
}

/// `data` XOR the keystream from block `counter` on, one `block()` call
/// per 64 bytes: the reference every pin is also compared with.
fn reference(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
    let cipher = ChaCha20::new(key, nonce, counter);
    let mut out = Vec::with_capacity(data.len());
    for (i, chunk) in data.chunks(BLOCK_LEN).enumerate() {
        let keystream = cipher.block(counter.wrapping_add(i as u32));
        out.extend(chunk.iter().zip(keystream).map(|(byte, k)| byte ^ k));
    }
    out
}

/// Key `00 01 … 1f`, as in the RFC 7539 examples.
fn pin_key() -> [u8; KEY_LEN] {
    counting(KEY_LEN).try_into().expect("32 bytes")
}

/// The RFC 7539 §2.4.2 nonce.
const PIN_NONCE: [u8; NONCE_LEN] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];

/// Start counters of the keystream pins: the last leaves four blocks
/// before the 32-bit wrap, so every length from 257 bytes up crosses it.
const PIN_COUNTERS: [u32; 3] = [0, 1, u32::MAX - 3];

/// SHA-256 of `apply` over the counting pattern of each length, one
/// column per start counter in [`PIN_COUNTERS`].
const KEYSTREAM_PINS: [(usize, [&str; 3]); 18] = [
    (
        0,
        [
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ],
    ),
    (
        1,
        [
            "5a6e7a4754af8e7f47fc9493040d853e7b01e39d537cb1dd353c93b7ae58eb3d",
            "8a331fdde7032f33a71e1b2e257d80166e348e00fcb17914f48bdb57a1c63007",
            "5bad0d1132ac152cf657be8918ae163578448d56d40def9a590fe3dcab0c339b",
        ],
    ),
    (
        63,
        [
            "a485121c0b5597baac6b58925477af3cb7ab67636f29b9c12394c8020883d9c2",
            "8c26894da6a86c14e75a91a2cf414555f972a9d533fda5cdd114c6f54157af20",
            "d7f228e6910a618f66f7f945872c6a34bca16a64e123724a9d7bf4bac8313546",
        ],
    ),
    (
        64,
        [
            "028eda7df4b606cc11deae9fca11377257dedde42214543d595315c0b5cb8375",
            "5efa10d4fbee097f67f5b005eb95d75fa9b68626dc900b36993dff5e84783b6c",
            "ba7b4e2f2b460938c24b17f0bd452878d664777bb5c0baeba47669f5a307cd40",
        ],
    ),
    (
        65,
        [
            "9fec974d49d2520ecc5bb15b63602347e72095ad6bb6fd370c5315d7c4efa433",
            "5f33e4684c222713709cd88d9736284e6db5a5add11da20fe8205f887a04911f",
            "90b5a2590ce7b3945beead916d67d36ab8b670fc9e4d6011c685f155c97a27dd",
        ],
    ),
    (
        127,
        [
            "6839d3867d9c1bb79c6e667de694b1d5e75f08fd4ed02bc61a96b06a28708070",
            "d32d3d403617e5d48989d32c9203dc0aca1c7bde5a158e3bac03156e077875d1",
            "2a1831e1ba460d2b1fae00ae2378fca732ff5042227d186c2fbde53f773bae02",
        ],
    ),
    (
        128,
        [
            "35b7b5f2af737aa093c5cbc5b67f6862438443681e40bb5cdfcf23e48c8651c4",
            "0f70bcbca3bd5f36282d786ca6f9dd5453098888fb8bc8968555fe14760fa90e",
            "952bd6490a14ff1ad272f1c4ed6e9abe03bf8d1522d3ca06d08831750b9bbe0f",
        ],
    ),
    (
        129,
        [
            "1d05d162611de4bd4e9f4bb0d18fc29aeea1f0b4fa74a2fd189c2c7bcf5db8f7",
            "f7daa4d22a5223cedbc9fa604090a44a05ec451690016b065c9f41c5e98e28af",
            "b39ebec5a9b77c765e3ba11db29a78b89b14f120049ed30f79fd122177e7692b",
        ],
    ),
    (
        255,
        [
            "2a75363f44d166b2304629bd6a547c06d8fabccde0f4fb8737bece3a55e5f435",
            "26c150e900068e385389310fdcb73f1cfdb0cf286ddf5324e9e37c332dafa2a9",
            "02e96b5c61ba34e50cc3241c49f961baac229b7c49a2a74c10e2514b60392e6a",
        ],
    ),
    (
        256,
        [
            "4370c8afc9af27b44ec1a4f3a45abfef165622adfe4fba4030fe7aed8738930b",
            "046be090ace037881b89906791253717603796a7a6886b2b38b7f157ba369837",
            "df656287f560415a19729d168f19eaf713fa0a49bb725c06561f14ddec509fa1",
        ],
    ),
    (
        257,
        [
            "15ebf810c585c43ed6fe6630d1c9a8d344fbb2ffa32cb9fa291e51c52d8742d0",
            "24503338207ecd2bb8e28993af213412f328a6fdba9a3b5bd15e53d5a96e5b7c",
            "6d254c8a707645964cc57cf8315a99f04e26e64050807e0ef6729189b75d7bf4",
        ],
    ),
    (
        511,
        [
            "fcd095526a44dd749f3ca4889a967055a964607085fd3a05777db4331de1b582",
            "3e84a295132fb98329a52c3ce43079be290b380b6d75cefb0bec922f5edf9a25",
            "cae94b80fe1f1b824c3b3cc3541b237ed5ad1e8115fb5cc671b50e68e6cbd252",
        ],
    ),
    (
        512,
        [
            "d4c816237d84949c2bbcf335a7e7022ce63e83649f2d6ad5e40d4275f88971bd",
            "13a28523549b051ab4a17f27ada20f408dcf346b0f594950ff0be6c962c2703e",
            "aa482b9f1a82cccf495157ab0e165e02262eaa09f15d142f48c242dbc519da9d",
        ],
    ),
    (
        513,
        [
            "d8c244e8a738763b2805a554c253e0820f1ddd361d9ce18ee151d67a748485c9",
            "08a97718e271d28c1b937ac7bf499f921fe98c6b83870b494c73e89ec93016a3",
            "c8b552c4716e74c412a43caee7997e8e8acb616586beb0a00c44f441b590b7c8",
        ],
    ),
    (
        774,
        [
            "636b55d60d5275a703b6895c932032ff77dbf95e98999fe07938268ccfdef76f",
            "559a0917552d84a9e0b4b65fa47a8e13cb2c00d609e240ca4c37f5b45fbbf8fe",
            "aa1bca46104e26b51acd3734112ba586325ca27c9693a9d215ede570570e761f",
        ],
    ),
    (
        1_668,
        [
            "69dc5eb6d73a2dee9ce6c75d26e35e45d34dfe28fbb80b52b55cf0a89feef7f7",
            "7e24bfe5b9f0aeb5729b08db6613fe7bfb2b649865a19f835741b80bb5793f5f",
            "10b56931f40224caa3be0324fae4a7a943d11212aed6b25129c2cf9ee5e316c1",
        ],
    ),
    (
        2_100,
        [
            "a71d7ba615b855806f8158972a737324c0d559c7f8ee3776ffb96d85424fb8c3",
            "7114e64e1e2d28f9b85d93fe4c5acc3f8ef7a7f398e8ba071367e088a905b2d4",
            "dd3c522625d434fe6ce71974feed90bb887fc6bc83dbdd114966df86cc715081",
        ],
    ),
    (
        65_600,
        [
            "dd23a1d6c4aef6ad692d18f69ac6bf38513375c7172a9b1e87d2627d9633ed60",
            "50d078b0bc18ada8ad03dc77c157fa6af3c61469e8a6447194982946f1f7de20",
            "927ec4418dae8c4de56840cae0801fc78b503b10eb954307a9e520adaf12a287",
        ],
    ),
];

#[test]
fn apply_over_the_counting_pattern_is_pinned() {
    note_kernel();
    let key = pin_key();
    for (len, pins) in KEYSTREAM_PINS {
        let data = counting(len);
        for (counter, pin) in PIN_COUNTERS.into_iter().zip(pins) {
            let out = ChaCha20::new(&key, &PIN_NONCE, counter).apply_copy(&data);
            assert_eq!(hex(&sha256(&out)), pin, "{len} bytes from block {counter}");
            assert_eq!(
                out,
                reference(&key, &PIN_NONCE, counter, &data),
                "{len} bytes from block {counter}: block() reference"
            );
        }
    }
}

/// The first 4 KiB of a generator, drawn so that long fills start at a
/// non-zero offset into a keystream block: 64 × `next_u64`, then 13, 700,
/// 2 779 and 92 bytes. (`next_u64` reads its eight stream bytes big-endian,
/// so `to_be_bytes` gives the stream back.)
fn first_4k(mut rng: CryptoRng) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    for _ in 0..64 {
        out.extend_from_slice(&rng.next_u64().to_be_bytes());
    }
    for len in [13, 700, 2_779, 92] {
        out.extend_from_slice(&rng.bytes(len));
    }
    assert_eq!(out.len(), 4096);
    out
}

/// What `CryptoRng::from_seed(material)` must produce: the keystream of
/// key `SHA-256(material)`, zero nonce, from block 0.
fn rng_reference(material: &[u8]) -> Vec<u8> {
    reference(&sha256(material), &[0; NONCE_LEN], 0, &[0; 4096])
}

/// Seed, SHA-256 of the root generator's first 4 KiB, and of its
/// `fork("server")` child's.
const RNG_PINS: [(u64, &str, &str); 3] = [
    (
        1,
        "cff0c9c1cf5e20fdaffb2337363b0baa416ddf26a7b13fc5d3057a197db881cb",
        "e8775331644b5b2b847ca2d7ce99d1efd0e42826e148b2f45ce9d76d92351ac9",
    ),
    (
        7,
        "0155837dd5c2237b36fb6db8283cc86171feb328bb88c2b6aa26a96b31169525",
        "fcba74f9850c02964cfdcbf5cd0b40c082863f45bac3665ec0121085e5e6ad21",
    ),
    (
        23,
        "3b042a832ad8319265af2ee0e86e7695eb55eefdd4f3d4fc059e96bf9a71cc9e",
        "4579cd09fa532c1840cee87d00d10fe62f6e555b074805670358ae9a3c0029a4",
    ),
];

#[test]
fn csprng_first_4k_is_pinned() {
    note_kernel();
    for (seed, root_pin, fork_pin) in RNG_PINS {
        let root = first_4k(CryptoRng::from_u64(seed));
        assert_eq!(hex(&sha256(&root)), root_pin, "seed {seed}");
        assert_eq!(root, rng_reference(&seed.to_be_bytes()), "seed {seed}");

        let fork = first_4k(CryptoRng::from_u64(seed).fork("server"));
        assert_eq!(hex(&sha256(&fork)), fork_pin, "seed {seed}, fork");
        // A child is seeded with `SHA-256(parent seed) || '/' || label`.
        let mut material = sha256(&seed.to_be_bytes()).to_vec();
        material.extend_from_slice(b"/server");
        assert_eq!(fork, rng_reference(&material), "seed {seed}, fork");
    }
}

proptest! {
    /// Any key, nonce and start counter, any length up to 2 200 bytes at
    /// any alignment, fed through `apply` in one to five pieces, equals
    /// the `block()` reference over the same bytes in one piece.
    #[test]
    fn pieces_at_any_offset_equal_the_block_reference(
        key in proptest::array::uniform32(any::<u8>()),
        nonce in proptest::collection::vec(any::<u8>(), NONCE_LEN),
        counter in any::<u32>(),
        near_wrap in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..=2_200 + 7),
        cuts in proptest::collection::vec(any::<Index>(), 0..5),
    ) {
        note_kernel();
        let nonce: [u8; NONCE_LEN] = nonce.try_into().expect("twelve bytes");
        // Half the cases start within 35 blocks of the 32-bit wrap, which
        // a uniform counter would never reach.
        let counter = if near_wrap { u32::MAX - counter % 35 } else { counter };
        // Every start offset 0..8 moves the slice's alignment under the
        // same block boundaries.
        for skip in 0..8.min(data.len() + 1) {
            let mut buffer = data.clone();
            let out = &mut buffer[skip..];
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(out.len() + 1)).collect();
            cuts.sort_unstable();
            let mut cipher = ChaCha20::new(&key, &nonce, counter);
            let mut at = 0;
            for cut in cuts {
                cipher.apply(&mut out[at..cut]);
                at = cut;
            }
            cipher.apply(&mut out[at..]);
            let expected = reference(&key, &nonce, counter, &data[skip..]);
            prop_assert_eq!(&*out, &expected[..], "skip {}", skip);
        }
    }
}
