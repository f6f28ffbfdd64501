//! Byte pins for sealed records.
//!
//! One `RecordKeys::derive(b"pin", "c2s")` seals, in order, a 774-byte
//! `Data` record (`live_consign`'s mean record), a three-frame `Batch`
//! and a 65 600-byte `Data` record (one bulk chunk). Each record's bytes
//! are pinned as a SHA-256 digest recorded from the scalar, one block at
//! a time ChaCha20 and the HMAC that re-compressed its outer key block per
//! tag; each is also rebuilt here from the record format alone — HKDF,
//! `ChaCha20::block()` and one-shot `hmac_sha256` — and the twin
//! `RecordKeys` opens all three.
//!
//! The cipher and the MAC under `RecordKeys` may get faster; a change that
//! moves one of these digests changed what goes on the wire.

use unicore_crypto::chacha20::{ChaCha20, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use unicore_crypto::{hkdf_expand, hkdf_extract, hmac_sha256, sha256};
use unicore_transport::{RecordKeys, RecordType};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The counting pattern `00 01 02 …` of `len` bytes.
fn counting(len: usize) -> Vec<u8> {
    (0..len).map(|i| i as u8).collect()
}

/// A record as the module docs of `record.rs` define it, from the
/// primitives: `type | seq | plaintext ^ keystream | HMAC(type | seq |
/// ciphertext)`, the keystream one `block()` call per 64 bytes.
fn record_from_the_format(rtype: u8, seq: u64, plaintext: &[u8]) -> Vec<u8> {
    let prk = hkdf_extract(b"unicore-record", b"pin");
    let material = hkdf_expand(&prk, b"c2s", KEY_LEN * 2 + NONCE_LEN);
    let enc_key: [u8; KEY_LEN] = material[..KEY_LEN].try_into().expect("key");
    let mac_key = &material[KEY_LEN..KEY_LEN * 2];
    let mut nonce: [u8; NONCE_LEN] = material[KEY_LEN * 2..].try_into().expect("nonce");
    for (byte, s) in nonce[NONCE_LEN - 8..].iter_mut().zip(seq.to_be_bytes()) {
        *byte ^= s;
    }

    let mut record = vec![rtype];
    record.extend_from_slice(&seq.to_be_bytes());
    let cipher = ChaCha20::new(&enc_key, &nonce, 0);
    for (i, chunk) in plaintext.chunks(BLOCK_LEN).enumerate() {
        let keystream = cipher.block(i as u32);
        record.extend(chunk.iter().zip(keystream).map(|(byte, k)| byte ^ k));
    }
    let tag = hmac_sha256(mac_key, &record);
    record.extend_from_slice(&tag);
    record
}

/// SHA-256 of the three sealed records, in sealing order.
const RECORD_PINS: [&str; 3] = [
    "d754597954edd7787bb3a853c581252740598c24690f281550760a63d0a64af8",
    "238447982a7ca52b10527b66630b6381a67a918427879b95a2d423b8410fa6bc",
    "dce561c58e2b19b0a79c95d9da94c084e7cf964e47cde79cd4960e9bb6f98c65",
];

#[test]
fn sealed_records_are_pinned_and_the_twin_opens_them() {
    let mut tx = RecordKeys::derive(b"pin", "c2s");
    let mut rx = RecordKeys::derive(b"pin", "c2s");
    let mut sealed = Vec::new();
    let mut opened = Vec::new();

    let small = counting(774);
    tx.seal_into(RecordType::Data, &small, &mut sealed);
    assert_eq!(hex(&sha256(&sealed)), RECORD_PINS[0], "774 B Data");
    assert_eq!(sealed, record_from_the_format(23, 0, &small));
    assert_eq!(
        rx.open_into(&sealed, &mut opened).unwrap(),
        RecordType::Data
    );
    assert_eq!(opened, small);

    let frames = [counting(134), Vec::new(), counting(640)];
    let frame_refs: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
    tx.seal_frames_into(&frame_refs, &mut sealed);
    assert_eq!(hex(&sha256(&sealed)), RECORD_PINS[1], "3-frame Batch");
    let mut list = Vec::new();
    for frame in &frames {
        list.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        list.extend_from_slice(frame);
    }
    assert_eq!(sealed, record_from_the_format(24, 1, &list));
    assert_eq!(
        rx.open_into(&sealed, &mut opened).unwrap(),
        RecordType::Batch
    );
    assert_eq!(RecordKeys::split_frames(&opened).unwrap(), frames);

    let chunk = counting(65_600);
    tx.seal_into(RecordType::Data, &chunk, &mut sealed);
    assert_eq!(hex(&sha256(&sealed)), RECORD_PINS[2], "65 600 B Data");
    assert_eq!(sealed, record_from_the_format(23, 2, &chunk));
    assert_eq!(
        rx.open_into(&sealed, &mut opened).unwrap(),
        RecordType::Data
    );
    assert_eq!(opened, chunk);
}
