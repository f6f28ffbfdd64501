//! The record layer: sequence-numbered, MAC-then-encrypted frames.
//!
//! Each record is one wire message:
//!
//! ```text
//! [type: u8][seq: u64 BE][ciphertext ...][mac: 32 bytes]
//! mac = HMAC-SHA256(mac_key, type || seq || ciphertext)
//! ciphertext = ChaCha20(enc_key, nonce = seq-derived)(plaintext)
//! ```
//!
//! Each direction has independent keys and sequence counters, derived from
//! the session master secret by HKDF with direction labels.

use crate::error::TransportError;
use unicore_crypto::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use unicore_crypto::ct::ct_eq;
use unicore_crypto::hmac::{hkdf_expand, hkdf_extract, HmacSha256};

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordType {
    /// Handshake messages.
    Handshake,
    /// Application data.
    Data,
    /// A batch of length-prefixed application frames in one record —
    /// one ChaCha20 pass and one HMAC protect the whole batch.
    Batch,
    /// Fatal alert carrying a reason string.
    Alert,
}

impl RecordType {
    fn to_byte(self) -> u8 {
        match self {
            RecordType::Handshake => 22,
            RecordType::Data => 23,
            RecordType::Batch => 24,
            RecordType::Alert => 21,
        }
    }

    fn from_byte(b: u8) -> Result<Self, TransportError> {
        match b {
            22 => Ok(RecordType::Handshake),
            23 => Ok(RecordType::Data),
            24 => Ok(RecordType::Batch),
            21 => Ok(RecordType::Alert),
            _ => Err(TransportError::Protocol("unknown record type")),
        }
    }
}

/// MAC length appended to each record.
pub const MAC_LEN: usize = 32;
/// Fixed header length (type + sequence).
pub const HEADER_LEN: usize = 9;

/// One direction's record protection state.
pub struct RecordKeys {
    enc_key: [u8; KEY_LEN],
    /// HMAC context already keyed with the direction's MAC key: sealing
    /// and opening clone this instead of re-deriving the padded key
    /// blocks for every record.
    mac_state: HmacSha256,
    nonce_base: [u8; NONCE_LEN],
    seq: u64,
}

impl RecordKeys {
    /// Derives a direction's keys from the master secret.
    ///
    /// `label` distinguishes directions (`"c2s"` / `"s2c"`).
    pub fn derive(master: &[u8], label: &str) -> Self {
        let prk = hkdf_extract(b"unicore-record", master);
        let material = hkdf_expand(&prk, label.as_bytes(), KEY_LEN * 2 + NONCE_LEN);
        let mut enc_key = [0u8; KEY_LEN];
        let mut nonce_base = [0u8; NONCE_LEN];
        enc_key.copy_from_slice(&material[..KEY_LEN]);
        let mac_state = HmacSha256::new(&material[KEY_LEN..KEY_LEN * 2]);
        nonce_base.copy_from_slice(&material[KEY_LEN * 2..]);
        RecordKeys {
            enc_key,
            mac_state,
            nonce_base,
            seq: 0,
        }
    }

    /// Next sequence number this direction will use.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    fn nonce_for(&self, seq: u64) -> [u8; NONCE_LEN] {
        // XOR the sequence number into the low 8 bytes of the nonce base.
        let mut nonce = self.nonce_base;
        let seq_bytes = seq.to_be_bytes();
        for i in 0..8 {
            nonce[NONCE_LEN - 8 + i] ^= seq_bytes[i];
        }
        nonce
    }

    /// Protects a plaintext into a wire record, consuming a sequence number.
    pub fn seal(&mut self, rtype: RecordType, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(rtype, plaintext, &mut out);
        out
    }

    /// [`seal`](Self::seal) into a caller-owned buffer (cleared first):
    /// a channel sending many records amortises one allocation, and the
    /// ciphertext is produced in place rather than in a temporary.
    pub fn seal_into(&mut self, rtype: RecordType, plaintext: &[u8], out: &mut Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        out.clear();
        out.reserve(HEADER_LEN + plaintext.len() + MAC_LEN);
        out.push(rtype.to_byte());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(plaintext);

        let nonce = self.nonce_for(seq);
        let mut cipher = ChaCha20::new(&self.enc_key, &nonce, 0);
        cipher.apply(&mut out[HEADER_LEN..]);

        let mut mac = self.mac_state.clone();
        mac.update(&out[..HEADER_LEN + plaintext.len()]);
        let tag = mac.finalize();
        out.extend_from_slice(&tag);
    }

    /// Seals many frames into one [`RecordType::Batch`] record: the
    /// plaintext is `(u32 BE length || frame)*`, so a poll batch pays a
    /// single sequence number, ChaCha20 keystream and HMAC instead of
    /// one of each per message.
    pub fn seal_frames_into(&mut self, frames: &[&[u8]], out: &mut Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        let body_len: usize = frames.iter().map(|f| 4 + f.len()).sum();
        out.clear();
        out.reserve(HEADER_LEN + body_len + MAC_LEN);
        out.push(RecordType::Batch.to_byte());
        out.extend_from_slice(&seq.to_be_bytes());
        for frame in frames {
            out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            out.extend_from_slice(frame);
        }

        let nonce = self.nonce_for(seq);
        let mut cipher = ChaCha20::new(&self.enc_key, &nonce, 0);
        cipher.apply(&mut out[HEADER_LEN..]);

        let mut mac = self.mac_state.clone();
        mac.update(&out[..HEADER_LEN + body_len]);
        let tag = mac.finalize();
        out.extend_from_slice(&tag);
    }

    /// Walks a `(u32 BE length || frame)*` list — an opened
    /// [`RecordType::Batch`] payload, or a federation record — yielding
    /// each frame borrowed from `payload`. The workspace's only parser of
    /// that grammar. A truncated header or a length past the end yields
    /// one `Err` and ends the walk; a receiver that must fail closed
    /// checks the whole list before acting on its first frame.
    pub fn frames(payload: &[u8]) -> impl Iterator<Item = Result<&[u8], TransportError>> {
        let mut rest = payload;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let list = std::mem::take(&mut rest);
            let Some((header, tail)) = list.split_first_chunk::<4>() else {
                return Some(Err(TransportError::Protocol(
                    "truncated batch frame header",
                )));
            };
            let len = u32::from_be_bytes(*header) as usize;
            if tail.len() < len {
                return Some(Err(TransportError::Protocol("truncated batch frame")));
            }
            let (frame, tail) = tail.split_at(len);
            rest = tail;
            Some(Ok(frame))
        })
    }

    /// Splits an opened [`RecordType::Batch`] payload back into frames.
    pub fn split_frames(payload: &[u8]) -> Result<Vec<Vec<u8>>, TransportError> {
        Self::frames(payload)
            .map(|frame| frame.map(<[u8]>::to_vec))
            .collect()
    }

    /// Opens a wire record, enforcing sequence continuity and the MAC.
    pub fn open(&mut self, record: &[u8]) -> Result<(RecordType, Vec<u8>), TransportError> {
        let mut out = Vec::new();
        let rtype = self.open_into(record, &mut out)?;
        Ok((rtype, out))
    }

    /// [`open`](Self::open) into a caller-owned buffer (cleared first).
    pub fn open_into(
        &mut self,
        record: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<RecordType, TransportError> {
        if record.len() < HEADER_LEN + MAC_LEN {
            return Err(TransportError::Protocol("record too short"));
        }
        let rtype = RecordType::from_byte(record[0])?;
        let mut seq_bytes = [0u8; 8];
        seq_bytes.copy_from_slice(&record[1..9]);
        let seq = u64::from_be_bytes(seq_bytes);
        if seq != self.seq {
            return Err(TransportError::Protocol("sequence gap (replay or loss)"));
        }
        let body_end = record.len() - MAC_LEN;
        let mut mac = self.mac_state.clone();
        mac.update(&record[..body_end]);
        let expected = mac.finalize();
        if !ct_eq(&expected, &record[body_end..]) {
            return Err(TransportError::RecordMac);
        }
        self.seq += 1;
        let nonce = self.nonce_for(seq);
        let mut cipher = ChaCha20::new(&self.enc_key, &nonce, 0);
        out.clear();
        out.extend_from_slice(&record[HEADER_LEN..body_end]);
        cipher.apply(out);
        Ok(rtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (RecordKeys, RecordKeys) {
        let master = b"shared master secret for tests";
        (
            RecordKeys::derive(master, "c2s"),
            RecordKeys::derive(master, "c2s"),
        )
    }

    #[test]
    fn seal_open_round_trip() {
        let (mut tx, mut rx) = pair();
        let rec = tx.seal(RecordType::Data, b"hello unicore");
        let (rtype, plain) = rx.open(&rec).unwrap();
        assert_eq!(rtype, RecordType::Data);
        assert_eq!(plain, b"hello unicore");
    }

    #[test]
    fn sequence_enforced() {
        let (mut tx, mut rx) = pair();
        let r1 = tx.seal(RecordType::Data, b"one");
        let r2 = tx.seal(RecordType::Data, b"two");
        // Skipping r1 means r2's sequence doesn't match.
        assert!(matches!(rx.open(&r2), Err(TransportError::Protocol(_))));
        // In order works.
        rx.open(&r1).unwrap();
        rx.open(&r2).unwrap();
    }

    /// Payloads for the tamper cases: a few bytes, `live_consign`'s mean
    /// record and one bulk chunk — the last two long enough that the
    /// cipher's wide kernel, not only its one-block path, is what a
    /// refused record must not have reached.
    fn tamper_payloads() -> [Vec<u8>; 3] {
        [7usize, 774, 65_600].map(|len| (0..len).map(|i| i as u8).collect())
    }

    #[test]
    fn replay_rejected() {
        for payload in tamper_payloads() {
            let (mut tx, mut rx) = pair();
            let r1 = tx.seal(RecordType::Data, &payload);
            assert_eq!(rx.open(&r1).unwrap().1, payload);
            assert!(rx.open(&r1).is_err());
            assert_eq!(rx.next_seq(), 1);
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        for payload in tamper_payloads() {
            let (mut tx, mut rx) = pair();
            let rec = tx.seal(RecordType::Data, &payload);
            let mut opened = b"untouched".to_vec();
            // First, middle and last ciphertext byte.
            for at in [0, payload.len() / 2, payload.len() - 1] {
                let mut bad = rec.clone();
                bad[HEADER_LEN + at] ^= 0x01;
                let refused = rx.open_into(&bad, &mut opened);
                assert!(matches!(refused, Err(TransportError::RecordMac)));
                // Refused on the MAC, before a byte was decrypted.
                assert_eq!(opened, b"untouched");
                assert_eq!(rx.next_seq(), 0);
            }
            assert_eq!(rx.open(&rec).unwrap().1, payload);
        }
    }

    #[test]
    fn tampered_type_rejected() {
        let (mut tx, mut rx) = pair();
        let mut rec = tx.seal(RecordType::Data, b"payload");
        rec[0] = RecordType::Alert.to_byte();
        assert!(matches!(rx.open(&rec), Err(TransportError::RecordMac)));
    }

    #[test]
    fn truncated_record_rejected() {
        for payload in tamper_payloads() {
            let (mut tx, mut rx) = pair();
            let rec = tx.seal(RecordType::Data, &payload);
            // Shorter than any record, one byte short, and one 64-byte
            // cipher block short.
            let cuts = [
                HEADER_LEN + MAC_LEN - 1,
                rec.len() - 1,
                rec.len().saturating_sub(64),
            ];
            for len in cuts {
                assert!(rx.open(&rec[..len]).is_err(), "{len} of {}", rec.len());
            }
            assert_eq!(rx.open(&rec).unwrap().1, payload);
        }
    }

    #[test]
    fn direction_keys_differ() {
        let master = b"master";
        let mut c2s = RecordKeys::derive(master, "c2s");
        let mut s2c = RecordKeys::derive(master, "s2c");
        let rec = c2s.seal(RecordType::Data, b"x");
        assert!(s2c.open(&rec).is_err());
    }

    #[test]
    fn different_masters_do_not_interoperate() {
        let mut tx = RecordKeys::derive(b"master-a", "c2s");
        let mut rx = RecordKeys::derive(b"master-b", "c2s");
        let rec = tx.seal(RecordType::Data, b"x");
        assert!(rx.open(&rec).is_err());
    }

    #[test]
    fn empty_payload_allowed() {
        let (mut tx, mut rx) = pair();
        let rec = tx.seal(RecordType::Handshake, b"");
        let (rtype, plain) = rx.open(&rec).unwrap();
        assert_eq!(rtype, RecordType::Handshake);
        assert!(plain.is_empty());
    }

    #[test]
    fn reused_buffers_are_byte_identical() {
        let (mut tx, mut rx) = pair();
        let (mut tx2, _) = pair();
        let mut sealed = vec![0xee; 7]; // dirty scratch
        let mut opened = vec![0xee; 7];
        for msg in [&b"first"[..], b"", b"third message"] {
            tx.seal_into(RecordType::Data, msg, &mut sealed);
            assert_eq!(sealed, tx2.seal(RecordType::Data, msg));
            let rtype = rx.open_into(&sealed, &mut opened).unwrap();
            assert_eq!(rtype, RecordType::Data);
            assert_eq!(opened, msg);
        }
    }

    #[test]
    fn batch_frames_round_trip() {
        let (mut tx, mut rx) = pair();
        let frames: Vec<&[u8]> = vec![b"poll job 1", b"", b"poll job 2 with longer body"];
        let mut rec = Vec::new();
        tx.seal_frames_into(&frames, &mut rec);
        let (rtype, payload) = rx.open(&rec).unwrap();
        assert_eq!(rtype, RecordType::Batch);
        let back = RecordKeys::split_frames(&payload).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], b"poll job 1");
        assert!(back[1].is_empty());
        assert_eq!(back[2], b"poll job 2 with longer body");
    }

    #[test]
    fn batch_consumes_one_sequence_number() {
        let (mut tx, mut rx) = pair();
        let mut rec = Vec::new();
        tx.seal_frames_into(&[b"a", b"b", b"c"], &mut rec);
        rx.open(&rec).unwrap();
        // The next single record still lines up: the batch took one seq.
        let r = tx.seal(RecordType::Data, b"after");
        let (_, plain) = rx.open(&r).unwrap();
        assert_eq!(plain, b"after");
    }

    #[test]
    fn tampered_batch_rejected() {
        let (mut tx, mut rx) = pair();
        let mut rec = Vec::new();
        tx.seal_frames_into(&[b"frame one", b"frame two"], &mut rec);
        rec[HEADER_LEN + 2] ^= 0x40;
        assert!(matches!(rx.open(&rec), Err(TransportError::RecordMac)));
    }

    #[test]
    fn malformed_batch_payload_rejected() {
        // Lengths that overrun the payload are errors, not panics.
        assert!(RecordKeys::split_frames(&[0, 0, 0, 9, 1, 2]).is_err());
        assert!(RecordKeys::split_frames(&[0, 0, 0]).is_err());
        assert!(RecordKeys::split_frames(&[]).unwrap().is_empty());
    }

    #[test]
    fn frames_borrow_from_the_payload_and_stop_at_the_first_error() {
        let payload = [0, 0, 0, 2, 7, 8, 0, 0, 0, 0, 0, 0, 0, 1, 9];
        let frames: Vec<&[u8]> = RecordKeys::frames(&payload)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(frames, [&[7u8, 8][..], &[], &[9]]);
        assert!(std::ptr::eq(frames[0].as_ptr(), &payload[4]));
        // One good frame, then a length past the end: one Err, then done.
        let mut walk = RecordKeys::frames(&[0, 0, 0, 1, 5, 0, 0, 0, 9, 1]);
        assert_eq!(walk.next().unwrap().unwrap(), [5]);
        assert!(walk.next().unwrap().is_err());
        assert!(walk.next().is_none());
    }

    #[test]
    fn large_payload_round_trip() {
        let (mut tx, mut rx) = pair();
        let data = vec![0xabu8; 1 << 20];
        let rec = tx.seal(RecordType::Data, &data);
        let (_, plain) = rx.open(&rec).unwrap();
        assert_eq!(plain, data);
    }
}
