//! Fail closed: no decoder panics, over-allocates or accepts a second
//! spelling of a value, whatever bytes it is handed.
//!
//! One generic harness, [`hostile`], runs against every `DerCodec` type
//! in the workspace through the shared [`codec_corpus`]. For each value it
//! attacks the valid encoding — every proper prefix, every single-bit
//! flip, random overwrites, a length field claiming a terabyte — and
//! feeds the decoder plain noise. Each input must come back `Err`, or
//! decode to a value that re-encodes to exactly the input bytes: an
//! accepted message is always the canonical one, so signatures,
//! idempotency keys and journal replay never see two forms of one value.
//!
//! The `u32 length | frame` list — a sealed `Batch` record's payload on
//! the live path, a federation record on the simulated one — has one
//! parser, attacked here through both of its callers: damaged anywhere,
//! a record delivers none of its frames.
//!
//! A sealed record is attacked whole as well, at the sizes the live path
//! and the bulk path send (774 B, 65 600 B): a bit flipped or a byte cut
//! anywhere is refused on the MAC, before the cipher runs and without
//! spending the receiver's sequence number.

mod codec_corpus;

use codec_corpus::Visitor;
use std::fmt::Debug;
use unicore::link::{frames_of, Outbox};
use unicore_codec::DerCodec;
use unicore_simnet::NodeId;
use unicore_transport::{RecordKeys, RecordType, TransportError};

/// Encodings up to this size are attacked at every byte; longer ones
/// (bulk file payloads) in full at both ends and at a stride between.
const EXHAUSTIVE_BELOW: usize = 4_096;

/// The byte offsets of `len` the harness attacks.
fn attack_offsets(len: usize) -> Vec<usize> {
    if len <= EXHAUSTIVE_BELOW {
        return (0..len).collect();
    }
    let head = 0..2_048;
    let tail = len - 512..len;
    let between = (head.end..tail.start).step_by(97);
    head.chain(between).chain(tail).collect()
}

/// Either rejected, or the one canonical spelling of what it decoded to.
fn rejected_or_canonical<T: DerCodec>(name: &str, what: std::fmt::Arguments<'_>, input: &[u8]) {
    if let Ok(value) = T::from_der(input) {
        assert!(
            value.to_der() == input,
            "{name}: {what} was accepted but is not the canonical encoding of what it decoded to"
        );
    }
}

/// xorshift64*: a fixed-seed byte source, so a failure reproduces.
struct Noise(u64);

impl Noise {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn hostile<T: DerCodec + PartialEq + Debug>(name: &str, value: &T, noise: &mut Noise) {
    let der = value.to_der();
    assert_eq!(
        T::from_der(&der).as_ref(),
        Ok(value),
        "{name}: valid encoding must round-trip"
    );

    // Every proper prefix is a truncated TLV.
    for cut in attack_offsets(der.len()) {
        assert!(
            T::from_der(&der[..cut]).is_err(),
            "{name}: prefix of {cut} bytes accepted"
        );
    }

    // Every single-bit flip.
    let mut mutated = der.clone();
    for at in attack_offsets(der.len()) {
        for bit in 0..8 {
            mutated[at] ^= 1 << bit;
            rejected_or_canonical::<T>(
                name,
                format_args!("bit {bit} of byte {at} flipped"),
                &mutated,
            );
            mutated[at] ^= 1 << bit;
        }
    }

    // Random windows of the valid encoding overwritten with noise.
    for _ in 0..128 {
        let mut mutated = der.clone();
        let at = noise.below(der.len());
        let len = 1 + noise.below(8.min(der.len() - at));
        mutated[at..at + len].copy_from_slice(&noise.bytes(len));
        rejected_or_canonical::<T>(name, format_args!("{len} noise bytes at {at}"), &mutated);
    }

    // Plain noise, half of it behind the type's own leading tag so the
    // decoder gets past its first check.
    for round in 0..128 {
        let len = noise.below(48);
        let mut input = noise.bytes(len);
        if round % 2 == 0 && !input.is_empty() {
            input[0] = der[0];
        }
        rejected_or_canonical::<T>(name, format_args!("noise"), &input);
    }

    // Nine bytes claiming a 2^40-byte body: refused from the header alone,
    // before anything is allocated for it — as the type's outer element
    // and as a bare OCTET STRING.
    for tag in [der[0], 0x04] {
        let claim = [tag, 0x86, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xaa];
        assert!(
            T::from_der(&claim).is_err(),
            "{name}: terabyte length claim under tag {tag:#04x} accepted"
        );
    }
    assert!(T::from_der(&[]).is_err(), "{name}: empty input accepted");
}

struct Attack {
    noise: Noise,
    attacked: usize,
}

impl Visitor for Attack {
    fn visit<T: DerCodec + PartialEq + Debug>(&mut self, name: &str, value: &T) {
        hostile(name, value, &mut self.noise);
        self.attacked += 1;
    }
}

#[test]
fn every_decoder_fails_closed() {
    let mut attack = Attack {
        noise: Noise(0x9e37_79b9_7f4a_7c15),
        attacked: 0,
    };
    codec_corpus::visit_all(&mut attack);
    assert!(
        attack.attacked > 150,
        "corpus shrank to {}",
        attack.attacked
    );
}

/// What a receiver may act on: every frame of a well-formed list, or
/// nothing at all. The two callers agree on every list but one that
/// opens with an empty frame, which a federation record never does — the
/// link reads that as first-contact padding and delivers nothing.
fn delivered(list: &[u8]) -> Option<Vec<Vec<u8>>> {
    let walked = frames_of(list).map(|frames| frames.map(<[u8]>::to_vec).collect::<Vec<_>>());
    if list.starts_with(&[0; 4]) {
        assert_eq!(
            walked.as_deref().ok(),
            Some(&[][..]),
            "padding: {list:02x?}"
        );
    } else {
        assert_eq!(
            walked.as_ref().ok(),
            RecordKeys::split_frames(list).as_ref().ok()
        );
    }
    walked.ok()
}

#[test]
fn a_damaged_frame_list_delivers_nothing() {
    let frames: [&[u8]; 3] = [b"\x00\x00\x00\x07poll", b"x", &[0xAB; 300]];
    let mut outbox = Outbox::default();
    for frame in frames {
        outbox.push(NodeId(1), NodeId(2), |buf| buf.extend_from_slice(frame));
    }
    let mut record = Vec::new();
    outbox.flush(|_, _, bytes| record = bytes);
    assert_eq!(delivered(&record).unwrap(), frames);

    // Cut at every byte: whole frames up to a boundary, else nothing.
    let mut boundaries = vec![0];
    for frame in frames {
        boundaries.push(boundaries.last().unwrap() + 4 + frame.len());
    }
    for cut in 0..record.len() {
        match boundaries.iter().position(|&b| b == cut) {
            Some(whole) => assert_eq!(delivered(&record[..cut]).unwrap(), frames[..whole]),
            None => assert_eq!(delivered(&record[..cut]), None, "cut at {cut}"),
        }
    }

    // The largest length the header can claim, at each frame's header:
    // refused from the header alone, nothing allocated for it.
    for &at in &boundaries[..3] {
        let mut claim = record.clone();
        claim[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(delivered(&claim), None, "4 GiB claimed at {at}");
    }

    // Trailing garbage shorter than a header, and a header with no body.
    for garbage in [&[0xFF][..], &[0, 0, 1], &[0, 0, 0, 9, 1]] {
        let mut trailing = record.clone();
        trailing.extend_from_slice(garbage);
        assert_eq!(delivered(&trailing), None, "{garbage:02x?} appended");
    }

    // Nothing to deliver is not an error: an empty message, and the
    // zeros that stand in for a handshake — read as padding from their
    // first header, not walked as a thousand empty frames.
    assert_eq!(delivered(&[]).unwrap(), Vec::<Vec<u8>>::new());
    assert_eq!(frames_of(&[0; 4_096]).unwrap().count(), 0);
    assert_eq!(RecordKeys::frames(&[0; 4_096]).count(), 1_024);

    // Noise: accepted only if it happens to be a well-formed list, and
    // then it is exactly the list of what was delivered.
    let mut noise = Noise(0x5851_f42d_4c95_7f2d);
    for _ in 0..4_096 {
        let len = noise.below(24);
        let mut input = noise.bytes(len);
        if input.len() >= 4 {
            input[..3].fill(0); // a plausible first length
        }
        if let Some(frames) = delivered(&input) {
            let respelled: Vec<u8> = frames
                .iter()
                .flat_map(|f| {
                    (f.len() as u32)
                        .to_be_bytes()
                        .into_iter()
                        .chain(f.iter().copied())
                })
                .collect();
            assert!(frames.is_empty() || respelled == input, "{input:02x?}");
        }
    }
}

#[test]
fn a_damaged_sealed_record_is_refused_before_it_is_decrypted() {
    for len in [774usize, 65_600] {
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        let mut tx = RecordKeys::derive(b"hostile", "c2s");
        let mut rx = RecordKeys::derive(b"hostile", "c2s");
        let mut record = Vec::new();
        tx.seal_into(RecordType::Data, &payload, &mut record);

        let mut opened = b"untouched".to_vec();
        let mut refused = |input: &[u8], what: std::fmt::Arguments<'_>| {
            let result = rx.open_into(input, &mut opened);
            assert!(result.is_err(), "{len} B record, {what}: accepted");
            assert_eq!(opened, b"untouched", "{len} B record, {what}: decrypted");
            assert_eq!(rx.next_seq(), 0, "{len} B record, {what}: sequence spent");
            result.unwrap_err()
        };
        // Each probe of the long record MACs 64 KiB: every fifth offset.
        let stride = if len > EXHAUSTIVE_BELOW { 5 } else { 1 };
        for at in attack_offsets(record.len()).into_iter().step_by(stride) {
            let mut flipped = record.clone();
            flipped[at] ^= 1 << (at % 8);
            let error = refused(&flipped, format_args!("bit flipped in byte {at}"));
            // Past the type and sequence bytes, only the MAC can tell.
            if at >= 9 {
                assert!(matches!(error, TransportError::RecordMac), "byte {at}");
            }
            refused(&record[..at], format_args!("cut to {at} bytes"));
        }
        let mut longer = record.clone();
        longer.push(0);
        refused(&longer, format_args!("one byte appended"));

        // None of that cost the receiver the record itself.
        assert_eq!(
            rx.open_into(&record, &mut opened).unwrap(),
            RecordType::Data
        );
        assert_eq!(opened, payload);
    }
}
