//! Property tests: the streaming codec is the old codec, byte for byte
//! and verdict for verdict.
//!
//! `encode` is now a walk over `DerWriter` (one pass, lengths patched in
//! place) and `decode` a walk over `DerReader` (a borrowing cursor). The
//! oracles in `reference/` are the implementations they replaced. Trees
//! here carry SET-OF nodes and leaves whose sizes straddle every
//! long-form length boundary, so the in-place length patch is exercised
//! at 127/128, 255/256 and 65 535/65 536 content bytes, nested.

mod reference;

use proptest::prelude::*;
use unicore_codec::{decode, encode, DerReader, DerWriter, Value};

/// Lengths just below, at and above each definite-length boundary.
fn boundary_len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..4, 120usize..132, 250usize..260, 65_528usize..65_540,]
}

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Integer),
        (boundary_len(), any::<u8>()).prop_map(|(n, b)| Value::OctetString(vec![b; n])),
        boundary_len().prop_map(|n| Value::Utf8String("ä".repeat(n / 2))),
        "[a-zA-Z0-9 äöüß]{0,20}".prop_map(Value::Utf8String),
        Just(Value::Null),
        any::<u32>().prop_map(Value::Enumerated),
    ];
    leaf.prop_recursive(4, 48, 5, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Sequence),
            proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::Set),
            (0u8..31, inner).prop_map(|(n, v)| Value::tagged(n, v)),
        ]
    })
}

/// One way of damaging an encoding.
#[derive(Debug, Clone)]
enum Damage {
    FlipBit(usize, u8),
    SetByte(usize, u8),
    Truncate(usize),
    Insert(usize, u8),
    Remove(usize),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (any::<usize>(), 0u8..8).prop_map(|(at, bit)| Damage::FlipBit(at, bit)),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::SetByte(at, b)),
        any::<usize>().prop_map(Damage::Truncate),
        (any::<usize>(), any::<u8>()).prop_map(|(at, b)| Damage::Insert(at, b)),
        any::<usize>().prop_map(Damage::Remove),
    ]
}

/// Applies `damage` near the front of `enc`, where the structure is (most
/// of a boundary-sized leaf is filler the decoders treat alike).
fn apply(enc: &mut Vec<u8>, damage: &Damage) {
    let window = enc.len().min(64);
    match *damage {
        Damage::FlipBit(at, bit) => enc[at % window] ^= 1 << bit,
        Damage::SetByte(at, b) => enc[at % window] = b,
        Damage::Truncate(at) => enc.truncate(at % enc.len()),
        Damage::Insert(at, b) => enc.insert(at % (window + 1), b),
        Damage::Remove(at) => {
            enc.remove(at % window);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `DerWriter` emits the bytes the recursive encoder did.
    #[test]
    fn writer_matches_reference_encoder(v in value_strategy()) {
        prop_assert_eq!(encode(&v), reference::encode(&v));
    }

    /// A writer that starts behind existing bytes patches lengths
    /// relative to its own start, not the buffer's.
    #[test]
    fn writer_appends_behind_a_prefix(
        sizes in proptest::collection::vec(boundary_len(), 0..4),
        prefix in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut out = prefix.clone();
        DerWriter::default().append_into(&mut out, |w| {
            w.sequence_of(&sizes, |w, &n| w.tagged(1, |w| w.bytes(&vec![0xa5; n])))
        });
        let v = Value::Sequence(
            sizes
                .iter()
                .map(|&n| Value::tagged(1, Value::OctetString(vec![0xa5; n])))
                .collect(),
        );
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &reference::encode(&v)[..]);
    }

    /// `octets_of` is `bytes` of the nested encoding, with no temporary —
    /// also when the nested encoding owes long-form lengths of its own.
    #[test]
    fn octets_of_matches_bytes_of_the_encoding(
        sizes in proptest::collection::vec(boundary_len(), 0..4),
    ) {
        let mut nested = DerWriter::new();
        nested.octets_of(|w| {
            w.sequence_of(&sizes, |w, &n| w.sequence(|w| w.bytes(&vec![0x5a; n])))
        });
        let inner = Value::Sequence(
            sizes
                .iter()
                .map(|&n| Value::Sequence(vec![Value::OctetString(vec![0x5a; n])]))
                .collect(),
        );
        prop_assert_eq!(
            nested.into_vec(),
            reference::encode(&Value::OctetString(reference::encode(&inner)))
        );
    }

    /// `decode` returns what the tree-building decoder returned.
    #[test]
    fn reader_matches_reference_decoder_on_valid_input(v in value_strategy()) {
        let enc = reference::encode(&v);
        prop_assert_eq!(decode(&enc), reference::decode(&enc));
    }

    /// On damaged input the two decoders agree on accept/reject, and on
    /// the value when they accept.
    #[test]
    fn reader_matches_reference_decoder_on_damaged_input(
        v in value_strategy(),
        damage in proptest::collection::vec(damage_strategy(), 1..4),
    ) {
        let mut enc = reference::encode(&v);
        for d in &damage {
            if enc.is_empty() {
                break;
            }
            apply(&mut enc, d);
        }
        prop_assert_eq!(decode(&enc).ok(), reference::decode(&enc).ok());
    }

    /// `next_raw` hands back exactly the bytes of each element.
    #[test]
    fn next_raw_splits_a_sequence_at_element_boundaries(
        items in proptest::collection::vec(value_strategy(), 0..5),
    ) {
        let enc = encode(&Value::Sequence(items.clone()));
        let raws = DerReader::new(&enc)
            .sequence_of("items", |r| r.next_raw())
            .unwrap();
        prop_assert_eq!(raws.len(), items.len());
        for (raw, item) in raws.iter().zip(&items) {
            prop_assert_eq!(*raw, &reference::encode(item)[..]);
        }
    }
}
