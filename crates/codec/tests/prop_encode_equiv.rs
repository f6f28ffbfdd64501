//! Property tests: `encode` is byte-identical to the recursive
//! nested-temp-buffer encoder the codec started from.
//!
//! The oracle in `reference/` is that first encoder, kept verbatim: every
//! constructed value body is encoded into its own temporary `Vec` and
//! copied into the parent. The wire format is pinned by signatures and
//! idempotency keys, so the encoder must agree on every byte — including
//! the canonical SET-OF element ordering, which this strategy (unlike
//! `prop_roundtrip`'s) generates.

use proptest::prelude::*;
use unicore_codec::{decode, encode, encoded_len, Value};

mod reference;

/// Arbitrary value trees including SET-OF nodes (whose canonical element
/// sorting is the subtle part of the emit pass) and strings long enough
/// to force long-form lengths.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Integer),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(Value::OctetString),
        "[a-zA-Z0-9 äöüß]{0,20}".prop_map(Value::Utf8String),
        Just(Value::Null),
        any::<u32>().prop_map(Value::Enumerated),
    ];
    leaf.prop_recursive(4, 96, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Sequence),
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Set),
            (0u8..30, inner).prop_map(|(n, v)| Value::tagged(n, v)),
        ]
    })
}

proptest! {
    /// Byte-for-byte equivalence with the old recursive encoder.
    #[test]
    fn single_pass_matches_reference(v in value_strategy()) {
        prop_assert_eq!(encode(&v), reference::encode(&v));
    }

    /// The sizing pass predicts the emitted length exactly.
    #[test]
    fn encoded_len_is_exact(v in value_strategy()) {
        prop_assert_eq!(encoded_len(&v), encode(&v).len());
    }

    /// Set-bearing trees still round-trip (Sets decode in sorted order,
    /// so compare re-encodings, not trees).
    #[test]
    fn set_round_trip_is_stable(v in value_strategy()) {
        let enc = encode(&v);
        let dec = decode(&enc).unwrap();
        prop_assert_eq!(encode(&dec), enc);
    }
}
