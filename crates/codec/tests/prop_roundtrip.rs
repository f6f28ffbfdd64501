//! Property tests: encode/decode round-trip over arbitrary value trees.

use proptest::prelude::*;
use unicore_codec::{decode, encode, DerReader, Value};

/// Strategy for arbitrary DER value trees of bounded depth/size.
fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(Value::Integer),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(Value::OctetString),
        "[a-zA-Z0-9 äöüß]{0,20}".prop_map(Value::Utf8String),
        Just(Value::Null),
        any::<u32>().prop_map(Value::Enumerated),
    ];
    leaf.prop_recursive(4, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Sequence),
            (0u8..30, inner).prop_map(|(n, v)| Value::tagged(n, v)),
        ]
    })
}

proptest! {
    #[test]
    fn round_trip(v in value_strategy()) {
        let enc = encode(&v);
        prop_assert_eq!(decode(&enc).unwrap(), v);
    }

    #[test]
    fn prefix_decode_consumes_exact(v in value_strategy(), tail in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut enc = encode(&v);
        let expect_used = enc.len();
        enc.extend_from_slice(&tail);
        let raw = DerReader::new(&enc).next_raw().unwrap();
        prop_assert_eq!(raw.len(), expect_used);
        prop_assert_eq!(decode(raw).unwrap(), v);
    }

    #[test]
    fn truncation_always_errors(v in value_strategy()) {
        let enc = encode(&v);
        if enc.len() > 1 {
            // Removing the final byte must break the outermost TLV.
            prop_assert!(decode(&enc[..enc.len() - 1]).is_err());
        }
    }

    #[test]
    fn encoding_is_deterministic(v in value_strategy()) {
        prop_assert_eq!(encode(&v), encode(&v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Decoding is total: arbitrary bytes either parse or error, never
    /// panic, and never allocate past the announced input.
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
        let _ = DerReader::new(&bytes).next_raw();
    }

    /// A valid encoding with arbitrary extra bytes appended still decodes
    /// the same value once `next_raw` has cut it off the front.
    #[test]
    fn prefix_decode_ignores_suffix_garbage(
        v in value_strategy(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut enc = encode(&v);
        let len = enc.len();
        enc.extend_from_slice(&garbage);
        let raw = DerReader::new(&enc).next_raw().unwrap();
        prop_assert_eq!(raw.len(), len);
        prop_assert_eq!(decode(raw).unwrap(), v);
    }
}
