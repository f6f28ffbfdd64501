//! Encoding the dynamic [`Value`] model: a generic walk over
//! [`DerWriter`], which owns every TLV rule and emits in one pass.

use crate::value::Value;
use crate::writer::{int_content, DerWriter};

/// Encodes a value to canonical DER bytes.
pub fn encode(value: &Value) -> Vec<u8> {
    let mut w = DerWriter::new();
    write_value(&mut w, value);
    w.into_vec()
}

fn write_value(w: &mut DerWriter, value: &Value) {
    match value {
        Value::Boolean(b) => w.bool(*b),
        Value::Integer(v) => w.int(*v),
        Value::OctetString(b) => w.bytes(b),
        Value::Utf8String(s) => w.str(s),
        Value::Null => w.null(),
        Value::Enumerated(e) => w.enumerated(*e),
        Value::Sequence(items) => w.sequence_of(items, write_value),
        Value::Set(items) => w.set_of(items, write_value),
        Value::Tagged(n, inner) => w.tagged(*n, |w| write_value(w, inner)),
    }
}

/// Total encoded size of `value` in bytes (tag + length + content),
/// computed arithmetically without encoding.
pub fn encoded_len(value: &Value) -> usize {
    let content = match value {
        Value::Boolean(_) => 1,
        Value::Integer(v) => 8 - int_content(*v).1,
        Value::OctetString(b) => b.len(),
        Value::Utf8String(s) => s.len(),
        Value::Null => 0,
        Value::Enumerated(e) => 8 - int_content(*e as i64).1,
        // Sorting a SET-OF permutes its elements but not their bytes, so
        // the size is order-independent.
        Value::Sequence(items) | Value::Set(items) => items.iter().map(encoded_len).sum(),
        Value::Tagged(_, inner) => encoded_len(inner),
    };
    let len_octets = if content < 0x80 {
        1
    } else {
        1 + 8 - (content as u64).leading_zeros() as usize / 8
    };
    1 + len_octets + content
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_encoding() {
        assert_eq!(encode(&Value::Boolean(true)), vec![0x01, 0x01, 0xff]);
        assert_eq!(encode(&Value::Boolean(false)), vec![0x01, 0x01, 0x00]);
    }

    #[test]
    fn integer_minimal_encoding() {
        assert_eq!(encode(&Value::Integer(0)), vec![0x02, 0x01, 0x00]);
        assert_eq!(encode(&Value::Integer(127)), vec![0x02, 0x01, 0x7f]);
        // 128 needs a leading zero so it is not read as negative.
        assert_eq!(encode(&Value::Integer(128)), vec![0x02, 0x02, 0x00, 0x80]);
        assert_eq!(encode(&Value::Integer(-1)), vec![0x02, 0x01, 0xff]);
        assert_eq!(encode(&Value::Integer(-128)), vec![0x02, 0x01, 0x80]);
        assert_eq!(encode(&Value::Integer(-129)), vec![0x02, 0x02, 0xff, 0x7f]);
        assert_eq!(encode(&Value::Integer(256)), vec![0x02, 0x02, 0x01, 0x00]);
    }

    #[test]
    fn null_encoding() {
        assert_eq!(encode(&Value::Null), vec![0x05, 0x00]);
    }

    #[test]
    fn string_encoding() {
        assert_eq!(encode(&Value::string("hi")), vec![0x0c, 0x02, b'h', b'i']);
    }

    #[test]
    fn long_form_length() {
        let v = Value::bytes(vec![0u8; 300]);
        let enc = encode(&v);
        assert_eq!(&enc[..4], &[0x04, 0x82, 0x01, 0x2c]);
        assert_eq!(enc.len(), 304);
    }

    #[test]
    fn sequence_nests() {
        let v = Value::Sequence(vec![Value::Integer(1), Value::Boolean(true)]);
        assert_eq!(
            encode(&v),
            vec![0x30, 0x06, 0x02, 0x01, 0x01, 0x01, 0x01, 0xff]
        );
    }

    #[test]
    fn set_is_sorted_canonically() {
        let a = Value::Set(vec![Value::Integer(2), Value::Integer(1)]);
        let b = Value::Set(vec![Value::Integer(1), Value::Integer(2)]);
        assert_eq!(encode(&a), encode(&b));
        assert_eq!(
            encode(&a),
            vec![0x31, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02]
        );
    }

    #[test]
    fn context_tag() {
        let v = Value::tagged(3, Value::Null);
        assert_eq!(encode(&v), vec![0xa3, 0x02, 0x05, 0x00]);
    }

    #[test]
    fn encoded_len_matches_output() {
        let v = Value::Sequence(vec![
            Value::Integer(-70_000),
            Value::Set(vec![Value::string("b"), Value::string("a")]),
            Value::tagged(5, Value::bytes(vec![7u8; 200])),
            Value::Null,
        ]);
        assert_eq!(encoded_len(&v), encode(&v).len());
    }

    #[test]
    fn nested_set_of_sets_sorts_by_encoded_bytes() {
        let v = Value::Set(vec![
            Value::Set(vec![Value::Integer(9)]),
            Value::Set(vec![Value::Integer(2), Value::Integer(1)]),
            Value::Boolean(true),
        ]);
        // Boolean (tag 0x01) sorts before the SETs (tag 0x31); the longer
        // SET sorts by its first differing byte.
        let enc = encode(&v);
        assert_eq!(enc[0], 0x31);
        assert_eq!(&enc[2..5], &[0x01, 0x01, 0xff]);
    }
}
