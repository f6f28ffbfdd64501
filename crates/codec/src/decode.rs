//! Decoding into the dynamic [`Value`] model: a generic walk over
//! [`DerReader`], which applies every TLV rule.

use crate::error::CodecError;
use crate::reader::DerReader;
use crate::value::{tag, Value};

pub use crate::reader::MAX_DEPTH;

/// Decodes exactly one value; trailing bytes are an error.
pub fn decode(input: &[u8]) -> Result<Value, CodecError> {
    let mut r = DerReader::new(input);
    let v = read_value(&mut r)?;
    r.finish()?;
    Ok(v)
}

fn read_value(r: &mut DerReader<'_>) -> Result<Value, CodecError> {
    let t = r.peek_tag().ok_or(CodecError::UnexpectedEof)?;
    match t {
        tag::BOOLEAN => r.next_bool().map(Value::Boolean),
        tag::INTEGER => r.next_i64().map(Value::Integer),
        tag::ENUMERATED => r.next_enum().map(Value::Enumerated),
        tag::OCTET_STRING => r.next_bytes().map(Value::bytes),
        tag::UTF8_STRING => r.next_string().map(Value::Utf8String),
        tag::NULL => r.next_null().map(|()| Value::Null),
        tag::SEQUENCE | tag::SET => {
            let mut inner = r.constructed(t, "value")?;
            let mut items = Vec::new();
            while !inner.is_empty() {
                items.push(read_value(&mut inner)?);
            }
            Ok(if t == tag::SEQUENCE {
                Value::Sequence(items)
            } else {
                Value::Set(items)
            })
        }
        t if t & 0xe0 == tag::CONTEXT_CONSTRUCTED => {
            r.tagged(|n, inner| Ok(Value::Tagged(n, Box::new(read_value(inner)?))))
        }
        other => Err(CodecError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn round_trip(v: Value) {
        let enc = encode(&v);
        assert_eq!(decode(&enc).unwrap(), v, "round trip of {v:?}");
    }

    #[test]
    fn round_trips() {
        round_trip(Value::Boolean(true));
        round_trip(Value::Boolean(false));
        round_trip(Value::Integer(0));
        round_trip(Value::Integer(i64::MAX));
        round_trip(Value::Integer(i64::MIN));
        round_trip(Value::Integer(-1));
        round_trip(Value::Null);
        round_trip(Value::string("grüße aus jülich"));
        round_trip(Value::bytes(vec![0u8; 1000]));
        round_trip(Value::Enumerated(0));
        round_trip(Value::Enumerated(u32::MAX));
        round_trip(Value::Sequence(vec![]));
        round_trip(Value::Sequence(vec![
            Value::Integer(42),
            Value::Sequence(vec![Value::string("nested")]),
            Value::tagged(5, Value::Boolean(true)),
        ]));
    }

    #[test]
    fn set_round_trip_is_sorted() {
        let v = Value::Set(vec![Value::Integer(300), Value::Integer(2)]);
        let dec = decode(&encode(&v)).unwrap();
        // Decoded order is the canonical (sorted-encoding) order.
        let Value::Set(items) = dec else {
            panic!("not a SET: {dec:?}");
        };
        assert_eq!(items.len(), 2);
        assert!(items.contains(&Value::Integer(300)));
        assert!(items.contains(&Value::Integer(2)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode(&Value::Null);
        enc.push(0x00);
        assert_eq!(decode(&enc), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let enc = encode(&Value::bytes(vec![1, 2, 3, 4]));
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_boolean_rejected() {
        assert!(decode(&[0x01, 0x01, 0x42]).is_err());
        assert!(decode(&[0x01, 0x02, 0x00, 0x00]).is_err());
    }

    #[test]
    fn non_minimal_integer_rejected() {
        // 0x00 0x05 is a redundant encoding of 5.
        assert!(decode(&[0x02, 0x02, 0x00, 0x05]).is_err());
        // 0xff 0xff is a redundant encoding of -1.
        assert!(decode(&[0x02, 0x02, 0xff, 0xff]).is_err());
    }

    #[test]
    fn non_minimal_length_rejected() {
        // Length 3 encoded in long form (0x81 0x03) is non-canonical.
        assert!(decode(&[0x04, 0x81, 0x03, 1, 2, 3]).is_err());
        // Leading zero in a long-form length.
        assert!(decode(&[0x04, 0x82, 0x00, 0x80]).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode(&[0x13, 0x00]), Err(CodecError::UnknownTag(0x13)));
    }

    #[test]
    fn depth_limit_enforced() {
        // Build MAX_DEPTH + 2 nested sequences by hand.
        let mut enc = encode(&Value::Null);
        for _ in 0..(MAX_DEPTH + 2) {
            let inner = enc;
            let mut outer = vec![0x30];
            // Re-encode the length.
            if inner.len() < 0x80 {
                outer.push(inner.len() as u8);
            } else {
                let b = (inner.len() as u32).to_be_bytes();
                let skip = b.iter().take_while(|&&x| x == 0).count();
                outer.push(0x80 | (4 - skip) as u8);
                outer.extend_from_slice(&b[skip..]);
            }
            outer.extend_from_slice(&inner);
            enc = outer;
        }
        assert_eq!(decode(&enc), Err(CodecError::DepthExceeded));
    }

    #[test]
    fn oversized_integer_rejected() {
        // 9 content bytes cannot fit an i64.
        let mut raw = vec![0x02, 0x09, 0x01];
        raw.extend_from_slice(&[0u8; 8]);
        assert_eq!(decode(&raw), Err(CodecError::IntegerOverflow));
    }

    #[test]
    fn utf8_validity_enforced() {
        assert!(decode(&[0x0c, 0x02, 0xff, 0xfe]).is_err());
    }
}
