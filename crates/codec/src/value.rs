//! The DER value model: a faithful subset of ASN.1 types sufficient for
//! UNICORE's resource pages, certificates and AJO wire encoding.

/// Universal-class tag numbers (DER encoding, primitive unless noted).
pub mod tag {
    /// BOOLEAN
    pub const BOOLEAN: u8 = 0x01;
    /// INTEGER (two's-complement, minimal length)
    pub const INTEGER: u8 = 0x02;
    /// OCTET STRING
    pub const OCTET_STRING: u8 = 0x04;
    /// NULL
    pub const NULL: u8 = 0x05;
    /// UTF8String
    pub const UTF8_STRING: u8 = 0x0c;
    /// ENUMERATED
    pub const ENUMERATED: u8 = 0x0a;
    /// SEQUENCE (constructed)
    pub const SEQUENCE: u8 = 0x30;
    /// SET (constructed)
    pub const SET: u8 = 0x31;
    /// Base for context-specific constructed tags `[n]`.
    pub const CONTEXT_CONSTRUCTED: u8 = 0xa0;
}

/// A decoded DER value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// ASN.1 BOOLEAN.
    Boolean(bool),
    /// ASN.1 INTEGER restricted to `i64` (all UNICORE quantities fit).
    Integer(i64),
    /// ASN.1 OCTET STRING (also used for big integers in certificates).
    OctetString(Vec<u8>),
    /// ASN.1 UTF8String.
    Utf8String(String),
    /// ASN.1 NULL.
    Null,
    /// ASN.1 ENUMERATED (non-negative discriminants only).
    Enumerated(u32),
    /// ASN.1 SEQUENCE.
    Sequence(Vec<Value>),
    /// ASN.1 SET (encoder sorts elements for canonical DER).
    Set(Vec<Value>),
    /// Context-specific constructed value `[n]` wrapping one inner value.
    Tagged(u8, Box<Value>),
}

impl Value {
    /// Convenience constructor: UTF8String from anything stringy.
    pub fn string(s: impl Into<String>) -> Value {
        Value::Utf8String(s.into())
    }

    /// Convenience constructor: OCTET STRING from bytes.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Value {
        Value::OctetString(b.into())
    }

    /// Convenience constructor: context tag `[n]` around `inner`.
    pub fn tagged(n: u8, inner: Value) -> Value {
        Value::Tagged(n, Box::new(inner))
    }

    /// Borrows the string content if this is a UTF8String.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Utf8String(s) => Some(s),
            _ => None,
        }
    }

    /// Borrows the bytes if this is an OCTET STRING.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::OctetString(b) => Some(b),
            _ => None,
        }
    }

    /// Total number of nodes in the value tree (diagnostics / limits).
    pub fn node_count(&self) -> usize {
        match self {
            Value::Sequence(items) | Value::Set(items) => {
                1 + items.iter().map(Value::node_count).sum::<usize>()
            }
            Value::Tagged(_, inner) => 1 + inner.node_count(),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::string("hi").as_str(), Some("hi"));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert!(Value::Null.as_str().is_none());
    }

    #[test]
    fn node_count_recurses() {
        let v = Value::Sequence(vec![
            Value::Integer(1),
            Value::tagged(0, Value::Sequence(vec![Value::Null, Value::Boolean(false)])),
        ]);
        assert_eq!(v.node_count(), 6);
    }
}
