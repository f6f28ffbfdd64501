//! Reference implementations kept verbatim as test oracles: the first
//! recursive encoder (every constructed body in its own temporary `Vec`)
//! and the tree-building decoder that `DerReader` replaced. The product
//! encoder must match the first byte for byte; the product decoder must
//! accept and reject exactly what the second does.
#![allow(dead_code)] // each test file uses one half

use unicore_codec::{tag, CodecError, Value};

/// Nesting bound the reference decoder enforced.
const MAX_DEPTH: usize = unicore_codec::MAX_DEPTH;

pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(value, &mut out);
    out
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Boolean(b) => {
            out.push(tag::BOOLEAN);
            out.push(1);
            out.push(if *b { 0xff } else { 0x00 });
        }
        Value::Integer(v) => {
            let content = int_content(*v);
            out.push(tag::INTEGER);
            push_len(out, content.len());
            out.extend_from_slice(&content);
        }
        Value::OctetString(b) => {
            out.push(tag::OCTET_STRING);
            push_len(out, b.len());
            out.extend_from_slice(b);
        }
        Value::Utf8String(s) => {
            out.push(tag::UTF8_STRING);
            push_len(out, s.len());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Null => {
            out.push(tag::NULL);
            out.push(0);
        }
        Value::Enumerated(e) => {
            let content = int_content(*e as i64);
            out.push(tag::ENUMERATED);
            push_len(out, content.len());
            out.extend_from_slice(&content);
        }
        Value::Sequence(items) => {
            let mut body = Vec::with_capacity(items.len() * 8);
            for item in items {
                encode_into(item, &mut body);
            }
            out.push(tag::SEQUENCE);
            push_len(out, body.len());
            out.extend_from_slice(&body);
        }
        Value::Set(items) => {
            let mut encoded: Vec<Vec<u8>> = items.iter().map(encode).collect();
            encoded.sort();
            let body_len: usize = encoded.iter().map(Vec::len).sum();
            out.push(tag::SET);
            push_len(out, body_len);
            for e in encoded {
                out.extend_from_slice(&e);
            }
        }
        Value::Tagged(n, inner) => {
            let body = encode(inner);
            out.push(tag::CONTEXT_CONSTRUCTED | n);
            push_len(out, body.len());
            out.extend_from_slice(&body);
        }
    }
}

fn int_content(v: i64) -> Vec<u8> {
    let bytes = v.to_be_bytes();
    let mut start = 0;
    while start < 7 {
        let cur = bytes[start];
        let next = bytes[start + 1];
        let redundant = (cur == 0x00 && next & 0x80 == 0) || (cur == 0xff && next & 0x80 != 0);
        if redundant {
            start += 1;
        } else {
            break;
        }
    }
    bytes[start..].to_vec()
}

fn push_len(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = (len as u64).to_be_bytes();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        let n = 8 - skip;
        out.push(0x80 | n as u8);
        out.extend_from_slice(&bytes[skip..]);
    }
}

/// Decodes exactly one value; trailing bytes are an error.
pub fn decode(input: &[u8]) -> Result<Value, CodecError> {
    let mut r = Reader::new(input);
    let v = r.read_value(0)?;
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(v)
}

struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Reader { input, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn read_len(&mut self) -> Result<usize, CodecError> {
        let first = self.read_u8()?;
        if first < 0x80 {
            return Ok(first as usize);
        }
        let n = (first & 0x7f) as usize;
        if n == 0 || n > 8 {
            return Err(CodecError::BadLength);
        }
        let bytes = self.take(n)?;
        if bytes[0] == 0 {
            // Non-minimal length encoding is not canonical DER.
            return Err(CodecError::BadLength);
        }
        let mut len = 0u64;
        for &b in bytes {
            len = (len << 8) | b as u64;
        }
        if len < 0x80 {
            return Err(CodecError::BadLength);
        }
        usize::try_from(len).map_err(|_| CodecError::BadLength)
    }

    fn read_value(&mut self, depth: usize) -> Result<Value, CodecError> {
        if depth > MAX_DEPTH {
            return Err(CodecError::DepthExceeded);
        }
        let t = self.read_u8()?;
        let len = self.read_len()?;
        let content = self.take(len)?;
        match t {
            tag::BOOLEAN => {
                if content.len() != 1 {
                    return Err(CodecError::BadValue("boolean length"));
                }
                match content[0] {
                    0x00 => Ok(Value::Boolean(false)),
                    0xff => Ok(Value::Boolean(true)),
                    _ => Err(CodecError::BadValue("boolean content")),
                }
            }
            tag::INTEGER => Ok(Value::Integer(parse_int(content)?)),
            tag::ENUMERATED => {
                let v = parse_int(content)?;
                u32::try_from(v)
                    .map(Value::Enumerated)
                    .map_err(|_| CodecError::BadValue("enumerated range"))
            }
            tag::OCTET_STRING => Ok(Value::OctetString(content.to_vec())),
            tag::UTF8_STRING => String::from_utf8(content.to_vec())
                .map(Value::Utf8String)
                .map_err(|_| CodecError::BadValue("utf8 content")),
            tag::NULL => {
                if content.is_empty() {
                    Ok(Value::Null)
                } else {
                    Err(CodecError::BadValue("null with content"))
                }
            }
            tag::SEQUENCE | tag::SET => {
                let mut inner = Reader::new(content);
                let mut items = Vec::new();
                while !inner.is_empty() {
                    items.push(inner.read_value(depth + 1)?);
                }
                if t == tag::SEQUENCE {
                    Ok(Value::Sequence(items))
                } else {
                    Ok(Value::Set(items))
                }
            }
            t if t & 0xe0 == tag::CONTEXT_CONSTRUCTED => {
                let n = t & 0x1f;
                if n >= 31 {
                    return Err(CodecError::UnknownTag(t));
                }
                let mut inner = Reader::new(content);
                let v = inner.read_value(depth + 1)?;
                if !inner.is_empty() {
                    return Err(CodecError::BadValue("multiple values in context tag"));
                }
                Ok(Value::Tagged(n, Box::new(v)))
            }
            other => Err(CodecError::UnknownTag(other)),
        }
    }
}

/// Parses canonical two's-complement content octets into an `i64`.
fn parse_int(content: &[u8]) -> Result<i64, CodecError> {
    if content.is_empty() {
        return Err(CodecError::BadValue("empty integer"));
    }
    if content.len() > 1 {
        let redundant = (content[0] == 0x00 && content[1] & 0x80 == 0)
            || (content[0] == 0xff && content[1] & 0x80 != 0);
        if redundant {
            return Err(CodecError::BadValue("non-minimal integer"));
        }
    }
    if content.len() > 8 {
        return Err(CodecError::IntegerOverflow);
    }
    let negative = content[0] & 0x80 != 0;
    let mut acc: u64 = if negative { u64::MAX } else { 0 };
    for &b in content {
        acc = (acc << 8) | b as u64;
    }
    Ok(acc as i64)
}
