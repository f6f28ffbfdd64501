//! Borrowing DER reader with depth and size limits.
//!
//! [`DerReader`] is a cursor over `&[u8]` that yields typed fields in
//! order, borrowing string and byte content from the input. Every TLV
//! rule of the decoder is applied here, as each element is read: definite
//! minimal lengths that fit the input, minimal integers, BOOLEAN
//! `0x00`/`0xff`, empty NULL, valid UTF-8, the nesting bound, no high tag
//! numbers, and nothing left over when a scope is finished.
//! [`crate::decode()`] and every [`crate::DerCodec`] type are walks that
//! call these methods.

use crate::error::CodecError;
use crate::value::tag;

/// Maximum nesting depth accepted by the decoder (AJOs are recursive; this
/// bounds hostile input while being far above any real job tree).
pub const MAX_DEPTH: usize = 128;

/// A cursor over the elements of one DER scope: the whole input, or the
/// content of a constructed value.
#[derive(Debug)]
pub struct DerReader<'a> {
    /// What is left of the scope.
    rest: &'a [u8],
    depth: usize,
    context: &'static str,
}

impl<'a> DerReader<'a> {
    /// A reader over a complete input.
    pub fn new(input: &'a [u8]) -> Self {
        DerReader {
            rest: input,
            depth: 0,
            context: "DER",
        }
    }

    /// Whether every element of this scope has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Tag of the next element, if any, without consuming it.
    #[inline]
    pub fn peek_tag(&self) -> Option<u8> {
        self.rest.first().copied()
    }

    /// Consumes the element at the cursor — the caller has peeked its tag
    /// — and returns its content.
    #[inline]
    fn content(&mut self) -> Result<&'a [u8], CodecError> {
        if self.depth > MAX_DEPTH {
            return Err(CodecError::DepthExceeded);
        }
        let after_tag = self.rest.get(1..).ok_or(CodecError::UnexpectedEof)?;
        let (len, after_len) = match after_tag.split_first() {
            None => return Err(CodecError::UnexpectedEof),
            Some((&short, after)) if short < 0x80 => (short as usize, after),
            Some((&first, after)) => long_form_len(first, after)?,
        };
        // `len` comes from the input: it is compared against what is left,
        // never added to an offset and never allocated from.
        if after_len.len() < len {
            return Err(CodecError::UnexpectedEof);
        }
        let (content, rest) = after_len.split_at(len);
        self.rest = rest;
        Ok(content)
    }

    #[cold]
    fn missing(&self, what: &str) -> CodecError {
        CodecError::Structure(format!("{}: missing field ({what})", self.context))
    }

    /// Content of the next element, which must carry tag `expected`.
    #[inline]
    fn expect(&mut self, expected: u8, what: &str) -> Result<&'a [u8], CodecError> {
        match self.peek_tag() {
            Some(found) if found == expected => self.content(),
            Some(found) => Err(CodecError::UnexpectedTag { expected, found }),
            None => Err(self.missing(what)),
        }
    }

    #[inline]
    fn child(&self, content: &'a [u8], context: &'static str) -> DerReader<'a> {
        DerReader {
            rest: content,
            depth: self.depth + 1,
            context,
        }
    }

    /// Opens the next element, which must carry the constructed tag `t`,
    /// as a scope; the caller reads its elements and finishes it.
    #[inline]
    pub(crate) fn constructed(
        &mut self,
        t: u8,
        context: &'static str,
    ) -> Result<DerReader<'a>, CodecError> {
        let content = self.expect(t, context)?;
        Ok(self.child(content, context))
    }

    /// Next element as a SEQUENCE named `context` (for error messages):
    /// `read` consumes its elements, all of them.
    #[inline]
    pub fn sequence<T>(
        &mut self,
        context: &'static str,
        read: impl FnOnce(&mut DerReader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let mut seq = self.constructed(tag::SEQUENCE, context)?;
        let outcome = read(&mut seq);
        seq.finished_after(outcome)
    }

    /// Next element as a SEQUENCE OF: `element` reads one item (at least
    /// one TLV) per call until the sequence is exhausted.
    pub fn sequence_of<T>(
        &mut self,
        context: &'static str,
        mut element: impl FnMut(&mut DerReader<'a>) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        self.sequence(context, |seq| {
            let mut items = Vec::new();
            while !seq.is_empty() {
                items.push(element(seq)?);
            }
            Ok(items)
        })
    }

    /// Next element as a context-specific constructed `[n]`: `read` gets
    /// the tag number and consumes the one value it wraps.
    #[inline]
    pub fn tagged<T>(
        &mut self,
        read: impl FnOnce(u8, &mut DerReader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let t = match self.peek_tag() {
            None => return Err(self.missing("context tag")),
            Some(t) if t & 0xe0 != tag::CONTEXT_CONSTRUCTED => {
                return Err(CodecError::UnexpectedTag {
                    expected: tag::CONTEXT_CONSTRUCTED,
                    found: t,
                })
            }
            // High tag numbers are not supported.
            Some(t) if t & 0x1f == 31 => return Err(CodecError::UnknownTag(t)),
            Some(t) => t,
        };
        let content = self.content()?;
        let mut inner = self.child(content, "context tag");
        let outcome = read(t & 0x1f, &mut inner);
        inner.finished_after(outcome)
    }

    /// If the next element is `[n]`-tagged, consumes it — `read` takes the
    /// one value it wraps; otherwise leaves the cursor alone.
    #[inline]
    pub fn optional_tagged<T>(
        &mut self,
        n: u8,
        read: impl FnOnce(&mut DerReader<'a>) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        if self.peek_tag() == Some(tag::CONTEXT_CONSTRUCTED | n) {
            self.tagged(|_, inner| read(inner)).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Next element as `&str`, borrowed from the input.
    #[inline]
    pub fn next_str(&mut self) -> Result<&'a str, CodecError> {
        let content = self.expect(tag::UTF8_STRING, "UTF8String")?;
        core::str::from_utf8(content).map_err(|_| CodecError::BadValue("utf8 content"))
    }

    /// Next element as an owned `String`.
    #[inline]
    pub fn next_string(&mut self) -> Result<String, CodecError> {
        Ok(self.next_str()?.to_owned())
    }

    /// Next element as OCTET STRING content, borrowed from the input.
    #[inline]
    pub fn next_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        self.expect(tag::OCTET_STRING, "OCTET STRING")
    }

    /// Next element as `i64`.
    #[inline]
    pub fn next_i64(&mut self) -> Result<i64, CodecError> {
        parse_int(self.expect(tag::INTEGER, "INTEGER")?)
    }

    /// Next element as a non-negative INTEGER.
    #[inline]
    pub fn next_u64(&mut self) -> Result<u64, CodecError> {
        u64::try_from(self.next_i64()?).map_err(|_| CodecError::BadValue("negative integer"))
    }

    /// Next element as `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.next_u64()?).map_err(|_| CodecError::IntegerOverflow)
    }

    /// Next element as `bool`.
    #[inline]
    pub fn next_bool(&mut self) -> Result<bool, CodecError> {
        match self.expect(tag::BOOLEAN, "BOOLEAN")? {
            [0x00] => Ok(false),
            [0xff] => Ok(true),
            [_] => Err(CodecError::BadValue("boolean content")),
            _ => Err(CodecError::BadValue("boolean length")),
        }
    }

    /// Next element as an ENUMERATED discriminant.
    #[inline]
    pub fn next_enum(&mut self) -> Result<u32, CodecError> {
        let v = parse_int(self.expect(tag::ENUMERATED, "ENUMERATED")?)?;
        u32::try_from(v).map_err(|_| CodecError::BadValue("enumerated range"))
    }

    /// Next element as NULL.
    #[inline]
    pub fn next_null(&mut self) -> Result<(), CodecError> {
        if self.expect(tag::NULL, "NULL")?.is_empty() {
            Ok(())
        } else {
            Err(CodecError::BadValue("null with content"))
        }
    }

    /// The next element's exact bytes (tag, length and content), so a
    /// sub-object can be hashed or stored without re-encoding it. Only
    /// the header is checked; the content is opaque until it is decoded.
    pub fn next_raw(&mut self) -> Result<&'a [u8], CodecError> {
        if self.is_empty() {
            return Err(self.missing("value"));
        }
        let before = self.rest;
        self.content()?;
        Ok(&before[..before.len() - self.rest.len()])
    }

    /// `read`'s verdict on this scope, unless it succeeded and left
    /// elements behind. Passing the `Result` through untouched lets a
    /// large decoded value be built in the caller's return slot instead
    /// of being unwrapped, moved and rewrapped at every nesting level.
    #[inline]
    pub(crate) fn finished_after<T>(&self, read: Result<T, CodecError>) -> Result<T, CodecError> {
        if !self.rest.is_empty() && read.is_ok() {
            return Err(self.unconsumed());
        }
        read
    }

    /// Asserts the scope was consumed entirely.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(self.unconsumed())
        }
    }

    #[cold]
    fn unconsumed(&self) -> CodecError {
        let left = self.rest.len();
        if self.depth == 0 {
            CodecError::TrailingBytes(left)
        } else {
            CodecError::Structure(format!(
                "{}: {left} unconsumed trailing bytes",
                self.context
            ))
        }
    }
}

/// Decodes a long-form length whose first octet is `first`, from the
/// octets after it: the content length and what follows the length field.
fn long_form_len(first: u8, after: &[u8]) -> Result<(usize, &[u8]), CodecError> {
    let n = (first & 0x7f) as usize;
    if n == 0 || n > 8 {
        return Err(CodecError::BadLength);
    }
    if after.len() < n {
        return Err(CodecError::UnexpectedEof);
    }
    let (octets, after) = after.split_at(n);
    let len = octets.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64);
    // Leading zero octets, or long form for a short length, are not
    // canonical DER.
    if octets[0] == 0 || len < 0x80 {
        return Err(CodecError::BadLength);
    }
    let len = usize::try_from(len).map_err(|_| CodecError::BadLength)?;
    Ok((len, after))
}

/// Checks that decoded map entries arrived in strictly ascending key order
/// — the order a map is written in. Anything else (a repeated or misplaced
/// key) would collapse or move on re-encoding, so it is not canonical.
pub fn require_ascending<T, K: Ord + ?Sized>(
    entries: &[T],
    key: impl Fn(&T) -> &K,
) -> Result<(), CodecError> {
    if entries.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        Ok(())
    } else {
        Err(CodecError::BadValue("map keys not strictly ascending"))
    }
}

/// Parses canonical two's-complement content octets into an `i64`.
#[inline]
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
    let acc = content
        .iter()
        .fold(if negative { u64::MAX } else { 0 }, |acc, &b| {
            (acc << 8) | b as u64
        });
    Ok(acc as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::DerWriter;

    fn written(f: impl FnOnce(&mut DerWriter)) -> Vec<u8> {
        let mut w = DerWriter::new();
        f(&mut w);
        w.into_vec()
    }

    #[test]
    fn fields_consume_in_order() {
        let enc = written(|w| {
            w.sequence(|w| {
                w.str("name");
                w.u64(42);
                w.bool(true);
                w.bytes(&[1, 2]);
                w.enumerated(7);
                w.null();
                w.int(-9);
            })
        });
        let mut top = DerReader::new(&enc);
        top.sequence("test", |f| {
            assert_eq!(f.next_str()?, "name");
            assert_eq!(f.next_u64()?, 42);
            assert!(f.next_bool()?);
            assert_eq!(f.next_bytes()?, &[1, 2]);
            assert_eq!(f.next_enum()?, 7);
            f.next_null()?;
            assert_eq!(f.next_i64()?, -9);
            Ok(())
        })
        .unwrap();
        top.finish().unwrap();
    }

    #[test]
    fn finish_rejects_leftovers() {
        let enc = written(|w| w.sequence(|w| w.null()));
        assert!(matches!(
            DerReader::new(&enc).sequence("test", |_| Ok(())),
            Err(CodecError::Structure(_))
        ));
        // At the top level leftovers are trailing bytes.
        assert_eq!(
            DerReader::new(&enc).finish(),
            Err(CodecError::TrailingBytes(enc.len()))
        );
    }

    #[test]
    fn type_mismatch_and_eof_reported() {
        let enc = written(|w| w.sequence(|w| w.int(1)));
        DerReader::new(&enc)
            .sequence("ctx", |f| {
                assert_eq!(
                    f.next_str(),
                    Err(CodecError::UnexpectedTag {
                        expected: tag::UTF8_STRING,
                        found: tag::INTEGER
                    })
                );
                // A failed read consumes nothing.
                assert_eq!(f.next_i64()?, 1);
                assert!(matches!(f.next_i64(), Err(CodecError::Structure(_))));
                Ok(())
            })
            .unwrap();
        assert!(DerReader::new(&[0x05, 0x00])
            .sequence("ctx", |_| Ok(()))
            .is_err());
    }

    #[test]
    fn negative_and_oversized_unsigned_rejected() {
        let enc = written(|w| {
            w.int(-1);
            w.u64(u32::MAX as u64 + 1);
        });
        let mut r = DerReader::new(&enc);
        assert!(r.next_u64().is_err());
        let mut r = DerReader::new(&enc[3..]);
        assert_eq!(r.next_u32(), Err(CodecError::IntegerOverflow));
    }

    #[test]
    fn optional_tagged_consumes_only_matches() {
        let enc = written(|w| {
            w.sequence(|w| {
                w.tagged(1, |w| w.int(5));
                w.str("after");
            })
        });
        DerReader::new(&enc)
            .sequence("ctx", |f| {
                assert_eq!(f.optional_tagged(0, |t| t.next_i64())?, None);
                assert_eq!(f.optional_tagged(1, |t| t.next_i64())?, Some(5));
                assert_eq!(f.optional_tagged(1, |t| t.next_i64())?, None);
                assert_eq!(f.next_str()?, "after");
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn tagged_yields_number_and_single_value_scope() {
        let enc = written(|w| w.tagged(9, |w| w.null()));
        let n = DerReader::new(&enc)
            .tagged(|n, t| t.next_null().map(|()| n))
            .unwrap();
        assert_eq!(n, 9);
        // Two values inside one context tag: the scope does not finish.
        let two = [0xa0, 0x04, 0x05, 0x00, 0x05, 0x00];
        assert!(DerReader::new(&two).tagged(|_, t| t.next_null()).is_err());
        // High tag numbers are not supported.
        assert_eq!(
            DerReader::new(&[0xbf, 0x00]).tagged(|_, _| Ok(())),
            Err(CodecError::UnknownTag(0xbf))
        );
    }

    #[test]
    fn sequence_of_collects_until_exhausted() {
        let enc = written(|w| {
            w.sequence(|w| {
                for s in ["a", "b", "c"] {
                    w.str(s);
                }
            })
        });
        let got = DerReader::new(&enc)
            .sequence_of("names", |r| r.next_string())
            .unwrap();
        assert_eq!(got, ["a", "b", "c"]);
        let mixed = written(|w| {
            w.sequence(|w| {
                w.str("a");
                w.int(1);
            })
        });
        assert!(DerReader::new(&mixed)
            .sequence_of("names", |r| r.next_string())
            .is_err());
    }

    #[test]
    fn ascending_keys_required() {
        let ok = [("a", 1), ("b", 2), ("c", 3)];
        assert!(require_ascending(&ok, |e| e.0).is_ok());
        assert!(require_ascending(&[("a", 1), ("a", 2)], |e| e.0).is_err());
        assert!(require_ascending(&[("b", 1), ("a", 2)], |e| e.0).is_err());
        assert!(require_ascending(&ok[..1], |e| e.0).is_ok());
    }

    #[test]
    fn next_raw_is_the_exact_tlv() {
        let inner = written(|w| w.sequence(|w| w.bytes(&[3u8; 200])));
        let enc = written(|w| {
            w.sequence(|w| {
                w.int(1);
                w.sequence(|w| w.bytes(&[3u8; 200]));
                w.null();
            })
        });
        DerReader::new(&enc)
            .sequence("ctx", |f| {
                f.next_i64()?;
                assert_eq!(f.next_raw()?, &inner[..]);
                f.next_null()?;
                assert!(f.next_raw().is_err());
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn huge_claimed_length_fails_before_any_allocation() {
        // 9 bytes claiming a 2^40-byte OCTET STRING.
        let hostile = [0x04, 0x86, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xaa];
        assert_eq!(
            DerReader::new(&hostile).next_bytes(),
            Err(CodecError::UnexpectedEof)
        );
        assert_eq!(
            DerReader::new(&hostile).next_raw(),
            Err(CodecError::UnexpectedEof)
        );
    }
}
