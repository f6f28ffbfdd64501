//! One-pass canonical DER emission.
//!
//! [`DerWriter`] appends TLVs to a single `Vec<u8>`. Leaves know their
//! length up front and are written directly. A constructed value
//! (`sequence`, `tagged`, `octets_of`, `set_of`) writes its tag and one
//! reserved length octet, lets the caller write the body, then patches
//! the length: a body under 128 bytes needs exactly the reserved octet;
//! a longer one needs long-form length octets spliced in front of it.
//! Those are recorded as owed and spliced in by one backward pass when
//! the buffer is taken — however deep a large payload is nested, it is
//! written once and moved once. Nothing is sized ahead of time and no
//! body is ever built in a temporary.
//!
//! Every TLV rule of the encoder lives here; [`crate::encode()`] and every
//! [`crate::DerCodec`] type are walks that call these methods.

use crate::value::tag;

/// Initial capacity of a writer made by [`DerWriter::new`]: most protocol
/// messages (envelopes, journal events) fit without regrowing.
const INITIAL_CAPACITY: usize = 256;

/// An append-only canonical DER emitter over one output buffer.
#[derive(Debug, Default)]
pub struct DerWriter {
    out: Vec<u8>,
    /// Long-form lengths still to be spliced in, ascending by position:
    /// the index in `out` their octets go before, and the content length.
    /// The octet before that index already holds `0x80 | count`.
    owed: Vec<(usize, usize)>,
    /// Total length octets `owed` will add.
    owed_octets: usize,
}

impl DerWriter {
    /// A writer over a fresh buffer.
    pub fn new() -> Self {
        Self::from_vec(Vec::with_capacity(INITIAL_CAPACITY))
    }

    /// Appends what `write` emits to `out`, which may already hold bytes
    /// (a reused buffer, a record header the encoding goes behind). The
    /// writer keeps its long-form bookkeeping for the next call: a caller
    /// that encodes many values into its own buffers (a journal batch,
    /// record after record, frame after frame) allocates that once
    /// instead of once per long value.
    pub fn append_into(&mut self, out: &mut Vec<u8>, write: impl FnOnce(&mut DerWriter)) {
        debug_assert!(self.out.is_empty() && self.owed.is_empty());
        std::mem::swap(&mut self.out, out);
        write(self);
        self.splice_owed_from(0);
        std::mem::swap(&mut self.out, out);
    }

    fn from_vec(out: Vec<u8>) -> Self {
        DerWriter {
            out,
            owed: Vec::new(),
            owed_octets: 0,
        }
    }

    /// The buffer, with everything written so far.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.splice_owed_from(0);
        self.out
    }

    /// Makes room for `additional` more bytes, so a caller about to write
    /// a large body it knows the size of gets one allocation instead of
    /// the buffer growing under it.
    pub fn reserve(&mut self, additional: usize) {
        self.out.reserve(additional);
    }

    /// BOOLEAN.
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(&[tag::BOOLEAN, 1, if b { 0xff } else { 0x00 }]);
    }

    /// INTEGER (minimal two's complement).
    pub fn int(&mut self, v: i64) {
        self.int_tlv(tag::INTEGER, v);
    }

    /// INTEGER from an unsigned quantity. The DER value model is `i64`, so
    /// this writes `v as i64`; ids and counters stay far below `i64::MAX`
    /// (a larger value reads back as out of range, not as a wrong number).
    pub fn u64(&mut self, v: u64) {
        self.int_tlv(tag::INTEGER, v as i64);
    }

    /// ENUMERATED.
    pub fn enumerated(&mut self, e: u32) {
        self.int_tlv(tag::ENUMERATED, e as i64);
    }

    /// UTF8String.
    pub fn str(&mut self, s: &str) {
        self.leaf(tag::UTF8_STRING, s.as_bytes());
    }

    /// UTF8String of `parts` one after another: a joined name written
    /// without joining it first.
    pub fn str_concat(&mut self, parts: &[&str]) {
        self.header(tag::UTF8_STRING, parts.iter().map(|p| p.len()).sum());
        for part in parts {
            self.out.extend_from_slice(part.as_bytes());
        }
    }

    /// OCTET STRING.
    pub fn bytes(&mut self, b: &[u8]) {
        self.leaf(tag::OCTET_STRING, b);
    }

    /// A value encoded earlier, appended as it is: `der` must be whole
    /// TLVs — the bytes [`crate::DerReader::next_raw`] returns, or a
    /// [`crate::DerCodec::to_der`] — so a stored encoding is framed again
    /// without being decoded or re-encoded.
    pub fn raw(&mut self, der: &[u8]) {
        self.out.extend_from_slice(der);
    }

    /// NULL.
    pub fn null(&mut self) {
        self.out.extend_from_slice(&[tag::NULL, 0]);
    }

    /// SEQUENCE whose elements `body` writes.
    pub fn sequence(&mut self, body: impl FnOnce(&mut DerWriter)) {
        self.constructed(tag::SEQUENCE, body);
    }

    /// SEQUENCE OF: `element` writes one item per call.
    pub fn sequence_of<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut DerWriter, T),
    ) {
        self.sequence(|w| {
            for item in items {
                element(w, item);
            }
        });
    }

    /// Context-specific constructed `[n]` around the one value `body`
    /// writes.
    pub fn tagged(&mut self, n: u8, body: impl FnOnce(&mut DerWriter)) {
        debug_assert!(n < 31, "high tag numbers unsupported");
        self.constructed(tag::CONTEXT_CONSTRUCTED | n, body);
    }

    /// OCTET STRING whose content is the encoding `body` writes — nests an
    /// encoded object as opaque bytes without a temporary buffer.
    pub fn octets_of(&mut self, body: impl FnOnce(&mut DerWriter)) {
        self.constructed(tag::OCTET_STRING, body);
    }

    /// SET OF: `element` writes exactly one TLV per item; the elements are
    /// then put in canonical order (ascending encoded bytes) in place.
    pub(crate) fn set_of<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut element: impl FnMut(&mut DerWriter, T),
    ) {
        self.constructed(tag::SET, |w| {
            let body_start = w.out.len();
            let first_owed = w.owed.len();
            let mut ends = Vec::new();
            for item in items {
                element(w, item);
                // Sorting compares final bytes: settle this element now.
                w.splice_owed_from(first_owed);
                ends.push(w.out.len());
            }
            sort_set_body(&mut w.out, body_start, &ends);
        });
    }

    fn leaf(&mut self, t: u8, content: &[u8]) {
        self.header(t, content.len());
        self.out.extend_from_slice(content);
    }

    /// The tag and length octets of a primitive value of `len` bytes.
    fn header(&mut self, t: u8, len: usize) {
        self.out.push(t);
        if len < 0x80 {
            self.out.push(len as u8);
        } else {
            let (bytes, skip) = len_bytes(len);
            self.out.push(0x80 | (8 - skip) as u8);
            self.out.extend_from_slice(&bytes[skip..]);
        }
    }

    fn int_tlv(&mut self, t: u8, v: i64) {
        let (bytes, start) = int_content(v);
        self.out.push(t);
        self.out.push((8 - start) as u8);
        self.out.extend_from_slice(&bytes[start..]);
    }

    fn constructed(&mut self, t: u8, body: impl FnOnce(&mut DerWriter)) {
        self.out.extend_from_slice(&[t, 0]);
        let start = self.out.len();
        let first_owed = self.owed.len();
        let octets_before = self.owed_octets;
        body(self);
        let len = self.out.len() - start + (self.owed_octets - octets_before);
        if len < 0x80 {
            self.out[start - 1] = len as u8;
            return;
        }
        // Long form: the reserved octet becomes the octet count and the
        // length octets go between it and the body.
        let n = 8 - len_bytes(len).1;
        self.out[start - 1] = 0x80 | n as u8;
        // Long children inside this body come after it in the buffer, so
        // this entry goes before theirs.
        self.owed.insert(first_owed, (start, len));
        self.owed_octets += n;
    }

    /// Splices in the length octets owed from entry `first` on — all of
    /// which lie behind every earlier entry — walking backwards so each
    /// byte moves once, straight to its final place.
    fn splice_owed_from(&mut self, first: usize) {
        let extra: usize = self.owed[first..]
            .iter()
            .map(|&(_, len)| 8 - len_bytes(len).1)
            .sum();
        let mut src_end = self.out.len();
        let mut dst_end = src_end + extra;
        self.out.resize(dst_end, 0);
        for (start, len) in self.owed.drain(first..).rev() {
            dst_end = place_len(&mut self.out, start, src_end, dst_end, len);
            src_end = start;
        }
        debug_assert_eq!(src_end, dst_end);
        self.owed_octets -= extra;
    }
}

/// Moves `out[start..src_end]` so it ends at `dst_end` and writes the
/// long-form octets of `len` in front of it; returns where they begin.
fn place_len(out: &mut [u8], start: usize, src_end: usize, dst_end: usize, len: usize) -> usize {
    let (bytes, skip) = len_bytes(len);
    let body_at = dst_end - (src_end - start);
    out.copy_within(start..src_end, body_at);
    let len_at = body_at - (8 - skip);
    out[len_at..body_at].copy_from_slice(&bytes[skip..]);
    len_at
}

/// Big-endian octets of a long-form length and how many leading zero
/// octets to skip.
fn len_bytes(len: usize) -> ([u8; 8], usize) {
    let v = len as u64;
    (v.to_be_bytes(), (v.leading_zeros() / 8) as usize)
}

/// Minimal two's-complement content octets for an integer: the big-endian
/// bytes of `v` and the index its minimal encoding starts at.
pub(crate) fn int_content(v: i64) -> ([u8; 8], usize) {
    // Leading octets are redundant while they repeat the sign bit of the
    // octet after them: nine identical leading bits make one spare octet.
    let sign_run = if v < 0 {
        v.leading_ones()
    } else {
        v.leading_zeros()
    };
    (v.to_be_bytes(), ((sign_run - 1) / 8) as usize)
}

/// Canonical DER: SET-OF elements sorted by encoded bytes. Elements are
/// emitted in declaration order at `out[body_start..]` with element
/// boundaries at `ends`; reorder them in place if they are not already
/// sorted (the common case pays only the comparison scan).
fn sort_set_body(out: &mut Vec<u8>, body_start: usize, ends: &[usize]) {
    let range = |i: usize| (if i == 0 { body_start } else { ends[i - 1] }, ends[i]);
    let sorted = (1..ends.len()).all(|i| {
        let (ps, pe) = range(i - 1);
        let (s, e) = range(i);
        out[ps..pe] <= out[s..e]
    });
    if sorted {
        return;
    }
    let body = out[body_start..].to_vec();
    let mut order: Vec<usize> = (0..ends.len()).collect();
    order.sort_by(|&a, &b| {
        let (sa, ea) = range(a);
        let (sb, eb) = range(b);
        body[sa - body_start..ea - body_start].cmp(&body[sb - body_start..eb - body_start])
    });
    out.truncate(body_start);
    for i in order {
        let (s, e) = range(i);
        out.extend_from_slice(&body[s - body_start..e - body_start]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(&mut DerWriter)) -> Vec<u8> {
        let mut w = DerWriter::new();
        f(&mut w);
        w.into_vec()
    }

    #[test]
    fn leaves() {
        assert_eq!(written(|w| w.bool(true)), [0x01, 0x01, 0xff]);
        assert_eq!(written(|w| w.bool(false)), [0x01, 0x01, 0x00]);
        assert_eq!(written(|w| w.null()), [0x05, 0x00]);
        assert_eq!(written(|w| w.str("hi")), [0x0c, 0x02, b'h', b'i']);
        assert_eq!(written(|w| w.bytes(&[9, 8])), [0x04, 0x02, 9, 8]);
        assert_eq!(written(|w| w.enumerated(200)), [0x0a, 0x02, 0x00, 0xc8]);
    }

    #[test]
    fn a_raw_value_is_framed_as_the_value_it_encodes() {
        for len in [0, 5, 127, 128, 300, 70_000] {
            let payload = vec![7u8; len];
            let der = written(|w| w.bytes(&payload));
            let around = |w: &mut DerWriter, value: &dyn Fn(&mut DerWriter)| {
                w.tagged(1, |w| {
                    w.sequence(|w| {
                        w.u64(9);
                        value(w);
                        w.bool(true);
                    })
                })
            };
            let direct = written(|w| around(w, &|w| w.bytes(&payload)));
            let framed = written(|w| around(w, &|w| w.raw(&der)));
            assert_eq!(framed, direct, "{len}");
        }
    }

    #[test]
    fn integers_are_minimal() {
        for (v, enc) in [
            (0i64, &[0x02, 0x01, 0x00][..]),
            (127, &[0x02, 0x01, 0x7f]),
            (128, &[0x02, 0x02, 0x00, 0x80]),
            (256, &[0x02, 0x02, 0x01, 0x00]),
            (-1, &[0x02, 0x01, 0xff]),
            (-128, &[0x02, 0x01, 0x80]),
            (-129, &[0x02, 0x02, 0xff, 0x7f]),
        ] {
            assert_eq!(written(|w| w.int(v)), enc, "{v}");
        }
        assert_eq!(written(|w| w.int(i64::MAX)).len(), 10);
        assert_eq!(written(|w| w.int(i64::MIN)).len(), 10);
        // An unsigned value above i64::MAX is written as its i64 cast.
        assert_eq!(written(|w| w.u64(u64::MAX)), written(|w| w.int(-1)));
    }

    #[test]
    fn short_body_uses_the_reserved_octet() {
        let enc = written(|w| {
            w.sequence(|w| {
                w.int(1);
                w.bool(true);
            })
        });
        assert_eq!(enc, [0x30, 0x06, 0x02, 0x01, 0x01, 0x01, 0x01, 0xff]);
    }

    #[test]
    fn long_bodies_get_long_form_lengths_at_every_level() {
        // 127 content bytes stay short form, 128 switch to 0x81, 256 to 0x82.
        for (n, header) in [
            (125usize, &[0x30, 0x7f][..]),
            (126, &[0x30, 0x81, 0x80]),
            (252, &[0x30, 0x81, 0xff]),
            (253, &[0x30, 0x82, 0x01, 0x00]),
        ] {
            let payload = vec![0xabu8; n];
            let enc = written(|w| w.sequence(|w| w.bytes(&payload)));
            assert_eq!(&enc[..header.len()], header, "payload {n}");
            assert_eq!(&enc[enc.len() - n..], &payload[..]);
        }
        // Nested long bodies: every level patches its own length.
        let payload = vec![7u8; 300];
        let enc = written(|w| w.tagged(2, |w| w.sequence(|w| w.bytes(&payload))));
        assert_eq!(
            &enc[..12],
            &[0xa2, 0x82, 0x01, 0x34, 0x30, 0x82, 0x01, 0x30, 0x04, 0x82, 0x01, 0x2c]
        );
        assert_eq!(enc.len(), 4 + 4 + 4 + 300);
    }

    #[test]
    fn long_siblings_and_nested_long_bodies_decode_back() {
        use crate::value::Value;
        let big = vec![9u8; 5000];
        let small = vec![1u8; 200];
        let enc = written(|w| {
            w.sequence(|w| {
                w.sequence(|w| w.bytes(&small));
                w.tagged(1, |w| w.sequence(|w| w.bytes(&big)));
                w.set_of([&big, &small], |w, b| w.bytes(b));
                w.sequence(|w| w.bytes(&small));
            })
        });
        let small_seq = Value::Sequence(vec![Value::bytes(small.clone())]);
        assert_eq!(
            crate::decode(&enc).unwrap(),
            Value::Sequence(vec![
                small_seq.clone(),
                Value::tagged(1, Value::Sequence(vec![Value::bytes(big.clone())])),
                Value::Set(vec![Value::bytes(small), Value::bytes(big)]),
                small_seq,
            ])
        );
    }

    #[test]
    fn octets_of_nests_an_encoding() {
        let inner = written(|w| w.sequence(|w| w.str("x")));
        let enc = written(|w| w.octets_of(|w| w.sequence(|w| w.str("x"))));
        assert_eq!(enc, written(|w| w.bytes(&inner)));
    }

    #[test]
    fn set_of_sorts_by_encoded_bytes() {
        let enc = written(|w| w.set_of([2i64, 1], |w, v| w.int(v)));
        assert_eq!(enc, [0x31, 0x06, 0x02, 0x01, 0x01, 0x02, 0x01, 0x02]);
    }

    #[test]
    fn str_concat_is_the_joined_string() {
        for parts in [&["V0", ":", "batch"][..], &[], &["x"; 130]] {
            let joined: String = parts.concat();
            assert_eq!(
                written(|w| w.str_concat(parts)),
                written(|w| w.str(&joined))
            );
        }
    }

    #[test]
    fn a_reused_writer_keeps_its_bookkeeping_and_writes_the_same_bytes() {
        let payload = vec![3u8; 300];
        let write = |w: &mut DerWriter| w.tagged(1, |w| w.sequence(|w| w.bytes(&payload)));
        let mut w = DerWriter::default();
        let mut out = vec![0xee];
        w.append_into(&mut out, write);
        let owed = w.owed.capacity();
        assert!(owed >= 3);
        w.append_into(&mut out, write);
        assert_eq!(w.owed.capacity(), owed);
        let once = written(write);
        assert_eq!(out, [&[0xee][..], &once, &once].concat());
    }

    #[test]
    fn appends_behind_existing_bytes() {
        let mut out = vec![0xde, 0xad];
        let payload = vec![1u8; 200];
        DerWriter::default().append_into(&mut out, |w| w.sequence(|w| w.bytes(&payload)));
        assert_eq!(&out[..2], &[0xde, 0xad]);
        assert_eq!(&out[2..5], &[0x30, 0x81, 0xcb]);
        assert_eq!(out.len(), 2 + 3 + 3 + 200);
    }
}
