//! The [`DerCodec`] trait implemented by every wire-transferable UNICORE
//! structure.

use crate::error::CodecError;
use crate::reader::DerReader;
use crate::writer::DerWriter;

/// Types with a canonical DER wire form.
///
/// Everything UNICORE puts on the network or on disk (certificates, resource
/// pages, AJOs, outcomes) implements this. A type writes itself as exactly
/// one TLV and reads itself back from the next element of a reader.
pub trait DerCodec: Sized {
    /// Appends this value's one TLV to `w`.
    fn write_der(&self, w: &mut DerWriter);

    /// Reads one value from the next element of `r`.
    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError>;

    /// Serialises to DER bytes.
    fn to_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        self.write_der(&mut w);
        w.into_vec()
    }

    /// Appends the DER bytes to `out`, so a caller can reuse one buffer or
    /// encode behind a header it has already written.
    fn to_der_into(&self, out: &mut Vec<u8>) {
        DerWriter::append_to(out, |w| self.write_der(w));
    }

    /// Parses from DER bytes; trailing bytes are an error.
    fn from_der(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = DerReader::new(bytes);
        let outcome = Self::read_der(&mut r);
        r.finished_after(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Point {
        x: i64,
        y: i64,
    }

    impl DerCodec for Point {
        fn write_der(&self, w: &mut DerWriter) {
            w.sequence(|w| {
                w.int(self.x);
                w.int(self.y);
            });
        }
        fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
            r.sequence("Point", |f| {
                Ok(Point {
                    x: f.next_i64()?,
                    y: f.next_i64()?,
                })
            })
        }
    }

    #[test]
    fn der_codec_round_trip() {
        let p = Point { x: -3, y: 900 };
        assert_eq!(Point::from_der(&p.to_der()).unwrap(), p);
    }

    #[test]
    fn to_der_into_appends() {
        let p = Point { x: 1, y: 2 };
        let mut buf = vec![0xaa];
        p.to_der_into(&mut buf);
        assert_eq!(buf[0], 0xaa);
        assert_eq!(&buf[1..], &p.to_der()[..]);
    }

    #[test]
    fn from_der_rejects_trailing_bytes() {
        let mut der = Point { x: 1, y: 2 }.to_der();
        der.push(0);
        assert_eq!(Point::from_der(&der), Err(CodecError::TrailingBytes(1)));
    }
}
