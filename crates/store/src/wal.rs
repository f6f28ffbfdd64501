//! Record framing and segment scanning for the write-ahead log.
//!
//! Each record on disk is `[u32 BE payload length][u32 BE CRC-32 of the
//! payload][payload]`. The payload is the canonical DER of one
//! [`crate::StoreEvent`]. A crash during `append` leaves a *torn tail*:
//! a partial header, or a full header with a short or CRC-failing
//! payload. Scanning distinguishes the two situations a damaged record
//! can mean:
//!
//! * at the tail of the **newest** segment it is the expected residue of
//!   a crash — scanning stops there and reports `torn = true`;
//! * anywhere else it is real corruption and must surface as an error,
//!   because silently dropping records would resurrect lost jobs as
//!   duplicates or vanish completed ones.

use crate::crc::crc32;
use crate::error::StoreError;

/// Bytes of framing before each record payload (length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;

/// Frames `payload` as one WAL record.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    encode_record_with(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Frames one record at the end of `out` whose payload `write` appends in
/// place: the header is reserved first and its length and CRC filled in
/// over the finished payload, so the payload is never copied — a
/// group-committed batch accumulates all its frames in one buffer for one
/// backend write.
pub(crate) fn encode_record_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER_LEN]);
    write(out);
    let (head, payload) = out[header..].split_at_mut(RECORD_HEADER_LEN);
    head[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_be_bytes());
}

/// What decoding one record frame yielded.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, CRC-verified record; `consumed` covers header + payload.
    Record {
        /// The verified payload bytes.
        payload: &'a [u8],
        /// Total frame length consumed from the buffer.
        consumed: usize,
    },
    /// The buffer ends before the record does (torn write).
    Incomplete,
    /// The record is complete but its CRC does not match.
    BadCrc {
        /// CRC stored in the frame header.
        stored: u32,
        /// CRC computed over the payload actually on disk.
        computed: u32,
    },
}

/// Decodes the record frame at the start of `buf`.
///
/// An empty buffer is `Incomplete` (a clean end of segment looks the same
/// as a torn one to this layer; the scanner tells them apart by offset).
pub fn decode_record(buf: &[u8]) -> Decoded<'_> {
    if buf.len() < RECORD_HEADER_LEN {
        return Decoded::Incomplete;
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let stored = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let end = RECORD_HEADER_LEN + len;
    if buf.len() < end {
        return Decoded::Incomplete;
    }
    let payload = &buf[RECORD_HEADER_LEN..end];
    let computed = crc32(payload);
    if computed != stored {
        return Decoded::BadCrc { stored, computed };
    }
    Decoded::Record {
        payload,
        consumed: end,
    }
}

/// The payloads recovered from one segment, borrowed from its bytes.
#[derive(Debug)]
pub(crate) struct SegmentScan<'a> {
    /// Verified record payloads, in append order.
    pub payloads: Vec<&'a [u8]>,
    /// Whether the segment ended in a torn or corrupt record.
    pub torn: bool,
}

/// Scans a whole segment.
///
/// `allow_torn_tail` is true only for the newest segment: damage there is
/// treated as the crash residue and scanning stops cleanly. In any older
/// segment (or a snapshot) damage is a hard [`StoreError::Corrupt`].
pub(crate) fn scan_segment<'a>(
    name: &str,
    data: &'a [u8],
    allow_torn_tail: bool,
) -> Result<SegmentScan<'a>, StoreError> {
    let mut payloads = Vec::new();
    let mut offset = 0;
    while offset < data.len() {
        match decode_record(&data[offset..]) {
            Decoded::Record { payload, consumed } => {
                payloads.push(payload);
                offset += consumed;
            }
            Decoded::Incomplete => {
                if allow_torn_tail {
                    return Ok(SegmentScan {
                        payloads,
                        torn: true,
                    });
                }
                return Err(StoreError::Corrupt {
                    segment: name.to_owned(),
                    offset,
                    reason: "truncated record".into(),
                });
            }
            Decoded::BadCrc { stored, computed } => {
                if allow_torn_tail {
                    return Ok(SegmentScan {
                        payloads,
                        torn: true,
                    });
                }
                return Err(StoreError::Corrupt {
                    segment: name.to_owned(),
                    offset,
                    reason: format!("crc mismatch: stored {stored:08x}, computed {computed:08x}"),
                });
            }
        }
    }
    Ok(SegmentScan {
        payloads,
        torn: false,
    })
}

/// Formats the name of log segment `seq`.
pub(crate) fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

/// Formats the name of the snapshot covering segments `< seq`.
pub(crate) fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:08}.der")
}

/// Parses a blob name as a log segment, yielding its sequence number.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Parses a blob name as a snapshot, yielding its sequence number.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".der")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let rec = encode_record(b"payload");
        assert_eq!(rec.len(), RECORD_HEADER_LEN + 7);
        match decode_record(&rec) {
            Decoded::Record { payload, consumed } => {
                assert_eq!(payload, b"payload");
                assert_eq!(consumed, rec.len());
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn truncation_detected() {
        let rec = encode_record(b"payload");
        for cut in 0..rec.len() {
            assert_eq!(decode_record(&rec[..cut]), Decoded::Incomplete, "cut {cut}");
        }
    }

    #[test]
    fn corruption_detected() {
        let mut rec = encode_record(b"payload");
        let last = rec.len() - 1;
        rec[last] ^= 0xff;
        assert!(matches!(decode_record(&rec), Decoded::BadCrc { .. }));
    }

    #[test]
    fn scan_stops_at_torn_tail_when_allowed() {
        let mut seg = encode_record(b"one");
        seg.extend(encode_record(b"two"));
        let full = seg.len();
        seg.extend(&encode_record(b"three")[..5]);
        let scan = scan_segment("wal-00000000.seg", &seg, true).unwrap();
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(scan.torn);
        // Same damage in an old segment is corruption.
        let err = scan_segment("wal-00000000.seg", &seg, false).unwrap_err();
        match err {
            StoreError::Corrupt { offset, .. } => assert_eq!(offset, full),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn clean_segment_not_torn() {
        let mut seg = encode_record(b"one");
        seg.extend(encode_record(b"two"));
        let scan = scan_segment("s", &seg, true).unwrap();
        assert!(!scan.torn);
        assert_eq!(scan.payloads.len(), 2);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_name(3), "wal-00000003.seg");
        assert_eq!(parse_segment_name("wal-00000003.seg"), Some(3));
        assert_eq!(snapshot_name(12), "snap-00000012.der");
        assert_eq!(parse_snapshot_name("snap-00000012.der"), Some(12));
        assert_eq!(parse_segment_name("snap-00000012.der"), None);
        assert_eq!(parse_snapshot_name("wal-00000003.seg"), None);
        assert_eq!(parse_segment_name("other.txt"), None);
    }
}
