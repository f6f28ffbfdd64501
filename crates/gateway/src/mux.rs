//! Poll multiplexing: many logical channels over one sealed connection.
//!
//! A JMC polling dozens of jobs used to open (or at least round-trip) one
//! sealed exchange per job. With multiplexing, each job's poll rides a
//! [`MuxFrame`] carrying a per-channel flow id, the frames of one poll
//! sweep travel in a single batched record (one HMAC + one ChaCha20 pass
//! for the whole sweep — see `unicore_transport::SecureChannel::
//! send_frames`), and the responses come back tagged with the same flow
//! ids so the client can fan them back out to per-job state.

use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// One multiplexed frame: a logical-channel id plus an opaque payload
/// (typically a DER-encoded Envelope).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxFrame {
    /// Logical channel ("flow") id, allocated by the client.
    pub flow: u64,
    /// The frame body.
    pub payload: Vec<u8>,
}

impl MuxFrame {
    /// A frame on `flow` carrying `payload`.
    pub fn new(flow: u64, payload: Vec<u8>) -> Self {
        MuxFrame { flow, payload }
    }
}

impl DerCodec for MuxFrame {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.flow);
            w.bytes(&self.payload);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("MuxFrame", |f| {
            Ok(MuxFrame {
                flow: f.next_u64()?,
                payload: f.next_bytes()?.to_vec(),
            })
        })
    }
}

/// Encodes a sweep of frames for `SecureChannel::send_frames`.
pub fn encode_frames(frames: &[MuxFrame]) -> Vec<Vec<u8>> {
    frames.iter().map(|f| f.to_der()).collect()
}

/// Decodes the frames of one received batch. Any malformed frame fails
/// the whole batch — a sealed record is all-or-nothing anyway.
pub fn decode_frames(raw: &[Vec<u8>]) -> Result<Vec<MuxFrame>, CodecError> {
    raw.iter().map(|b| MuxFrame::from_der(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let f = MuxFrame::new(42, b"poll body".to_vec());
        assert_eq!(MuxFrame::from_der(&f.to_der()).unwrap(), f);
    }

    #[test]
    fn sweep_round_trip() {
        let sweep = vec![
            MuxFrame::new(1, b"a".to_vec()),
            MuxFrame::new(2, Vec::new()),
            MuxFrame::new(u64::MAX >> 1, vec![0u8; 300]),
        ];
        let wire = encode_frames(&sweep);
        assert_eq!(decode_frames(&wire).unwrap(), sweep);
    }

    #[test]
    fn malformed_frame_rejected() {
        let mut wire = encode_frames(&[MuxFrame::new(1, b"ok".to_vec())]);
        wire.push(b"junk".to_vec());
        assert!(decode_frames(&wire).is_err());
    }
}
