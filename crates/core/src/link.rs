//! The federation's link layer: what one network message is.
//!
//! Everything one node sends another in one tick of the federation leaves
//! as one **record**: the `u32 length | frame` list the live path already
//! seals as `RecordType::Batch` ([`RecordKeys::seal_frames_into`]) —
//! always, also for a single frame. Senders append frames to an
//! [`Outbox`]; the federation flushes it to the network at the end of
//! every tick, one message per `(src, dst)` pair. Receivers walk a record
//! with [`frames_of`] and hand each frame to the per-envelope path, so the
//! reliability layer above (sequence stamps, reply cache, retry timers,
//! circuit breaker) never learns that envelopes shared a message: a lost
//! or duplicated record is N lost or duplicated envelopes.
//!
//! Nothing here knows the simulated network, so all of it is tested
//! without one.

use unicore_simnet::NodeId;
use unicore_transport::{RecordKeys, TransportError};

/// The size at which a record closes. A receiver sees a record's first
/// frame only after its last byte has crossed the link, so an unbounded
/// record would turn a transfer window of 64 KiB chunks into one message
/// whose first chunk arrives with its last (on `transfer_stream` that cut
/// simulated goodput by a sixth). 32 KiB is well above a tick's worth of
/// polls, consigns and acks to one peer, and below one chunk: a frame
/// larger than the bound travels alone.
pub(crate) const RECORD_BOUND: usize = 32 * 1024;

/// Octets of the length that precedes each frame.
const LEN: usize = 4;

/// Delivered record buffers an outbox keeps for later records: enough for
/// the records of a tick between two sites and the workstation. Kept
/// sweep lists are bounded alike.
const SPARES: usize = 8;

/// The largest buffer capacity kept as a spare. A record closes once it
/// reaches [`RECORD_BOUND`], so its buffer ends below twice that unless a
/// frame above the bound travels in it: a transfer's 64 KiB chunk is
/// dropped after delivery, never kept.
const SPARE_CAP: usize = 2 * RECORD_BOUND;

/// Frames waiting for the end of the tick, packed into records as they
/// are written.
#[derive(Debug, Default)]
pub struct Outbox {
    /// `(src, dst, records)` in first-use order of the pair. A pair's
    /// last record is its open one until it reaches [`RECORD_BOUND`].
    pairs: Vec<(NodeId, NodeId, Vec<Vec<u8>>)>,
    /// Empty record lists of pairs flushed before, for the next pairs.
    lists: Vec<Vec<Vec<u8>>>,
    /// Empty buffers of delivered records ([`recycle`](Self::recycle)),
    /// none above [`SPARE_CAP`]: a record opens in one of these before a
    /// new buffer is allocated.
    spares: Spares<u8, SPARE_CAP>,
}

/// Emptied lists kept for reuse: at most [`SPARES`], none with room for
/// more than `CAP` items, so a list that once held an outsized load is
/// dropped rather than kept.
#[derive(Debug)]
pub(crate) struct Spares<T, const CAP: usize>(Vec<Vec<T>>);

impl<T, const CAP: usize> Default for Spares<T, CAP> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

impl<T, const CAP: usize> Spares<T, CAP> {
    /// A kept list, or a new one.
    pub(crate) fn take(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Keeps `list` emptied, unless [`SPARES`] are kept already or its
    /// capacity is above `CAP` (or nothing), when it is dropped.
    pub(crate) fn give(&mut self, mut list: Vec<T>) {
        if self.0.len() < SPARES && (1..=CAP).contains(&list.capacity()) {
            list.clear();
            self.0.push(list);
        }
    }

    /// The lists kept, for tests.
    #[cfg(test)]
    pub(crate) fn kept(&self) -> &[Vec<T>] {
        &self.0
    }
}

impl Outbox {
    /// Appends the frame `write` emits to the `src → dst` record and
    /// returns it. The frame is encoded in the record's own buffer: what
    /// [`flush`](Self::flush) hands to the network is that buffer, so a
    /// frame that travels alone is never copied on its way out.
    ///
    /// `write` must emit at least one octet — [`frames_of`] reads a list
    /// that opens with an empty frame as first-contact padding.
    pub fn push(&mut self, src: NodeId, dst: NodeId, write: impl FnOnce(&mut Vec<u8>)) -> &[u8] {
        let at = self
            .pairs
            .iter()
            .position(|&(s, d, _)| (s, d) == (src, dst))
            .unwrap_or_else(|| {
                let records = self.lists.pop().unwrap_or_default();
                self.pairs.push((src, dst, records));
                self.pairs.len() - 1
            });
        let records = &mut self.pairs[at].2;
        if records.last().is_none_or(|open| open.len() >= RECORD_BOUND) {
            records.push(self.spares.take());
        }
        let open = records.last_mut().expect("an open record");
        let mut start = open.len();
        open.extend_from_slice(&[0; LEN]);
        write(open);
        let len = open.len() - start - LEN;
        debug_assert!(len > 0, "an empty frame would read as padding");
        let header = u32::try_from(len).expect("a frame is under 4 GiB");
        open[start..start + LEN].copy_from_slice(&header.to_be_bytes());
        if start > 0 && open.len() > RECORD_BOUND {
            // The frame took the record past the bound: the frames before
            // it leave without it, and it opens the next record.
            let frame = open.split_off(start);
            records.push(frame);
            start = 0;
        }
        &records.last().expect("the frame's record")[start + LEN..]
    }

    /// Hands every record to `send` — pairs in first-use order, a pair's
    /// records in the order they closed — and leaves the outbox empty.
    pub fn flush(&mut self, mut send: impl FnMut(NodeId, NodeId, Vec<u8>)) {
        for (src, dst, mut records) in self.pairs.drain(..) {
            for record in records.drain(..) {
                send(src, dst, record);
            }
            self.lists.push(records);
        }
    }

    /// Takes back the buffer of a record that was delivered and read, for
    /// a later record: emptied, unless [`SPARES`] are kept already or its
    /// capacity is above [`SPARE_CAP`], when it is dropped.
    pub(crate) fn recycle(&mut self, record: Vec<u8>) {
        self.spares.give(record);
    }

    /// Whether every waiting frame was written by `node`.
    pub(crate) fn only_from(&self, node: NodeId) -> bool {
        self.pairs.iter().all(|&(src, _, _)| src == node)
    }
}

/// The frames of one received network message, in order.
///
/// Fails closed: a truncated header or a length past the end rejects the
/// **whole** record, so nothing of a damaged message is acted on (the
/// senders' retry timers cover every envelope it carried). The
/// `handshake_bytes` of zeros that stand in for the handshake on first
/// contact carry no frames; [`Outbox::push`] never writes an empty frame,
/// so a list opening with one is that padding.
pub fn frames_of(message: &[u8]) -> Result<impl Iterator<Item = &[u8]>, TransportError> {
    let list = if message.starts_with(&[0; LEN]) {
        &[]
    } else {
        message
    };
    RecordKeys::frames(list).try_for_each(|frame| frame.map(drop))?;
    Ok(RecordKeys::frames(list).map(|frame| frame.expect("the list was checked above")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: NodeId = NodeId(1);
    const B: NodeId = NodeId(2);
    const C: NodeId = NodeId(3);

    fn push_bytes(outbox: &mut Outbox, src: NodeId, dst: NodeId, frame: &[u8]) {
        let written = outbox.push(src, dst, |buf| buf.extend_from_slice(frame));
        assert_eq!(written, frame);
    }

    fn flushed(outbox: &mut Outbox) -> Vec<(NodeId, NodeId, Vec<u8>)> {
        let mut sent = Vec::new();
        outbox.flush(|src, dst, record| sent.push((src, dst, record)));
        assert!(outbox.only_from(NodeId(u32::MAX)), "a flush leaves nothing");
        sent
    }

    fn walked(record: &[u8]) -> Vec<Vec<u8>> {
        frames_of(record)
            .expect("well-formed")
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn one_record_per_pair_in_first_use_order() {
        let mut outbox = Outbox::default();
        push_bytes(&mut outbox, A, B, b"ab-1");
        push_bytes(&mut outbox, C, A, b"ca-1");
        push_bytes(&mut outbox, A, B, b"ab-2");
        push_bytes(&mut outbox, B, A, b"ba-1");
        push_bytes(&mut outbox, A, B, b"ab-3");
        assert!(!outbox.only_from(A));
        let sent = flushed(&mut outbox);
        let pairs: Vec<(NodeId, NodeId)> = sent.iter().map(|&(s, d, _)| (s, d)).collect();
        assert_eq!(pairs, [(A, B), (C, A), (B, A)]);
        assert_eq!(walked(&sent[0].2), [b"ab-1", b"ab-2", b"ab-3"]);
        assert_eq!(walked(&sent[1].2), [b"ca-1"]);
        assert!(flushed(&mut outbox).is_empty());
    }

    #[test]
    fn a_record_is_the_live_paths_batch_grammar() {
        let mut outbox = Outbox::default();
        push_bytes(&mut outbox, A, B, b"one");
        push_bytes(&mut outbox, A, B, b"three");
        let sent = flushed(&mut outbox);
        assert_eq!(sent[0].2, b"\0\0\0\x03one\0\0\0\x05three");
        // One frame is the same list, not a bare frame.
        push_bytes(&mut outbox, A, B, b"x");
        assert_eq!(flushed(&mut outbox)[0].2, b"\0\0\0\x01x");
        let split = RecordKeys::split_frames(&sent[0].2).unwrap();
        assert_eq!(split, walked(&sent[0].2));
    }

    #[test]
    fn small_frames_split_at_the_bound_in_order() {
        let mut outbox = Outbox::default();
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i + 1; 1024 - LEN]).collect();
        for frame in &frames {
            push_bytes(&mut outbox, A, B, frame);
        }
        let sent = flushed(&mut outbox);
        let sizes: Vec<usize> = sent.iter().map(|(_, _, r)| r.len()).collect();
        assert_eq!(sizes, [RECORD_BOUND, 8 * 1024], "40 KiB: one full record");
        let back: Vec<Vec<u8>> = sent.iter().flat_map(|(_, _, r)| walked(r)).collect();
        assert_eq!(back, frames);
        // A frame that does not fit leaves the record short of the bound
        // and opens the next one.
        push_bytes(&mut outbox, A, B, &[1; 20_000]);
        push_bytes(&mut outbox, A, B, &[2; 20_000]);
        push_bytes(&mut outbox, A, B, &[3; 100]);
        let sizes: Vec<usize> = flushed(&mut outbox).iter().map(|s| s.2.len()).collect();
        assert_eq!(sizes, [20_004, 20_004 + 104]);
    }

    #[test]
    fn a_frame_over_the_bound_travels_alone_in_the_buffer_it_was_encoded_into() {
        // A 64 KiB chunk plus its DER overhead.
        let chunk = vec![0xC5; 64 * 1024 + 120];
        let mut outbox = Outbox::default();
        let mut encoded_at = Vec::new();
        for _ in 0..2 {
            let frame = outbox.push(A, B, |buf| buf.extend_from_slice(&chunk));
            assert_eq!(frame, chunk);
            encoded_at.push(frame.as_ptr());
        }
        push_bytes(&mut outbox, A, B, b"small, after");
        let sent = flushed(&mut outbox);
        assert_eq!(sent.len(), 3, "chunk, chunk, then what followed");
        for (record, frame_at) in sent.iter().zip(encoded_at) {
            assert_eq!(walked(&record.2), [&chunk[..]]);
            assert!(
                std::ptr::eq(record.2[LEN..].as_ptr(), frame_at),
                "the network gets the buffer the frame was encoded into"
            );
        }
        assert_eq!(walked(&sent[2].2), [b"small, after"]);
        // Behind small frames it still leaves in a record of its own.
        push_bytes(&mut outbox, A, B, b"small, before");
        push_bytes(&mut outbox, A, B, &chunk);
        let sent = flushed(&mut outbox);
        assert_eq!(walked(&sent[0].2), [b"small, before"]);
        assert_eq!(walked(&sent[1].2), [&chunk[..]]);
    }

    /// The frames of the three record shapes — small frames split at the
    /// bound, a frame over the bound behind small ones, and frames from
    /// three pairs interleaved — pushed in order, then flushed.
    fn every_shape(outbox: &mut Outbox) -> Vec<(NodeId, NodeId, Vec<u8>)> {
        for i in 0..40u8 {
            push_bytes(outbox, A, B, &[i + 1; 1024 - LEN]);
        }
        push_bytes(outbox, B, A, b"small, before");
        push_bytes(outbox, B, A, &[0xC5; 64 * 1024 + 120]);
        push_bytes(outbox, B, A, b"small, after");
        for (i, src) in [C, A, C, B].into_iter().enumerate() {
            push_bytes(outbox, src, C, &[i as u8 + 1; 300]);
        }
        flushed(outbox)
    }

    #[test]
    fn a_record_built_in_a_recycled_buffer_is_the_fresh_ones_bytes() {
        let fresh = every_shape(&mut Outbox::default());
        let mut outbox = Outbox::default();
        // Spares that held first-contact padding, garbage, and every
        // record of an earlier tick.
        outbox.recycle(vec![0; 4_096]);
        outbox.recycle(vec![0xFF; RECORD_BOUND + 7]);
        for (_, _, record) in every_shape(&mut Outbox::default()) {
            outbox.recycle(record);
        }
        assert!(!outbox.spares.kept().is_empty());
        assert!(
            outbox.spares.kept().iter().all(Vec::is_empty),
            "kept emptied"
        );
        for round in 0..3 {
            let sent = every_shape(&mut outbox);
            assert_eq!(sent, fresh, "round {round}");
            for (_, _, record) in sent {
                outbox.recycle(record);
            }
        }
        // Padding opens a list with an empty frame: a recycled buffer that
        // held it carries no stale zeros into the record built in it.
        let mut outbox = Outbox::default();
        outbox.recycle(vec![0; 64]);
        push_bytes(&mut outbox, A, B, b"x");
        assert_eq!(flushed(&mut outbox)[0].2, b"\0\0\0\x01x");
    }

    #[test]
    fn the_spare_list_is_bounded_and_keeps_no_chunk_buffer() {
        let mut outbox = Outbox::default();
        for _ in 0..3 * SPARES {
            outbox.recycle(Vec::with_capacity(1_024));
        }
        assert_eq!(outbox.spares.kept().len(), SPARES);
        let mut outbox = Outbox::default();
        outbox.recycle(Vec::with_capacity(SPARE_CAP + 1));
        assert!(
            outbox.spares.kept().is_empty(),
            "a buffer above the cap is dropped"
        );
        outbox.recycle(Vec::with_capacity(SPARE_CAP));
        assert_eq!(outbox.spares.kept().len(), 1);
        // A record carrying a 64 KiB chunk is never kept.
        let mut outbox = Outbox::default();
        push_bytes(&mut outbox, A, B, &[0xC5; 64 * 1024 + 120]);
        for (_, _, record) in flushed(&mut outbox) {
            assert!(record.capacity() > SPARE_CAP);
            outbox.recycle(record);
        }
        assert!(outbox.spares.kept().is_empty());
        // Whatever a tick delivers, the list stays within its bound and
        // under the cap.
        for _ in 0..4 {
            for (_, _, record) in every_shape(&mut outbox) {
                outbox.recycle(record);
                assert!(outbox.spares.kept().len() <= SPARES);
                assert!(outbox
                    .spares
                    .kept()
                    .iter()
                    .all(|b| b.capacity() <= SPARE_CAP));
            }
        }
    }

    #[test]
    fn padding_carries_no_frames() {
        assert_eq!(frames_of(&[0; 4_096]).unwrap().count(), 0);
        assert_eq!(frames_of(&[0; 4]).unwrap().count(), 0);
        assert_eq!(frames_of(&[]).unwrap().count(), 0);
        // Whatever follows an empty first frame is not looked at.
        assert_eq!(frames_of(b"\0\0\0\0\0\0\0\x01x").unwrap().count(), 0);
    }

    #[test]
    fn a_damaged_record_yields_nothing() {
        let mut outbox = Outbox::default();
        for frame in [&b"first"[..], b"second", b"third"] {
            push_bytes(&mut outbox, A, B, frame);
        }
        let record = flushed(&mut outbox).remove(0).2;
        let boundaries = [0, 9, 19, record.len()];
        for cut in 0..=record.len() {
            match frames_of(&record[..cut]) {
                Ok(frames) => {
                    let whole = boundaries.iter().position(|&b| b == cut);
                    assert_eq!(Some(frames.count()), whole, "cut at {cut}");
                }
                Err(_) => assert!(!boundaries.contains(&cut), "cut at {cut}"),
            }
        }
        let mut overclaims = record.clone();
        overclaims[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(frames_of(&overclaims).is_err());
        let mut trailing = record;
        trailing.extend_from_slice(&[0xFF; 3]);
        assert!(frames_of(&trailing).is_err());
    }
}
