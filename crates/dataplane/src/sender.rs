//! The sending half of a transfer: sliding-window chunk emission with
//! resume-from-last-acked-chunk.

use crate::manifest::TransferManifest;
use std::sync::Arc;

/// Default backpressure window: at most this many chunks may be in flight
/// (sent but not covered by the receiver's cumulative ack) at once.
pub const DEFAULT_WINDOW: u64 = 4;

/// Sliding-window sender state for one transfer.
///
/// The sender holds the file as `Arc<[u8]>` (no copy of the Uspace data)
/// and emits chunk indices to send; the driving server turns each index
/// into a `TransferChunk` request. Acks are cumulative: the receiver
/// reports the contiguous prefix it has durably stored, and the window
/// slides forward from there. After a stall or re-offer, [`begin`]
/// restarts cleanly from whatever resume point the receiver reports.
///
/// [`begin`]: SenderState::begin
#[derive(Debug, Clone)]
pub struct SenderState {
    manifest: TransferManifest,
    data: Arc<[u8]>,
    /// Contiguous chunk prefix the receiver has acked.
    acked: u64,
    /// Next chunk index to emit.
    next: u64,
    window: u64,
}

impl SenderState {
    /// A sender for `data` described by `manifest`.
    pub fn new(manifest: TransferManifest, data: Arc<[u8]>, window: u64) -> Self {
        debug_assert_eq!(manifest.total_len, data.len() as u64);
        SenderState {
            manifest,
            data,
            acked: 0,
            next: 0,
            window: window.max(1),
        }
    }

    /// The transfer's manifest.
    pub fn manifest(&self) -> &TransferManifest {
        &self.manifest
    }

    /// (Re)starts the stream from the receiver's resume point. Returns the
    /// initial window of chunk indices to send, in order.
    pub fn begin(&mut self, resume_from: u64) -> Vec<u64> {
        let total = self.manifest.num_chunks();
        self.acked = resume_from.min(total);
        self.next = self.acked;
        self.fill_window()
    }

    /// Applies a cumulative ack (`upto` = contiguous chunks stored).
    /// Returns further chunk indices now admitted by the window.
    pub fn on_ack(&mut self, upto: u64) -> Vec<u64> {
        let total = self.manifest.num_chunks();
        if upto > self.acked {
            self.acked = upto.min(total);
            if self.next < self.acked {
                self.next = self.acked;
            }
        }
        self.fill_window()
    }

    fn fill_window(&mut self) -> Vec<u64> {
        let total = self.manifest.num_chunks();
        let limit = (self.acked + self.window).min(total);
        let out: Vec<u64> = (self.next..limit).collect();
        self.next = limit;
        out
    }

    /// The payload bytes of chunk `index`, borrowed from the file.
    pub fn chunk(&self, index: u64) -> &[u8] {
        &self.data[self.manifest.chunk_range(index)]
    }

    /// An owned copy of [`Self::chunk`].
    pub fn chunk_payload(&self, index: u64) -> Vec<u8> {
        self.chunk(index).to_vec()
    }

    /// Whether every chunk has been acked.
    pub fn is_complete(&self) -> bool {
        self.acked >= self.manifest.num_chunks()
    }

    /// Chunks acked so far (the resume point if we stall here).
    pub fn acked_chunks(&self) -> u64 {
        self.acked
    }

    /// Bytes covered by the acked prefix.
    pub fn bytes_acked(&self) -> u64 {
        (self.acked * self.manifest.chunk_size as u64).min(self.manifest.total_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_ajo::{ActionId, JobId, VsiteAddress};

    fn sender(len: usize, chunk: u32, window: u64) -> SenderState {
        let data: Arc<[u8]> = (0..len).map(|i| i as u8).collect::<Vec<_>>().into();
        let m = TransferManifest::for_bytes(
            "FZJ",
            JobId(1),
            ActionId(1),
            VsiteAddress::new("RUS", "VPP"),
            "f",
            "dn",
            false,
            &data,
            chunk,
        );
        SenderState::new(m, data, window)
    }

    #[test]
    fn window_limits_inflight() {
        let mut s = sender(100, 10, 4);
        assert_eq!(s.begin(0), vec![0, 1, 2, 3]);
        // No ack progress: nothing more admitted.
        assert!(s.on_ack(0).is_empty());
        // Ack 2 chunks: window slides by 2.
        assert_eq!(s.on_ack(2), vec![4, 5]);
        assert_eq!(s.on_ack(6), vec![6, 7, 8, 9]);
        assert!(!s.is_complete());
        assert!(s.on_ack(10).is_empty());
        assert!(s.is_complete());
    }

    #[test]
    fn resume_skips_acked_prefix() {
        let mut s = sender(100, 10, 4);
        s.begin(0);
        // Receiver reports 7 chunks stored; re-offer resumes from there.
        assert_eq!(s.begin(7), vec![7, 8, 9]);
        assert_eq!(s.acked_chunks(), 7);
        assert_eq!(s.bytes_acked(), 70);
    }

    #[test]
    fn stale_ack_ignored() {
        let mut s = sender(100, 10, 2);
        s.begin(0);
        s.on_ack(5);
        // A late, smaller ack must not move the window backwards.
        assert!(s.on_ack(3).is_empty());
        assert_eq!(s.acked_chunks(), 5);
    }

    #[test]
    fn empty_file_is_immediately_complete() {
        let mut s = sender(0, 10, 4);
        assert!(s.begin(0).is_empty());
        assert!(s.is_complete());
    }

    #[test]
    fn payload_matches_range() {
        let s = sender(25, 10, 4);
        assert_eq!(s.chunk_payload(2), vec![20, 21, 22, 23, 24]);
        assert_eq!(s.chunk(2), [20, 21, 22, 23, 24]);
    }

    /// The sender slices the allocation it was given: no chunk is a copy.
    #[test]
    fn chunks_borrow_the_file() {
        let s = sender(25, 10, 4);
        let held = s.data.clone();
        for i in 0..3 {
            let range = s.manifest().chunk_range(i);
            assert!(std::ptr::eq(s.chunk(i), &held[range]));
        }
    }
}
