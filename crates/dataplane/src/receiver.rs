//! The receiving half of a transfer: idempotent chunk acceptance and the
//! cumulative watermark the receiver acks.

use crate::manifest::TransferManifest;

/// What happened to an arriving chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkDisposition {
    /// New chunk, verified and accepted — the caller should store it.
    Fresh,
    /// Already held (retransmission or duplicate) — ack again, store nothing.
    Duplicate,
    /// Failed length or checksum verification — discard, do not ack it.
    Corrupt,
    /// Index beyond the manifest's chunk count — discard.
    OutOfRange,
}

/// Receiver-side bookkeeping for one transfer.
///
/// Storage is the caller's concern (the NJS writes into a Uspace partial
/// file; tests use a plain buffer): this struct only decides whether a
/// chunk is fresh, and tracks the contiguous watermark that goes into the
/// cumulative `ChunkAck`. Every mutation here is idempotent, because the
/// E14 machinery may re-deliver any chunk after a drop, a duplicate, or a
/// crash that wiped the dedup cache.
#[derive(Debug, Clone)]
pub struct ReceiverState {
    manifest: TransferManifest,
    received: Vec<bool>,
    /// Contiguous received prefix — the value we ack, and the resume point
    /// we offer a reconnecting sender.
    watermark: u64,
    bytes_received: u64,
}

impl ReceiverState {
    /// A fresh receiver for `manifest`.
    pub fn new(manifest: TransferManifest) -> Self {
        let n = manifest.num_chunks() as usize;
        ReceiverState {
            manifest,
            received: vec![false; n],
            watermark: 0,
            bytes_received: 0,
        }
    }

    /// The transfer's manifest.
    pub fn manifest(&self) -> &TransferManifest {
        &self.manifest
    }

    /// Classifies an arriving chunk. On [`ChunkDisposition::Fresh`] the
    /// caller must store `data` at the chunk's byte range before acking.
    pub fn accept_chunk(&mut self, index: u64, data: &[u8]) -> ChunkDisposition {
        if index >= self.manifest.num_chunks() {
            return ChunkDisposition::OutOfRange;
        }
        if self.received[index as usize] {
            return ChunkDisposition::Duplicate;
        }
        if !self.manifest.verify_chunk(index, data) {
            return ChunkDisposition::Corrupt;
        }
        self.mark_received(index);
        ChunkDisposition::Fresh
    }

    /// Marks chunk `index` held without verification — journal replay,
    /// where the bytes were already verified before being logged.
    pub fn mark_received(&mut self, index: u64) {
        let i = index as usize;
        if i >= self.received.len() || self.received[i] {
            return;
        }
        self.received[i] = true;
        self.bytes_received += self.manifest.chunk_range(index).len() as u64;
        while (self.watermark as usize) < self.received.len()
            && self.received[self.watermark as usize]
        {
            self.watermark += 1;
        }
    }

    /// Whether chunk `index` is already held (lets a caller skip storage
    /// work before calling [`ReceiverState::accept_chunk`]).
    pub fn is_received(&self, index: u64) -> bool {
        self.received.get(index as usize).copied().unwrap_or(false)
    }

    /// The cumulative ack value: contiguous chunks stored so far.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Chunks held (contiguous or not).
    #[cfg(test)]
    fn chunks_received(&self) -> u64 {
        self.received.iter().filter(|r| **r).count() as u64
    }

    /// Bytes held across all received chunks.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Whether every chunk is held.
    pub fn is_complete(&self) -> bool {
        self.watermark >= self.manifest.num_chunks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use unicore_ajo::{ActionId, JobId, VsiteAddress};
    use unicore_crypto::sha256;

    fn setup(len: usize, chunk: u32) -> (TransferManifest, Arc<[u8]>) {
        let data: Arc<[u8]> = (0..len).map(|i| (i % 251) as u8).collect::<Vec<_>>().into();
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
        (m, data)
    }

    #[test]
    fn in_order_delivery() {
        let (m, data) = setup(100, 30);
        let mut r = ReceiverState::new(m.clone());
        for i in 0..m.num_chunks() {
            assert_eq!(
                r.accept_chunk(i, &data[m.chunk_range(i)]),
                ChunkDisposition::Fresh
            );
            assert_eq!(r.watermark(), i + 1);
        }
        assert!(r.is_complete());
        assert_eq!(r.bytes_received(), 100);
    }

    #[test]
    fn out_of_order_holds_watermark() {
        let (m, data) = setup(100, 30);
        let mut r = ReceiverState::new(m.clone());
        assert_eq!(
            r.accept_chunk(2, &data[m.chunk_range(2)]),
            ChunkDisposition::Fresh
        );
        // Chunk 0 not yet here: nothing contiguous to ack.
        assert_eq!(r.watermark(), 0);
        r.accept_chunk(0, &data[m.chunk_range(0)]);
        assert_eq!(r.watermark(), 1);
        r.accept_chunk(1, &data[m.chunk_range(1)]);
        // Watermark jumps over the already-held chunk 2.
        assert_eq!(r.watermark(), 3);
    }

    #[test]
    fn duplicates_and_corruption() {
        let (m, data) = setup(100, 30);
        let mut r = ReceiverState::new(m.clone());
        r.accept_chunk(0, &data[m.chunk_range(0)]);
        assert_eq!(
            r.accept_chunk(0, &data[m.chunk_range(0)]),
            ChunkDisposition::Duplicate
        );
        let mut bad = data[m.chunk_range(1)].to_vec();
        bad[0] ^= 0xff;
        assert_eq!(r.accept_chunk(1, &bad), ChunkDisposition::Corrupt);
        assert_eq!(
            r.accept_chunk(99, &data[0..30]),
            ChunkDisposition::OutOfRange
        );
        assert_eq!(r.watermark(), 1);
        assert_eq!(r.chunks_received(), 1);
    }

    #[test]
    fn replay_restores_watermark() {
        let (m, _) = setup(100, 30);
        let mut r = ReceiverState::new(m);
        // Journal said chunks 0, 1 and 3 were stored before the crash.
        for i in [0, 1, 3, 1] {
            r.mark_received(i);
        }
        assert_eq!(r.watermark(), 2);
        assert_eq!(r.chunks_received(), 3);
        assert_eq!(r.bytes_received(), 70);
    }

    #[test]
    fn whole_file_checksum_closes_the_loop() {
        let (m, data) = setup(100, 30);
        assert_eq!(sha256(&data), m.file_sum);
    }
}
