//! The receiving end of site-to-site transfers: the chunked, resumable
//! data plane every file from a peer Usite arrives through.

use super::{IncomingTransfer, Njs, INCOMING_PREFIX};
use crate::error::NjsError;
use unicore_ajo::{ActionId, JobId};
use unicore_codec::DerCodec;
use unicore_dataplane::{ReceiverState, TransferKey, TransferManifest};
use unicore_store::StoreEvent;

impl Njs {
    /// Opens (or resumes) an incoming chunked transfer offered by a peer.
    ///
    /// Returns the chunk index the sender should resume from — the
    /// receiver's contiguous watermark, journaled chunk by chunk, so a
    /// re-offer after a drop, partition, or crash continues where the
    /// bytes actually got to instead of restarting. A return equal to
    /// the manifest's chunk count means the file is already fully
    /// delivered and committed.
    pub(crate) fn transfer_offer(
        &mut self,
        manifest: TransferManifest,
        login: &str,
    ) -> Result<u64, NjsError> {
        if manifest.to_vsite.usite != self.usite
            || !self.vsites.contains_key(&manifest.to_vsite.vsite)
        {
            return Err(NjsError::UnknownVsite {
                vsite: manifest.to_vsite.to_string(),
                usite: self.usite.clone(),
            });
        }
        if !manifest.well_formed() {
            return Err(NjsError::BadManifest);
        }
        if let Some(entry) = self.incoming.get(&manifest.key()) {
            if entry.state.manifest() == &manifest {
                let watermark = entry.state.watermark();
                if watermark > 0 && !entry.state.is_complete() {
                    self.transfer_resumes += 1;
                }
                return Ok(watermark);
            }
        }
        self.open_incoming(manifest, login)?;
        self.flush_events();
        Ok(0)
    }

    /// Opens a fresh receiver for `manifest`: the one path a live offer
    /// and a replayed `TransferOpened` both take. A receiver the same
    /// sender opened before under another manifest — the sender restarted
    /// with new content or geometry — is dropped with its staged partial.
    pub(super) fn open_incoming(
        &mut self,
        manifest: TransferManifest,
        login: &str,
    ) -> Result<(), NjsError> {
        let key = manifest.key();
        if let Some(stale) = self.incoming.remove(&key) {
            if let Some(v) = self.vsites.get_mut(&stale.vsite) {
                let _ = v.vspace.xspace().abort_partial(&stale.path);
            }
        }
        let path = format!("{INCOMING_PREFIX}{}", manifest.dest_name);
        let vsite = manifest.to_vsite.vsite.clone();
        let Some(v) = self.vsites.get_mut(&vsite) else {
            return Err(NjsError::UnknownVsite {
                vsite: manifest.to_vsite.to_string(),
                usite: self.usite.clone(),
            });
        };
        v.vspace
            .xspace()
            .begin_partial(&path, manifest.total_len, login)?;
        self.log_event(StoreEvent::TransferOpened {
            origin: manifest.origin.clone(),
            origin_job: manifest.origin_job,
            origin_node: manifest.origin_node,
            manifest_der: manifest.to_der(),
            login: login.to_owned(),
            at: self.clock,
        });
        self.incoming.insert(
            key.clone(),
            IncomingTransfer {
                state: ReceiverState::new(manifest),
                login: login.to_owned(),
                vsite,
                path,
            },
        );
        // A zero-length file has no chunks to wait for.
        if self.incoming[&key].state.is_complete() {
            self.finalize_incoming(&key)?;
        }
        Ok(())
    }

    /// Accepts one chunk of an open incoming transfer.
    ///
    /// Returns the cumulative ack `(watermark, done)`. Retransmitted
    /// chunks (drops, duplicates, or a post-crash dedup miss) are acked
    /// again without touching storage, so the operation is idempotent
    /// even though the federation layer's response cache does not
    /// survive a receiver crash.
    pub(crate) fn transfer_chunk(
        &mut self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
        index: u64,
        data: &[u8],
    ) -> Result<(u64, bool), NjsError> {
        let key = TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        };
        let entry = self.incoming.get(&key).ok_or(NjsError::UnknownTransfer)?;
        let m = entry.state.manifest();
        if !entry.state.is_received(index)
            && (index >= m.num_chunks() || !m.verify_chunk(index, data))
        {
            return Err(NjsError::CorruptChunk { index });
        }
        let ack = self.store_chunk(&key, index, data)?;
        self.flush_events();
        Ok(ack)
    }

    /// Stores one verified chunk of an open incoming transfer and returns
    /// the cumulative ack: the one path a live chunk and a replayed
    /// `TransferChunkStored` both take. A chunk already held is acked
    /// again without touching storage.
    pub(super) fn store_chunk(
        &mut self,
        key: &TransferKey,
        index: u64,
        data: &[u8],
    ) -> Result<(u64, bool), NjsError> {
        let entry = self
            .incoming
            .get_mut(key)
            .ok_or(NjsError::UnknownTransfer)?;
        if entry.state.is_received(index) {
            return Ok((entry.state.watermark(), entry.state.is_complete()));
        }
        let offset = entry.state.manifest().chunk_range(index).start as u64;
        // Store before marking: a quota failure must leave the chunk
        // unheld so a later retry (after the user frees space) can land.
        self.vsites
            .get_mut(&entry.vsite)
            .expect("vsite checked at offer")
            .vspace
            .xspace()
            .write_partial(&entry.path, offset, data, &entry.login)?;
        entry.state.mark_received(index);
        let (upto, done) = (entry.state.watermark(), entry.state.is_complete());
        if !self.recovering {
            self.metrics.transfer_chunks.inc();
            self.metrics.transfer_bytes.add(data.len() as u64);
        }
        // The journal holds the delivered bytes themselves — Xspace
        // contents are not otherwise durable, so chunk events are the
        // file's write-ahead copy and are retained through compaction.
        if self.journalling() {
            self.pending.push_transfer_chunk_stored(
                &key.origin,
                key.origin_job,
                key.origin_node,
                index,
                data,
                self.clock,
            );
        }
        if done {
            self.finalize_incoming(key)?;
        }
        Ok((upto, done))
    }

    /// Whether this shard holds the receiver state for an incoming
    /// transfer (the sharded facade probes shards to route chunks).
    pub(crate) fn has_incoming(
        &self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
    ) -> bool {
        self.incoming.contains_key(&TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        })
    }

    /// Commits the staged partial of a transfer that just became
    /// complete, flipping the file visible atomically (checksum-gated
    /// against the manifest's whole file hash), and counts it received
    /// when this is live work, not a replay.
    fn finalize_incoming(&mut self, key: &TransferKey) -> Result<(), NjsError> {
        let entry = &self.incoming[key];
        let m = entry.state.manifest();
        self.vsites
            .get_mut(&entry.vsite)
            .expect("vsite checked at offer")
            .vspace
            .xspace()
            .commit_partial(&entry.path, Some(m.file_sum), m.world_readable)?;
        if !self.recovering {
            self.metrics.transfers_received.inc();
        }
        Ok(())
    }

    /// Times an incoming offer resumed from a non-zero journaled
    /// watermark instead of restarting at chunk zero.
    pub(crate) fn transfer_resumes(&self) -> u64 {
        self.transfer_resumes
    }

    /// Progress of an incoming transfer: `(bytes_received, total_len)`.
    pub(crate) fn incoming_progress(
        &self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
    ) -> Option<(u64, u64)> {
        let key = TransferKey {
            origin: origin.to_owned(),
            origin_job,
            origin_node,
        };
        self.incoming
            .get(&key)
            .map(|e| (e.state.bytes_received(), e.state.manifest().total_len))
    }
}
