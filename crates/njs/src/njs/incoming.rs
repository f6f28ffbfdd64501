//! The receiving end of site-to-site transfers: whole files and the
//! chunked, resumable data plane.

use super::{IncomingTransfer, Njs, INCOMING_PREFIX};
use crate::error::NjsError;
use std::sync::Arc;
use unicore_ajo::{ActionId, JobId};
use unicore_codec::DerCodec;
use unicore_dataplane::{ReceiverState, TransferKey, TransferManifest};
use unicore_store::StoreEvent;

impl Njs {
    /// Receives a file pushed from a peer Usite into `vsite`'s incoming
    /// Xspace area.
    pub fn receive_incoming_file(
        &mut self,
        vsite: &str,
        dest_name: &str,
        data: impl Into<Arc<[u8]>>,
        login: &str,
    ) -> Result<(), NjsError> {
        let v = self
            .vsites
            .get_mut(vsite)
            .ok_or_else(|| NjsError::UnknownVsite {
                vsite: vsite.to_owned(),
                usite: self.usite.clone(),
            })?;
        let path = format!("{INCOMING_PREFIX}{dest_name}");
        v.vspace.xspace().write(&path, data, login)?;
        Ok(())
    }

    /// Opens (or resumes) an incoming chunked transfer offered by a peer.
    ///
    /// Returns the chunk index the sender should resume from — the
    /// receiver's contiguous watermark, journaled chunk by chunk, so a
    /// re-offer after a drop, partition, or crash continues where the
    /// bytes actually got to instead of restarting. A return equal to
    /// the manifest's chunk count means the file is already fully
    /// delivered and committed.
    pub fn transfer_offer(
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
        let key = manifest.key();
        if let Some(entry) = self.incoming.get(&key) {
            if entry.state.manifest() == &manifest {
                let watermark = entry.state.watermark();
                if watermark > 0 && !entry.state.is_complete() {
                    self.transfer_resumes += 1;
                }
                return Ok(watermark);
            }
            // Same sender identity, different manifest: the sender
            // restarted with new content or geometry. Drop the stale
            // partial and start over.
            let (vsite, path) = (entry.vsite.clone(), entry.path.clone());
            if let Some(v) = self.vsites.get_mut(&vsite) {
                let _ = v.vspace.xspace().abort_partial(&path);
            }
            self.incoming.remove(&key);
        }
        let path = format!("{INCOMING_PREFIX}{}", manifest.dest_name);
        let vsite = manifest.to_vsite.vsite.clone();
        self.vsites
            .get_mut(&vsite)
            .expect("checked above")
            .vspace
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
            self.metrics.transfers_received.inc();
        }
        self.flush_events();
        Ok(0)
    }

    /// Accepts one chunk of an open incoming transfer.
    ///
    /// Returns the cumulative ack `(watermark, done)`. Retransmitted
    /// chunks (drops, duplicates, or a post-crash dedup miss) are acked
    /// again without touching storage, so the operation is idempotent
    /// even though the federation layer's response cache does not
    /// survive a receiver crash.
    pub fn transfer_chunk(
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
        let entry = self
            .incoming
            .get_mut(&key)
            .ok_or(NjsError::UnknownTransfer)?;
        if entry.state.is_received(index) {
            return Ok((entry.state.watermark(), entry.state.is_complete()));
        }
        let m = entry.state.manifest();
        if index >= m.num_chunks() || !m.verify_chunk(index, data) {
            return Err(NjsError::CorruptChunk { index });
        }
        let offset = m.chunk_range(index).start as u64;
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
        self.metrics.transfer_chunks.inc();
        self.metrics.transfer_bytes.add(data.len() as u64);
        // The journal holds the delivered bytes themselves — Xspace
        // contents are not otherwise durable, so chunk events are the
        // file's write-ahead copy and are retained through compaction.
        if self.journalling() {
            self.pending.push_transfer_chunk_stored(
                origin,
                origin_job,
                origin_node,
                index,
                data,
                self.clock,
            );
        }
        if done {
            self.finalize_incoming(&key)?;
            self.metrics.transfers_received.inc();
        }
        self.flush_events();
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

    /// Commits a completed transfer's staged partial, flipping the file
    /// visible atomically (checksum-gated against the manifest's whole
    /// file hash). A no-op if the partial was already committed — the
    /// recovery republish path lands here a second time.
    pub(super) fn finalize_incoming(&mut self, key: &TransferKey) -> Result<(), NjsError> {
        let Some(entry) = self.incoming.get(key) else {
            return Ok(());
        };
        let m = entry.state.manifest();
        let (sum, world) = (m.file_sum, m.world_readable);
        let (vsite, path) = (entry.vsite.clone(), entry.path.clone());
        let Some(v) = self.vsites.get_mut(&vsite) else {
            return Ok(());
        };
        let fs = v.vspace.xspace();
        if !fs.has_partial(&path) {
            return Ok(());
        }
        fs.commit_partial(&path, Some(sum), world)?;
        Ok(())
    }

    /// Times an incoming offer resumed from a non-zero journaled
    /// watermark instead of restarting at chunk zero.
    pub fn transfer_resumes(&self) -> u64 {
        self.transfer_resumes
    }

    /// Progress of an incoming transfer: `(bytes_received, total_len)`.
    pub fn incoming_progress(
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
