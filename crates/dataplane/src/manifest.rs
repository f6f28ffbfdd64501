//! Per-transfer manifests: what is being moved, in which chunks, with
//! which checksums.

use std::ops::Range;
use unicore_ajo::{ActionId, JobId, VsiteAddress};
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_crypto::sha256;

/// Default chunk size: 64 KiB keeps per-record memory bounded while still
/// amortising the per-record framing cost over a 1999 WAN.
pub const DEFAULT_CHUNK_SIZE: u32 = 64 * 1024;

/// Identity of one transfer, unique grid-wide: the sending Usite plus the
/// (job, node) of the Transfer task that initiated it. A re-offer after a
/// sender crash carries the same key, which is what lets the receiver
/// answer with its resume point instead of starting over.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TransferKey {
    /// The sending Usite's name.
    pub origin: String,
    /// The job whose Transfer task is sending.
    pub origin_job: JobId,
    /// The Transfer task node within that job.
    pub origin_node: ActionId,
}

/// The contract for one streamed file: identity, destination, length,
/// chunk geometry and checksums. Sent once in the `TransferOffer`; both
/// endpoints hold it for the life of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferManifest {
    /// The sending Usite's name.
    pub origin: String,
    /// The job whose Transfer task is sending.
    pub origin_job: JobId,
    /// The Transfer task node within that job.
    pub origin_node: ActionId,
    /// Destination Vsite whose Xspace receives the file.
    pub to_vsite: VsiteAddress,
    /// File name at the destination (under the incoming prefix).
    pub dest_name: String,
    /// DN of the transferring user (authorisation at the receiver).
    pub user_dn: String,
    /// Total file length in bytes.
    pub total_len: u64,
    /// Chunk size in bytes (last chunk may be shorter).
    pub chunk_size: u32,
    /// SHA-256 of each chunk, in order.
    pub chunk_sums: Vec<[u8; 32]>,
    /// SHA-256 of the whole file (final integrity gate).
    pub file_sum: [u8; 32],
    /// Whether the delivered file is world-readable at the destination.
    pub world_readable: bool,
}

impl TransferManifest {
    /// Builds a manifest for `data`, computing all checksums.
    #[allow(clippy::too_many_arguments)]
    pub fn for_bytes(
        origin: impl Into<String>,
        origin_job: JobId,
        origin_node: ActionId,
        to_vsite: VsiteAddress,
        dest_name: impl Into<String>,
        user_dn: impl Into<String>,
        world_readable: bool,
        data: &[u8],
        chunk_size: u32,
    ) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        let chunk_sums = data.chunks(chunk_size as usize).map(sha256).collect();
        TransferManifest {
            origin: origin.into(),
            origin_job,
            origin_node,
            to_vsite,
            dest_name: dest_name.into(),
            user_dn: user_dn.into(),
            total_len: data.len() as u64,
            chunk_size,
            chunk_sums,
            file_sum: sha256(data),
            world_readable,
        }
    }

    /// The transfer's grid-wide identity.
    pub fn key(&self) -> TransferKey {
        TransferKey {
            origin: self.origin.clone(),
            origin_job: self.origin_job,
            origin_node: self.origin_node,
        }
    }

    /// Number of chunks (zero for an empty file).
    pub fn num_chunks(&self) -> u64 {
        self.total_len.div_ceil(self.chunk_size as u64)
    }

    /// Byte range of chunk `index` within the file.
    pub fn chunk_range(&self, index: u64) -> Range<usize> {
        let start = index * self.chunk_size as u64;
        let end = (start + self.chunk_size as u64).min(self.total_len);
        start as usize..end as usize
    }

    /// Checks `data` against chunk `index`'s recorded length and checksum.
    pub fn verify_chunk(&self, index: u64, data: &[u8]) -> bool {
        if index >= self.num_chunks() {
            return false;
        }
        let range = self.chunk_range(index);
        data.len() == range.len() && sha256(data) == self.chunk_sums[index as usize]
    }

    /// Internal consistency: chunk count matches the declared length.
    pub fn well_formed(&self) -> bool {
        self.chunk_size > 0 && self.chunk_sums.len() as u64 == self.num_chunks()
    }
}

fn sum_from(bytes: &[u8]) -> Result<[u8; 32], CodecError> {
    bytes
        .try_into()
        .map_err(|_| CodecError::BadValue("sha-256 checksum must be 32 bytes"))
}

impl DerCodec for TransferManifest {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.origin);
            w.u64(self.origin_job.0);
            w.u64(self.origin_node.0);
            self.to_vsite.write_der(w);
            w.str(&self.dest_name);
            w.str(&self.user_dn);
            w.u64(self.total_len);
            w.u64(self.chunk_size as u64);
            w.sequence_of(&self.chunk_sums, |w, s| w.bytes(s));
            w.bytes(&self.file_sum);
            w.bool(self.world_readable);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        let m = r.sequence("TransferManifest", |f| {
            Ok(TransferManifest {
                origin: f.next_string()?,
                origin_job: JobId(f.next_u64()?),
                origin_node: ActionId(f.next_u64()?),
                to_vsite: VsiteAddress::read_der(f)?,
                dest_name: f.next_string()?,
                user_dn: f.next_string()?,
                total_len: f.next_u64()?,
                chunk_size: f.next_u32()?,
                chunk_sums: f.sequence_of("chunk checksums", |s| sum_from(s.next_bytes()?))?,
                file_sum: sum_from(f.next_bytes()?)?,
                world_readable: f.next_bool()?,
            })
        })?;
        if !m.well_formed() {
            return Err(CodecError::BadValue("manifest chunk count mismatch"));
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(data: &[u8], chunk: u32) -> TransferManifest {
        TransferManifest::for_bytes(
            "FZJ",
            JobId(7),
            ActionId(3),
            VsiteAddress::new("RUS", "VPP"),
            "fields.grb",
            "C=DE, CN=alice",
            true,
            data,
            chunk,
        )
    }

    #[test]
    fn geometry() {
        let m = manifest(&[0u8; 100], 30);
        assert_eq!(m.num_chunks(), 4);
        assert_eq!(m.chunk_range(0), 0..30);
        assert_eq!(m.chunk_range(3), 90..100);
        assert!(m.well_formed());

        let empty = manifest(&[], 30);
        assert_eq!(empty.num_chunks(), 0);
        assert!(empty.well_formed());
    }

    #[test]
    fn chunk_verification() {
        let data: Vec<u8> = (0..100u8).collect();
        let m = manifest(&data, 30);
        assert!(m.verify_chunk(0, &data[0..30]));
        assert!(m.verify_chunk(3, &data[90..100]));
        // Wrong bytes, wrong length, out-of-range index all fail.
        assert!(!m.verify_chunk(0, &data[30..60]));
        assert!(!m.verify_chunk(0, &data[0..29]));
        assert!(!m.verify_chunk(4, &data[0..30]));
    }

    #[test]
    fn der_round_trip() {
        let data: Vec<u8> = (0..255u8).collect();
        let m = manifest(&data, 64);
        let der = m.to_der();
        let back = TransferManifest::from_der(&der).unwrap();
        assert_eq!(m, back);
        // Canonical: re-encoding is byte-identical.
        assert_eq!(back.to_der(), der);
    }

    #[test]
    fn malformed_manifest_rejected() {
        let mut m = manifest(&[0u8; 100], 30);
        m.chunk_sums.pop();
        let der = m.to_der();
        assert!(TransferManifest::from_der(&der).is_err());
    }
}
