//! An in-memory virtual filesystem — one per data space.

use crate::error::SpaceError;
use std::collections::BTreeMap;
use std::sync::Arc;
use unicore_crypto::sha256;

/// A stored file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Contents. Shared, never mutated: a write replaces the entry, so
    /// whoever took the `Arc` before (a transfer in flight, another
    /// space's copy) keeps the bytes it read.
    pub data: Arc<[u8]>,
    /// Owning login.
    pub owner: String,
    /// Whether any login may read it.
    pub world_readable: bool,
}

impl FileEntry {
    /// SHA-256 checksum of the contents (integrity checks on transfers).
    pub fn checksum(&self) -> [u8; 32] {
        sha256(&self.data)
    }
}

/// A file being assembled chunk by chunk. Invisible to `read`/`exists`/
/// `list` until committed, so a crash mid-transfer can never leave a torn
/// file where a reader would find it.
#[derive(Debug, Clone)]
struct PartialFile {
    /// The file's final allocation: zeroed at `begin_partial`, filled in
    /// place while this is its only owner, handed to the visible entry at
    /// commit.
    data: Arc<[u8]>,
    /// Covered byte ranges, keyed by start, non-overlapping and merged.
    covered: BTreeMap<u64, u64>,
    covered_bytes: u64,
    owner: String,
}

impl PartialFile {
    /// Merges `[start, end)` into the coverage map, returning how many
    /// bytes are newly covered.
    fn cover(&mut self, start: u64, end: u64) -> u64 {
        let mut new_start = start;
        let mut new_end = end;
        let mut absorbed = 0u64;
        let mut to_remove = Vec::new();
        for (&s, &e) in self.covered.range(..=end) {
            if e < start {
                continue;
            }
            // Overlapping or adjacent: merge.
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            absorbed += e - s;
            to_remove.push(s);
        }
        for s in to_remove {
            self.covered.remove(&s);
        }
        self.covered.insert(new_start, new_end);
        let fresh = (new_end - new_start) - absorbed;
        self.covered_bytes += fresh;
        fresh
    }

    /// Bytes of `[start, end)` not yet covered (what a write would charge).
    fn fresh_in(&self, start: u64, end: u64) -> u64 {
        let mut overlap = 0u64;
        for (&s, &e) in self.covered.range(..end) {
            if e <= start {
                continue;
            }
            overlap += e.min(end) - s.max(start);
        }
        (end - start) - overlap
    }

    fn complete(&self) -> bool {
        self.covered_bytes == self.data.len() as u64
    }
}

/// A flat-namespace virtual filesystem with per-space quota.
///
/// Paths are plain strings ("/" is conventional, not structural); listing
/// takes a prefix. A quota of `u64::MAX` means unlimited (Xspaces).
#[derive(Debug, Clone)]
pub struct VirtualFs {
    files: BTreeMap<String, FileEntry>,
    partials: BTreeMap<String, PartialFile>,
    used: u64,
    pub(crate) quota: u64,
}

impl VirtualFs {
    /// A filesystem with the given byte quota.
    pub fn with_quota(quota: u64) -> Self {
        VirtualFs {
            files: BTreeMap::new(),
            partials: BTreeMap::new(),
            used: 0,
            quota,
        }
    }

    /// An unlimited filesystem (for Xspaces).
    pub(crate) fn unlimited() -> Self {
        Self::with_quota(u64::MAX)
    }

    fn check_path(path: &str) -> Result<(), SpaceError> {
        if path.is_empty() || path.contains('\0') {
            return Err(SpaceError::BadPath(path.to_owned()));
        }
        Ok(())
    }

    /// Writes (creates or replaces) a file. Bytes already held as
    /// `Arc<[u8]>` are shared with the caller, not copied.
    pub fn write(
        &mut self,
        path: &str,
        data: impl Into<Arc<[u8]>>,
        owner: &str,
    ) -> Result<(), SpaceError> {
        Self::check_path(path)?;
        let data: Arc<[u8]> = data.into();
        let old = self
            .files
            .get(path)
            .map(|f| f.data.len() as u64)
            .unwrap_or(0);
        let needed = self.used - old + data.len() as u64;
        if needed > self.quota {
            return Err(SpaceError::QuotaExceeded {
                needed,
                quota: self.quota,
            });
        }
        self.used = needed;
        self.files.insert(
            path.to_owned(),
            FileEntry {
                data,
                owner: owner.to_owned(),
                world_readable: false,
            },
        );
        Ok(())
    }

    /// Opens (or resumes) a partial file of `total_len` bytes, to be
    /// filled by [`write_partial`] and made visible by [`commit_partial`].
    ///
    /// Nothing is charged against the quota yet: the data plane pays for
    /// bytes chunk by chunk as they land, not at admission. A `total_len`
    /// beyond the space's whole quota is refused outright, before the
    /// staging buffer is allocated: such a file could never commit, and
    /// the length is a claim from outside (a peer's transfer offer).
    /// Reopening an existing partial with the same length and owner is a
    /// no-op (a resuming transfer keeps its progress); a different length
    /// discards the old partial and starts over.
    ///
    /// [`write_partial`]: VirtualFs::write_partial
    /// [`commit_partial`]: VirtualFs::commit_partial
    pub fn begin_partial(
        &mut self,
        path: &str,
        total_len: u64,
        owner: &str,
    ) -> Result<(), SpaceError> {
        Self::check_path(path)?;
        let len = match usize::try_from(total_len) {
            Ok(len) if total_len <= self.quota => len,
            _ => {
                return Err(SpaceError::QuotaExceeded {
                    needed: total_len,
                    quota: self.quota,
                })
            }
        };
        if let Some(p) = self.partials.get(path) {
            if p.data.len() == len && p.owner == owner {
                return Ok(());
            }
            self.abort_partial(path)?;
        }
        self.partials.insert(
            path.to_owned(),
            PartialFile {
                data: std::iter::repeat_n(0, len).collect(),
                covered: BTreeMap::new(),
                covered_bytes: 0,
                owner: owner.to_owned(),
            },
        );
        Ok(())
    }

    /// Writes a chunk into a partial at `offset`, charging the quota for
    /// newly covered bytes only (duplicates and overlaps are free).
    /// Returns the bytes newly charged.
    pub fn write_partial(
        &mut self,
        path: &str,
        offset: u64,
        data: &[u8],
        owner: &str,
    ) -> Result<u64, SpaceError> {
        let partial = self
            .partials
            .get_mut(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        if partial.owner != owner {
            return Err(SpaceError::PermissionDenied {
                path: path.to_owned(),
                login: owner.to_owned(),
            });
        }
        let end = offset + data.len() as u64;
        if end > partial.data.len() as u64 {
            return Err(SpaceError::BadOffset {
                path: path.to_owned(),
            });
        }
        if data.is_empty() {
            return Ok(0);
        }
        // Chunk-granular quota: this write is charged for the bytes it
        // newly covers, so an over-quota transfer fails at the chunk that
        // crosses the line — not at admission, and not after filling the
        // space with invisible data.
        let fresh = partial.fresh_in(offset, end);
        if self.used + fresh > self.quota {
            return Err(SpaceError::QuotaExceeded {
                needed: self.used + fresh,
                quota: self.quota,
            });
        }
        let covered = partial.cover(offset, end);
        debug_assert_eq!(covered, fresh);
        // Unique until commit, so this writes in place (a clone of the
        // whole filesystem taken mid-transfer would make it copy first).
        Arc::make_mut(&mut partial.data)[offset as usize..end as usize].copy_from_slice(data);
        self.used += fresh;
        Ok(fresh)
    }

    /// Commits a fully covered partial, making it visible atomically. If
    /// `expected_sum` is given, the assembled bytes must hash to it.
    pub fn commit_partial(
        &mut self,
        path: &str,
        expected_sum: Option<[u8; 32]>,
        world_readable: bool,
    ) -> Result<(), SpaceError> {
        let partial = self
            .partials
            .get(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        if !partial.complete() {
            return Err(SpaceError::IncompletePartial {
                path: path.to_owned(),
                covered: partial.covered_bytes,
                total: partial.data.len() as u64,
            });
        }
        if let Some(sum) = expected_sum {
            if sha256(&partial.data) != sum {
                return Err(SpaceError::ChecksumMismatch {
                    path: path.to_owned(),
                });
            }
        }
        let partial = self.partials.remove(path).expect("checked above");
        // Replacing a visible file reclaims its bytes; the partial's own
        // bytes were already charged chunk by chunk.
        if let Some(old) = self.files.get(path) {
            self.used -= old.data.len() as u64;
        }
        self.files.insert(
            path.to_owned(),
            FileEntry {
                data: partial.data,
                owner: partial.owner,
                world_readable,
            },
        );
        Ok(())
    }

    /// Discards a partial, refunding its charged bytes. Returns the bytes
    /// refunded.
    pub fn abort_partial(&mut self, path: &str) -> Result<u64, SpaceError> {
        let partial = self
            .partials
            .remove(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        self.used -= partial.covered_bytes;
        Ok(partial.covered_bytes)
    }

    /// Whether a partial is open at `path`.
    pub fn has_partial(&self, path: &str) -> bool {
        self.partials.contains_key(path)
    }

    /// Bytes covered so far in the partial at `path`.
    pub fn partial_covered(&self, path: &str) -> Option<u64> {
        self.partials.get(path).map(|p| p.covered_bytes)
    }

    /// Marks a file world-readable.
    pub fn set_world_readable(&mut self, path: &str, flag: bool) -> Result<(), SpaceError> {
        let entry = self
            .files
            .get_mut(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        entry.world_readable = flag;
        Ok(())
    }

    /// Reads a file as `login`, enforcing the ownership rule.
    pub fn read(&self, path: &str, login: &str) -> Result<&FileEntry, SpaceError> {
        let entry = self
            .files
            .get(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        if entry.owner != login && !entry.world_readable {
            return Err(SpaceError::PermissionDenied {
                path: path.to_owned(),
                login: login.to_owned(),
            });
        }
        Ok(entry)
    }

    /// Reads without a permission check (the space's own machinery).
    pub fn read_raw(&self, path: &str) -> Result<&FileEntry, SpaceError> {
        self.files
            .get(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })
    }

    /// Deletes a file as `login` (owner only).
    pub fn delete(&mut self, path: &str, login: &str) -> Result<(), SpaceError> {
        let entry = self
            .files
            .get(path)
            .ok_or_else(|| SpaceError::FileNotFound {
                path: path.to_owned(),
            })?;
        if entry.owner != login {
            return Err(SpaceError::PermissionDenied {
                path: path.to_owned(),
                login: login.to_owned(),
            });
        }
        let len = entry.data.len() as u64;
        self.files.remove(path);
        self.used -= len;
        Ok(())
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Paths starting with `prefix`, in order.
    pub fn list(&self, prefix: &str) -> Vec<&str> {
        self.files
            .range(prefix.to_owned()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Bytes currently used.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// The quota in bytes.
    pub fn quota_bytes(&self) -> u64 {
        self.quota
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut fs = VirtualFs::unlimited();
        fs.write("/home/a/in.dat", vec![1, 2, 3], "alice").unwrap();
        let f = fs.read("/home/a/in.dat", "alice").unwrap();
        assert_eq!(f.data[..], [1, 2, 3]);
        assert_eq!(f.owner, "alice");
    }

    #[test]
    fn missing_file_errors() {
        let fs = VirtualFs::unlimited();
        assert!(matches!(
            fs.read("/nope", "alice"),
            Err(SpaceError::FileNotFound { .. })
        ));
    }

    #[test]
    fn ownership_enforced() {
        let mut fs = VirtualFs::unlimited();
        fs.write("/x", vec![0], "alice").unwrap();
        assert!(matches!(
            fs.read("/x", "bob"),
            Err(SpaceError::PermissionDenied { .. })
        ));
        fs.set_world_readable("/x", true).unwrap();
        fs.read("/x", "bob").unwrap();
        // Deleting still requires ownership.
        assert!(fs.delete("/x", "bob").is_err());
        fs.delete("/x", "alice").unwrap();
        assert!(!fs.exists("/x"));
    }

    #[test]
    fn quota_enforced() {
        let mut fs = VirtualFs::with_quota(10);
        fs.write("/a", vec![0; 6], "u").unwrap();
        assert!(matches!(
            fs.write("/b", vec![0; 5], "u"),
            Err(SpaceError::QuotaExceeded { .. })
        ));
        fs.write("/b", vec![0; 4], "u").unwrap();
        assert_eq!(fs.used_bytes(), 10);
    }

    #[test]
    fn overwrite_reclaims_quota() {
        let mut fs = VirtualFs::with_quota(10);
        fs.write("/a", vec![0; 8], "u").unwrap();
        // Replacing with a smaller file frees space.
        fs.write("/a", vec![0; 2], "u").unwrap();
        assert_eq!(fs.used_bytes(), 2);
        fs.write("/b", vec![0; 8], "u").unwrap();
    }

    #[test]
    fn delete_frees_quota() {
        let mut fs = VirtualFs::with_quota(4);
        fs.write("/a", vec![0; 4], "u").unwrap();
        fs.delete("/a", "u").unwrap();
        assert_eq!(fs.used_bytes(), 0);
        fs.write("/b", vec![0; 4], "u").unwrap();
    }

    #[test]
    fn listing_by_prefix() {
        let mut fs = VirtualFs::unlimited();
        for p in ["/a/1", "/a/2", "/b/1", "/a-other"] {
            fs.write(p, vec![], "u").unwrap();
        }
        assert_eq!(fs.list("/a/"), vec!["/a/1", "/a/2"]);
        assert_eq!(fs.list("/b/"), vec!["/b/1"]);
        assert_eq!(fs.list("/z"), Vec::<&str>::new());
        assert_eq!(fs.list("").len(), 4);
    }

    #[test]
    fn bad_paths_rejected() {
        let mut fs = VirtualFs::unlimited();
        assert!(matches!(
            fs.write("", vec![], "u"),
            Err(SpaceError::BadPath(_))
        ));
        assert!(matches!(
            fs.write("a\0b", vec![], "u"),
            Err(SpaceError::BadPath(_))
        ));
    }

    #[test]
    fn partial_is_invisible_until_committed() {
        let mut fs = VirtualFs::unlimited();
        fs.begin_partial("/staged", 10, "u").unwrap();
        fs.write_partial("/staged", 0, &[1; 5], "u").unwrap();
        // A crash here (dropping the fs) can only ever lose the partial:
        // no reader path sees it.
        assert!(!fs.exists("/staged"));
        assert!(fs.read("/staged", "u").is_err());
        assert!(fs.list("").is_empty());
        assert!(fs.has_partial("/staged"));
        // Commit before full coverage is refused — never a torn file.
        assert!(matches!(
            fs.commit_partial("/staged", None, false),
            Err(SpaceError::IncompletePartial {
                covered: 5,
                total: 10,
                ..
            })
        ));
        fs.write_partial("/staged", 5, &[2; 5], "u").unwrap();
        fs.commit_partial("/staged", None, false).unwrap();
        assert_eq!(fs.read("/staged", "u").unwrap().data[..], {
            let mut v = vec![1; 5];
            v.extend_from_slice(&[2; 5]);
            v
        });
        assert!(!fs.has_partial("/staged"));
    }

    #[test]
    fn partial_quota_charged_per_chunk_not_admission() {
        let mut fs = VirtualFs::with_quota(16);
        fs.write("/other", vec![0; 8], "u").unwrap();
        // A 12-byte partial fits the quota on its own but not beside
        // `/other`; admission still succeeds: nothing is charged yet.
        fs.begin_partial("/big", 12, "u").unwrap();
        assert_eq!(fs.used_bytes(), 8);
        fs.write_partial("/big", 0, &[0; 6], "u").unwrap();
        assert_eq!(fs.used_bytes(), 14);
        // The chunk that crosses the quota line is the one refused.
        assert!(matches!(
            fs.write_partial("/big", 6, &[0; 6], "u"),
            Err(SpaceError::QuotaExceeded {
                needed: 20,
                quota: 16
            })
        ));
        // Rewriting covered bytes is free.
        fs.write_partial("/big", 2, &[9; 4], "u").unwrap();
        assert_eq!(fs.used_bytes(), 14);
        // Abort refunds exactly what was charged.
        assert_eq!(fs.abort_partial("/big").unwrap(), 6);
        assert_eq!(fs.used_bytes(), 8);
    }

    /// A length claim beyond the whole quota is refused before anything
    /// is allocated or disturbed; one that could fit is still admitted
    /// with nothing charged.
    #[test]
    fn partial_beyond_the_whole_quota_is_refused_before_allocating() {
        let mut fs = VirtualFs::with_quota(1 << 20);
        // 9 chunks of u32::MAX bytes: what a hostile offer can claim.
        let claimed = 9 * u64::from(u32::MAX);
        assert_eq!(
            fs.begin_partial("/in/huge", claimed, "u"),
            Err(SpaceError::QuotaExceeded {
                needed: claimed,
                quota: 1 << 20
            })
        );
        assert!(!fs.has_partial("/in/huge"));
        assert_eq!(
            fs.begin_partial("/in/huge", (1 << 20) + 1, "u"),
            Err(SpaceError::QuotaExceeded {
                needed: (1 << 20) + 1,
                quota: 1 << 20
            })
        );
        // A refused re-offer leaves an open partial at the path alone.
        fs.begin_partial("/in/ok", 1 << 20, "u").unwrap();
        fs.write_partial("/in/ok", 0, &[1; 16], "u").unwrap();
        assert!(fs.begin_partial("/in/ok", claimed, "u").is_err());
        assert_eq!(fs.partial_covered("/in/ok"), Some(16));
        assert_eq!(fs.used_bytes(), 16);
    }

    /// The partial assembles in the allocation the committed file keeps.
    #[test]
    fn commit_publishes_the_allocation_begin_made() {
        let mut fs = VirtualFs::unlimited();
        fs.begin_partial("/f", 10, "u").unwrap();
        let staged = fs.partials["/f"].data.as_ptr();
        fs.write_partial("/f", 5, &[2; 5], "u").unwrap();
        fs.write_partial("/f", 0, &[1; 5], "u").unwrap();
        fs.commit_partial("/f", Some(sha256(&[1, 1, 1, 1, 1, 2, 2, 2, 2, 2])), false)
            .unwrap();
        assert_eq!(fs.read_raw("/f").unwrap().data.as_ptr(), staged);
    }

    /// Bytes handed in as an `Arc` are shared; a later write replaces the
    /// entry and leaves whoever holds the old bytes with what they read.
    #[test]
    fn write_shares_and_overwrite_replaces() {
        let mut fs = VirtualFs::with_quota(10);
        let first: Arc<[u8]> = vec![1; 6].into();
        fs.write("/a", Arc::clone(&first), "u").unwrap();
        assert!(Arc::ptr_eq(&fs.read_raw("/a").unwrap().data, &first));
        fs.write("/a", vec![2; 4], "u").unwrap();
        assert_eq!(fs.used_bytes(), 4);
        assert_eq!(first[..], [1; 6]);
        assert_eq!(fs.read_raw("/a").unwrap().data[..], [2; 4]);
    }

    #[test]
    fn partial_checksum_gate() {
        let mut fs = VirtualFs::unlimited();
        fs.begin_partial("/f", 5, "u").unwrap();
        fs.write_partial("/f", 0, b"hello", "u").unwrap();
        assert!(matches!(
            fs.commit_partial("/f", Some([0; 32]), false),
            Err(SpaceError::ChecksumMismatch { .. })
        ));
        // The failed commit keeps the partial for retry.
        assert!(fs.has_partial("/f"));
        fs.commit_partial("/f", Some(sha256(b"hello")), false)
            .unwrap();
        assert_eq!(fs.read("/f", "u").unwrap().data[..], b"hello"[..]);
    }

    #[test]
    fn world_readability_survives_resume() {
        let mut fs = VirtualFs::unlimited();
        fs.begin_partial("/pub", 4, "u").unwrap();
        fs.write_partial("/pub", 0, &[1, 2], "u").unwrap();
        // Resume: reopening with the same geometry keeps progress.
        fs.begin_partial("/pub", 4, "u").unwrap();
        assert_eq!(fs.partial_covered("/pub"), Some(2));
        fs.write_partial("/pub", 2, &[3, 4], "u").unwrap();
        fs.commit_partial("/pub", None, true).unwrap();
        // The flag set at commit is intact for a foreign reader.
        assert!(fs.read("/pub", "someone-else").is_ok());
    }

    #[test]
    fn partial_overwrite_of_visible_file_reclaims_quota() {
        let mut fs = VirtualFs::with_quota(16);
        fs.write("/f", vec![0; 8], "u").unwrap();
        fs.begin_partial("/f", 8, "u").unwrap();
        fs.write_partial("/f", 0, &[1; 8], "u").unwrap();
        assert_eq!(fs.used_bytes(), 16);
        fs.commit_partial("/f", None, false).unwrap();
        // Old visible bytes reclaimed at the atomic swap.
        assert_eq!(fs.used_bytes(), 8);
        assert_eq!(fs.read("/f", "u").unwrap().data[..], [1; 8]);
    }

    #[test]
    fn partial_bounds_and_ownership() {
        let mut fs = VirtualFs::unlimited();
        fs.begin_partial("/f", 10, "alice").unwrap();
        assert!(matches!(
            fs.write_partial("/f", 8, &[0; 4], "alice"),
            Err(SpaceError::BadOffset { .. })
        ));
        assert!(matches!(
            fs.write_partial("/f", 0, &[0; 2], "bob"),
            Err(SpaceError::PermissionDenied { .. })
        ));
        assert!(matches!(
            fs.write_partial("/nope", 0, &[0; 2], "alice"),
            Err(SpaceError::FileNotFound { .. })
        ));
    }

    #[test]
    fn checksum_tracks_content() {
        let mut fs = VirtualFs::unlimited();
        fs.write("/f", b"hello".to_vec(), "u").unwrap();
        let c1 = fs.read_raw("/f").unwrap().checksum();
        fs.write("/f", b"hellp".to_vec(), "u").unwrap();
        let c2 = fs.read_raw("/f").unwrap().checksum();
        assert_ne!(c1, c2);
    }
}
