//! Storage backends: named append-only blobs.
//!
//! The WAL sees storage as a flat namespace of blobs (log segments and
//! snapshots). Two implementations are provided: a process-shared
//! in-memory backend for deterministic crash testing, and a directory-
//! backed filesystem backend for real durability.

use crate::error::StoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// A flat namespace of named blobs with append and atomic-replace writes.
pub trait StorageBackend: Send {
    /// Names of all stored blobs, sorted.
    fn list(&self) -> Result<Vec<String>, StoreError>;
    /// Reads a whole blob.
    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError>;
    /// Appends bytes to a blob, creating it if absent.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;
    /// Replaces a blob's contents atomically (all-or-nothing).
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError>;
    /// Deletes a blob (no error if absent).
    fn remove(&mut self, name: &str) -> Result<(), StoreError>;
}

#[derive(Default)]
struct MemoryInner {
    blobs: HashMap<String, Vec<u8>>,
    /// Appends remaining before the simulated machine dies. `None` means
    /// the machine is healthy.
    appends_until_crash: Option<u64>,
    /// When crashing, how many bytes of the fatal append still reach
    /// "disk" (models a torn write).
    torn_bytes: usize,
    crashed: bool,
    /// Successful appends so far (crash-point enumeration in tests).
    appends: u64,
}

/// An in-memory backend whose storage is shared between clones.
///
/// A "machine" crash is simulated by dropping the [`crate::EventStore`]
/// (and everything above it) while a clone of this handle survives, then
/// re-opening a store on the clone — exactly the durability contract a
/// real disk gives a restarted server. [`MemoryBackend::crash_after_appends`]
/// additionally kills the backend mid-run so crash points *inside* the
/// pipeline can be exercised, optionally leaving a torn final record.
#[derive(Clone)]
pub struct MemoryBackend {
    inner: Arc<Mutex<MemoryInner>>,
}

impl Default for MemoryBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryBackend {
    /// An empty shared store.
    pub fn new() -> Self {
        MemoryBackend {
            inner: Arc::new(Mutex::new(MemoryInner::default())),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms the simulated crash: after `n` more appends the backend fails
    /// every operation, and the fatal append persists only `torn_bytes`
    /// of its payload (a torn write for the CRC check to catch).
    pub fn crash_after_appends(&self, n: u64, torn_bytes: usize) {
        let mut inner = self.lock();
        inner.appends_until_crash = Some(n);
        inner.torn_bytes = torn_bytes;
    }

    /// Heals a crashed backend (models the machine rebooting with its
    /// disk intact).
    pub fn reboot(&self) {
        let mut inner = self.lock();
        inner.crashed = false;
        inner.appends_until_crash = None;
    }

    /// Whether the simulated machine is down.
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Total bytes across all blobs.
    pub fn total_bytes(&self) -> u64 {
        self.lock().blobs.values().map(|b| b.len() as u64).sum()
    }

    /// Number of appends that have fully reached "disk". Crash-recovery
    /// tests run a scenario once uncrashed to learn this count, then
    /// re-run it with the fatal append placed at every point below it.
    pub fn append_count(&self) -> u64 {
        self.lock().appends
    }
}

impl StorageBackend for MemoryBackend {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        let inner = self.lock();
        if inner.crashed {
            return Err(StoreError::Backend("simulated crash".into()));
        }
        let mut names: Vec<String> = inner.blobs.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        let inner = self.lock();
        if inner.crashed {
            return Err(StoreError::Backend("simulated crash".into()));
        }
        inner
            .blobs
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Backend(format!("no such blob {name}")))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(StoreError::Backend("simulated crash".into()));
        }
        if let Some(remaining) = inner.appends_until_crash {
            if remaining == 0 {
                // The fatal write: only a prefix reaches disk.
                let torn = inner.torn_bytes.min(data.len());
                let prefix = data[..torn].to_vec();
                inner
                    .blobs
                    .entry(name.to_owned())
                    .or_default()
                    .extend(prefix);
                inner.crashed = true;
                return Err(StoreError::Backend("simulated crash".into()));
            }
            inner.appends_until_crash = Some(remaining - 1);
        }
        // Looked up by `&str`: a name is allocated on a blob's first
        // append only.
        match inner.blobs.get_mut(name) {
            Some(blob) => blob.extend_from_slice(data),
            None => {
                inner.blobs.insert(name.to_owned(), data.to_vec());
            }
        }
        inner.appends += 1;
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(StoreError::Backend("simulated crash".into()));
        }
        inner.blobs.insert(name.to_owned(), data.to_vec());
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(StoreError::Backend("simulated crash".into()));
        }
        inner.blobs.remove(name);
        Ok(())
    }
}

/// A directory-backed filesystem backend.
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) `dir` as the blob namespace.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileBackend { dir })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl StorageBackend for FileBackend {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    // Skip half-written atomic temp files from a crash.
                    if !name.ends_with(".tmp") {
                        names.push(name);
                    }
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        Ok(std::fs::read(self.path(name))?)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(data)?;
        f.sync_data()?;
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let tmp = self.path(&format!("{name}.tmp"));
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, self.path(name))?;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_survives_handle_clone() {
        let a = MemoryBackend::new();
        let mut writer = a.clone();
        writer.append("x", b"hello").unwrap();
        drop(writer);
        assert_eq!(a.read("x").unwrap(), b"hello");
    }

    #[test]
    fn memory_crash_tears_final_append() {
        let b = MemoryBackend::new();
        let mut w = b.clone();
        w.append("log", b"aaaa").unwrap();
        b.crash_after_appends(1, 2);
        w.append("log", b"bbbb").unwrap();
        assert!(w.append("log", b"cccc").is_err());
        assert!(b.is_crashed());
        b.reboot();
        // 4 + 4 + 2 torn bytes survived.
        assert_eq!(b.read("log").unwrap(), b"aaaabbbbcc");
    }

    #[test]
    fn file_backend_round_trip() {
        let dir = std::env::temp_dir().join(format!("unicore-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut f = FileBackend::open(&dir).unwrap();
        f.append("seg", b"one").unwrap();
        f.append("seg", b"two").unwrap();
        f.write_atomic("snap", b"state").unwrap();
        assert_eq!(f.read("seg").unwrap(), b"onetwo");
        assert_eq!(
            f.list().unwrap(),
            vec!["seg".to_string(), "snap".to_string()]
        );
        f.remove("seg").unwrap();
        assert_eq!(f.list().unwrap(), vec!["snap".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
