//! A timing wrapper around the public [`StorageBackend`] trait: the
//! harness's only window below `UnicoreServer::handle_request` and
//! `ShardedNjs::step`, where the write-ahead journal does its work.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use unicore_store::{EventStore, MemoryBackend, StorageBackend, StoreError};

/// Counters of one (or several) timed backends. `Relaxed` throughout:
/// they are statistics and publish no other data.
#[derive(Default)]
pub struct StoreCounters {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub append_ns: AtomicU64,
}

/// A point-in-time copy of [`StoreCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreSnapshot {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
}

impl StoreCounters {
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            append_ns: self.append_ns.load(Ordering::Relaxed),
        }
    }
}

impl StoreSnapshot {
    /// Books the journal's write side under the batch's counts.
    pub fn count_into(&self, out: &mut crate::harness::BatchOut) {
        out.count("store.appends", self.appends as f64);
        out.count("store.append_bytes", self.append_bytes as f64);
        out.count("store.append_ns", self.append_ns as f64);
    }

    pub fn since(&self, earlier: &StoreSnapshot) -> StoreSnapshot {
        StoreSnapshot {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            append_ns: self.append_ns - earlier.append_ns,
        }
    }
}

/// A [`MemoryBackend`] whose appends are counted and timed.
/// Clones share both the storage and the counters, so a "disk" survives
/// the server that wrote to it (crash recovery).
#[derive(Clone)]
pub struct TimedBackend {
    inner: MemoryBackend,
    counters: Arc<StoreCounters>,
}

impl TimedBackend {
    pub fn new(counters: Arc<StoreCounters>) -> Self {
        TimedBackend {
            inner: MemoryBackend::new(),
            counters,
        }
    }

    /// Opens an [`EventStore`] over a clone of this backend.
    pub fn open_store(&self) -> EventStore {
        EventStore::open(Box::new(self.clone())).expect("open journal on a healthy backend")
    }
}

impl StorageBackend for TimedBackend {
    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, StoreError> {
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        let t = Instant::now();
        let out = self.inner.append(name, data);
        let c = &self.counters;
        c.append_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.append_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        out
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner.write_atomic(name, data)
    }

    fn remove(&mut self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }
}
