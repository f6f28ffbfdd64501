//! # unicore-store
//!
//! Durable write-ahead job spool for the NJS and the UNICORE server.
//!
//! The paper's robustness claim (§5.3) is that the asynchronous
//! consign/poll protocol "protects against any unreliability" — which is
//! only true if a server restart does not lose the consigned jobs. This
//! crate supplies that durability layer, the step production UNICORE took
//! on its way from research prototype to production grid middleware:
//!
//! * an append-only **write-ahead log** of canonical DER records
//!   (re-using `unicore-codec`) with per-record CRC-32 framing — the
//!   checksum runs on a carry-less-multiply kernel where the CPU has one
//!   and on table code elsewhere, see [`crc`],
//! * **segment rotation** so the log is a series of bounded files,
//! * **snapshot + compaction** folding the history of finished jobs into
//!   a minimal equivalent event sequence,
//! * a typed **event-store API** ([`StoreEvent`]: `JobConsigned`,
//!   `JobIncarnated`, `TaskStateChanged`, `OutcomeStored`, `JobPurged`),
//!   with [`EventBatch`] framing bulk records straight from borrowed
//!   bytes,
//! * pluggable [`StorageBackend`]s: an in-memory backend whose handle
//!   survives a simulated crash (for deterministic kill-at-any-stage
//!   tests) and a real filesystem backend.
//!
//! **Each payload byte is journalled once per site.** File contents
//! travel in the record of the step that produced them —
//! `JobConsigned.staged`, `TaskStateChanged.files`,
//! `TransferChunkStored.data` — and nowhere else: `OutcomeStored`'s
//! manifest lists each Uspace file by name and length
//! ([`ManifestEntry::Stored`]), replay checks that list against the
//! Uspace the earlier records have just rebuilt and fails closed
//! ([`StoreError::ManifestMismatch`]) on a missing or differently sized
//! file, and compaction keeps a finished job's file-carrying task records
//! beside its consign and outcome. Journals written while manifests still
//! carried contents inline ([`ManifestEntry::Inline`]) open, replay and
//! compact unchanged: the two spellings differ in the type of an entry's
//! second element, so no version marker is needed.
//!
//! Torn tails are expected: replay verifies each record's CRC and stops
//! cleanly at the first incomplete or corrupt record of the *newest*
//! segment — exactly what a crash mid-`append` leaves behind. Corruption
//! anywhere else is reported as an error, never silently skipped.

#![warn(missing_docs)]
// `deny`, not the workspace's usual `forbid`: `crc::x86` — the
// carry-less-multiply CRC kernel, the one module here allowed `unsafe` —
// opts out with an inner `allow`.
#![deny(unsafe_code)]

pub mod backend;
pub mod crc;
pub mod error;
pub mod events;
pub mod store;
pub mod wal;

pub use backend::{FileBackend, MemoryBackend, StorageBackend};
pub use error::StoreError;
pub use events::{ForeignOrigin, ManifestEntry, OwnerRecord, StoreEvent};
pub use store::{
    events_by_job, CompactionStats, EventBatch, EventStore, Replay, DEFAULT_ROTATE_AT,
};
pub use wal::{decode_record, encode_record, Decoded, RECORD_HEADER_LEN};
