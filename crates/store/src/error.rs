//! Store errors.

use core::fmt;
use unicore_ajo::JobId;
use unicore_codec::CodecError;

/// Errors from the write-ahead log and event store.
#[derive(Debug)]
pub enum StoreError {
    /// A record or snapshot failed DER decoding.
    Codec(CodecError),
    /// A log segment is damaged somewhere other than its writable tail.
    Corrupt {
        /// The damaged segment's name.
        segment: String,
        /// Byte offset of the bad record frame.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// The storage backend failed (I/O error, or an injected crash).
    Backend(String),
    /// A finished job's manifest names a file that replaying the job's
    /// earlier records did not leave in its Uspace with that length: the
    /// journal has lost the record that carried the bytes.
    ManifestMismatch {
        /// The finished job.
        job: JobId,
        /// The file the manifest names.
        name: String,
        /// The length the manifest states.
        expected: u64,
        /// The length found in the rebuilt Uspace, if the file is there.
        found: Option<u64>,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Codec(e) => write!(f, "store codec error: {e}"),
            StoreError::Corrupt {
                segment,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "corrupt WAL segment {segment} at byte {offset}: {reason}"
                )
            }
            StoreError::Backend(msg) => write!(f, "storage backend error: {msg}"),
            StoreError::ManifestMismatch {
                job,
                name,
                expected,
                found,
            } => {
                write!(f, "job {job}: manifest lists {name} ({expected} bytes), ")?;
                match found {
                    Some(len) => write!(f, "replay rebuilt it with {len} bytes"),
                    None => write!(f, "replay rebuilt no such file"),
                }
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Backend(e.to_string())
    }
}
