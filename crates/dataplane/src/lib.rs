//! # unicore-dataplane
//!
//! The Uspace data plane: chunked, resumable, backpressured streaming of
//! Import/Export/Transfer files between Usites.
//!
//! The paper's §5 data model makes per-job Uspaces, site Xspaces, and the
//! Import/Export/Transfer tasks the *only* crossings between user data and
//! the grid. Until now those crossings moved whole files inside a single
//! protocol message; production grids (Streit et al., "UNICORE — From
//! Project Results to Production Grids") live or die on restartable,
//! bounded-memory staging. This crate supplies the transfer engine:
//!
//! - [`TransferManifest`] — the contract for one file crossing: identity,
//!   length, chunk geometry, per-chunk SHA-256 sums and the whole-file sum.
//! - [`SenderState`] — sliding-window sender: at most `window` chunks
//!   un-acked at a time, resume-from-last-acked-chunk on reconnect.
//! - [`ReceiverState`] — idempotent receiver: verifies each chunk sum,
//!   absorbs duplicates, tracks the contiguous watermark it acks.
//!
//! The states are transport-agnostic: the `core` server drives the sender
//! over Envelope-framed requests (each chunk rides the E14 seq/ack retry
//! machinery), the NJS drives the receiver into a Uspace partial write,
//! and `unicore-store` journals receiver progress so a crash-restarted
//! Usite resumes mid-stream instead of restarting.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod manifest;
pub mod receiver;
pub mod sender;

pub use manifest::{TransferKey, TransferManifest, DEFAULT_CHUNK_SIZE};
pub use receiver::{ChunkDisposition, ReceiverState};
pub use sender::{SenderState, DEFAULT_WINDOW};
