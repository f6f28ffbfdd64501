//! # unicore-njs
//!
//! The Network Job Supervisor — the server-level engine of the UNICORE
//! architecture (§4.2, §5.5): it turns Abstract Job Objects into real
//! batch jobs via site-configured translation tables, creates job
//! directories (Uspaces), stages data, dispatches dependency-ordered work
//! to the batch subsystems, forwards job groups destined for other Usites,
//! collects outputs, and answers the Control/List/Query services.
//!
//! - [`translation`] — the translation tables and script incarnation
//! - [`oracle`] — the deterministic work model that stands in for real
//!   computation in the simulated batch systems
//! - [`njs`] — the engine itself
//! - [`shard`] — the sharded facade: N independent shards stepped in
//!   index order on one thread, with cross-shard effects applied between
//!   rounds in `sort_key` order

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod error;
pub mod njs;
pub mod oracle;
pub mod shard;
pub mod translation;

pub use accounting::{usage_report, UsageReport, UsageRow};
pub use error::NjsError;
pub use njs::{ConsignMeta, Njs, OutgoingItem, RecoveryReport, VsiteRuntime, INCOMING_PREFIX};
pub use oracle::{synthetic_content, AmdahlOracle, DeterministicOracle, WorkOracle};
pub use shard::ShardedNjs;
pub use translation::{incarnate_execute, incarnate_execute_in_queue, TranslationTable};
