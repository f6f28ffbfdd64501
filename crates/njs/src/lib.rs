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
//! - [`ShardedNjs`] — the engine (the crate-private `njs` module): one
//!   per Usite, driving every Vsite of it on one thread. Each step is
//!   rounds of its event-driven job loop, each ended by a merge phase
//!   that applies the effects crossing a Vsite boundary in a fixed order
//!   (`njs/cross.rs`).
//! - [`accounting`] — the per-(Vsite, login) usage report
//! - [`IdemKey`] — the idempotency key a consign is remembered by

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod error;
mod key;
mod njs;
pub mod oracle;
pub mod translation;

pub use accounting::{UsageReport, UsageRow};
pub use error::NjsError;
pub use key::IdemKey;
pub use njs::{
    ConsignMeta, OutgoingItem, RecoveryReport, ShardedNjs, VsiteRuntime, INCOMING_PREFIX,
};
pub use oracle::{synthetic_content, WorkOracle};
pub use translation::{incarnate_execute, incarnate_execute_in_queue, TranslationTable};
