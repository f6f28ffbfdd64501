//! # unicore-uspace
//!
//! UNICORE's data model (paper §4, §5.6): the distinction between data
//! *inside* UNICORE (per-job Uspaces) and *outside* (Xspaces at Vsites and
//! the user's workstation), with imports, exports and transfers as the only
//! crossings.
//!
//! - [`files::VirtualFs`] — an in-memory filesystem with ownership,
//!   world-readability, quotas and checksums.
//! - [`vspace::Vspace`] — one Vsite's Xspace plus its job Uspaces, with the
//!   local copy operations the NJS invokes for imports/exports and the
//!   read-out used by cross-site transfers.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod error;
pub mod files;
pub mod vspace;

pub use error::SpaceError;
pub use files::{FileEntry, VirtualFs};
pub use vspace::Vspace;
