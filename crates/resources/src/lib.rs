//! # unicore-resources
//!
//! The UNICORE resource model (§5.4 of the paper): per-Vsite *resource
//! pages* with limits, architecture, performance and software inventory,
//! authored through a resource-page *editor*, published in a per-Usite
//! *directory* stored in ASN.1 (DER), and consulted by both the JPA (to
//! build admissible jobs) and the NJS (to re-check on arrival).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod check;
pub mod directory;
pub mod page;

pub use arch::Architecture;
pub use check::{admissible, check_request, Violation};
pub use directory::{EditorError, ResourceDirectory, ResourcePageEditor};
pub use page::{
    deployment_page, PerformanceInfo, ResourceLimits, ResourcePage, SoftwareEntry, SoftwareKind,
};
