//! # unicore-ajo
//!
//! The Abstract Job Object: UNICORE's protocol data model (Figure 3 of the
//! paper), reproduced in full.
//!
//! The AJO "is a recursive Java object specifying the protocol between GUI,
//! server, and system" (§4). Here it is a family of Rust types with a
//! canonical DER wire form:
//!
//! - [`job::AbstractJob`] — the recursive job: directed acyclic job graph
//!   of tasks and sub-jobs, destination Vsite, user attributes, dependency
//!   edges (optionally carrying file names), and the portfolio of
//!   workstation files travelling inside the AJO.
//! - [`task::AbstractTask`] — the task hierarchy: User / Script / Compile /
//!   Link execute tasks and Import / Export / Transfer file tasks.
//! - [`service::AbstractService`] — Control / List / Query services.
//! - [`outcome`] — the mirrored `Outcome` hierarchy with the JMC's
//!   colour-coded statuses.
//! - [`resources::ResourceRequest`] — the abstract resource model (§5.4).

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod error;
pub mod ids;
pub mod job;
pub mod outcome;
pub mod resources;
pub mod service;
pub mod task;

pub use error::AjoError;
pub use ids::{ActionId, JobId, UserAttributes, VsiteAddress};
pub use job::{AbstractJob, Dependency, DependencyIndex, GraphNode, PortfolioFile};
pub use outcome::{
    ActionStatus, GridView, JobOutcome, JobSummary, MonitorReport, OutcomeNode, ServiceOutcome,
    SiteHealth, SiteStatus, StatusColor, TaskOutcome, UnreachableReason, VsiteHealth,
    HEADLINE_COUNTERS,
};
pub use resources::ResourceRequest;
pub use service::{AbstractService, ControlOp, DetailLevel};
pub use task::{AbstractTask, DataLocation, ExecuteKind, FileKind, TaskKind};
