//! # unicore-batch
//!
//! The batch-subsystem level (tier 3) of the UNICORE architecture as a
//! discrete-event simulator: vendor batch systems with FCFS + EASY-backfill
//! scheduling, per-architecture submit-script dialects, job lifecycles,
//! output capture and accounting.
//!
//! The paper's deployment covered "Cray T3E, Fujitsu VPP/700, IBM SP-2,
//! and NEC SX-4" (§5.7); [`script`] reproduces each machine's directive
//! dialect so the NJS translation tables have something real to target,
//! and [`workload`] generates the local background load that UNICORE jobs
//! compete with ("jobs delivered through UNICORE are treated the same way
//! any other batch job is treated", §5.5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod job;
pub mod script;
pub mod system;
pub mod workload;

pub use job::{
    AccountingRecord, BatchJobId, BatchJobSpec, BatchStatus, CompletedJob, IdHasher, IdMap,
    QueueClass, WorkModel,
};
pub use script::{
    directive_prefix, memory_directive, processors_directive, script_matches_dialect,
    time_directive,
};
pub use system::{BatchSystem, SubmitError, EXIT_CANCELLED, EXIT_TIME_LIMIT};
pub use workload::{generate_background, Arrival, WorkloadModel};
