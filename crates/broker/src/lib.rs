//! # unicore-broker
//!
//! The resource broker the paper's §6 outlook promises: "a resource
//! broker which supports the users in a way that they can specify the
//! needed resources on a more abstract level and the broker finds the
//! appropriate execution server for it. Together with accounting
//! functions and load information the resource broker can find the best
//! system for an application with given time constraints."
//!
//! Three pieces, all deterministic so placements replay byte-identically
//! under a fixed seed:
//!
//! - [`rank`] scores admissible Vsites by expected wait (free nodes,
//!   queue length), observed load, the page's advertised price, and the
//!   staging cost of shipping the job's data there, and returns the full
//!   ranked list — the chosen site first, the fallbacks after it, which
//!   is exactly the order a chaos retarget walks when the chosen site is
//!   quarantined or goes dark.
//! - [`FairShare`] tracks decayed per-user usage and answers the
//!   admission question "is this tenant over its fair share right now?",
//!   so bursty tenants queue behind their own backlog instead of
//!   starving everyone else.
//! - [`jain_index`] measures how fair an allocation actually was, for
//!   the E16 experiment's acceptance gate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod score;
mod shares;

pub use score::{rank, BrokerPolicy, Candidate, LoadSnapshot, RankedOffer};
pub use shares::{FairShare, FairShareConfig, QuotaDenial};

use unicore_ajo::{AbstractJob, GraphNode, ResourceRequest};

/// Estimated cost of one job in node-seconds: the sum over every execute
/// task (at every nesting level) of `processors × run_time`. This is the
/// currency [`FairShare`] charges at admission — an *estimate*, like any
/// batch scheduler's, refined against nothing because refunds would make
/// admission decisions depend on completion order.
pub fn job_cost(job: &AbstractJob) -> u64 {
    let mut cost = 0u64;
    for (_, node) in &job.nodes {
        match node {
            GraphNode::Task(task) => {
                if task.is_execute() {
                    cost = cost.saturating_add(
                        (task.resources.processors as u64)
                            .saturating_mul(task.resources.run_time_secs),
                    );
                }
            }
            GraphNode::SubJob(sub) => cost = cost.saturating_add(job_cost(sub)),
        }
    }
    cost
}

/// The abstract request a whole job makes of one site: the maximum of
/// each resource axis over its execute tasks (tasks run one at a time
/// under the dependency graph, so maxima — not sums — bound what the
/// site must offer; run time is the one axis that accumulates).
pub fn aggregate_request(job: &AbstractJob) -> ResourceRequest {
    fn fold(job: &AbstractJob, acc: &mut ResourceRequest) {
        for (_, node) in &job.nodes {
            match node {
                GraphNode::Task(task) => {
                    if task.is_execute() {
                        let r = &task.resources;
                        acc.processors = acc.processors.max(r.processors);
                        acc.memory_mb = acc.memory_mb.max(r.memory_mb);
                        acc.disk_permanent_mb = acc.disk_permanent_mb.max(r.disk_permanent_mb);
                        acc.disk_temporary_mb = acc.disk_temporary_mb.max(r.disk_temporary_mb);
                        acc.run_time_secs = acc.run_time_secs.saturating_add(r.run_time_secs);
                    }
                }
                GraphNode::SubJob(sub) => fold(sub, acc),
            }
        }
    }
    let mut acc = ResourceRequest {
        processors: 1,
        run_time_secs: 0,
        memory_mb: 0,
        disk_permanent_mb: 0,
        disk_temporary_mb: 0,
    };
    fold(job, &mut acc);
    acc.run_time_secs = acc.run_time_secs.max(60);
    acc
}

/// Megabytes (rounded up) the job's portfolio would have to be staged to
/// a site that does not already hold it — the data-plane cost a
/// retargeting decision weighs against a shorter queue elsewhere.
pub fn staging_mb(job: &AbstractJob) -> u64 {
    let bytes: u64 = job.portfolio.iter().map(|p| p.data.len() as u64).sum();
    bytes.div_ceil(1024 * 1024)
}

/// Jain's fairness index over per-tenant allocations: `(Σx)² / (n·Σx²)`.
/// 1.0 is perfectly fair; `1/n` is one tenant taking everything. Empty
/// or all-zero inputs count as perfectly fair (nothing was contested).
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_ajo::{
        AbstractTask, ActionId, ExecuteKind, TaskKind, UserAttributes, VsiteAddress,
    };

    fn job_with(tasks: &[(u32, u64)]) -> AbstractJob {
        let mut job = AbstractJob::new(
            "j",
            VsiteAddress::new("FZJ", "T3E"),
            UserAttributes::new("C=DE, CN=alice", "zam"),
        );
        for (i, &(procs, secs)) in tasks.iter().enumerate() {
            job.nodes.push((
                ActionId(i as u64 + 1),
                GraphNode::Task(AbstractTask {
                    name: format!("t{i}"),
                    resources: ResourceRequest::minimal()
                        .with_processors(procs)
                        .with_run_time(secs),
                    kind: TaskKind::Execute(ExecuteKind::Script { script: "x".into() }),
                }),
            ));
        }
        job
    }

    #[test]
    fn job_cost_sums_node_seconds() {
        let job = job_with(&[(8, 3600), (2, 600)]);
        assert_eq!(job_cost(&job), 8 * 3600 + 2 * 600);
    }

    #[test]
    fn aggregate_takes_maxima_and_sums_run_time() {
        let job = job_with(&[(8, 3600), (64, 600)]);
        let agg = aggregate_request(&job);
        assert_eq!(agg.processors, 64);
        assert_eq!(agg.run_time_secs, 4200);
    }

    #[test]
    fn jain_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[5.0, 5.0, 5.0, 5.0]), 1.0);
        let skew = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-9);
    }

    #[test]
    fn staging_rounds_up() {
        let mut job = job_with(&[(1, 60)]);
        job.portfolio.push(unicore_ajo::PortfolioFile {
            name: "x".into(),
            data: vec![0u8; 1024 * 1024 + 1].into(),
        });
        assert_eq!(staging_mb(&job), 2);
    }
}
