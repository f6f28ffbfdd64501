//! Outcomes — the mirror hierarchy of `AbstractAction` results.
//!
//! "A Java class Outcome is defined to contain the status of an abstract
//! action and the results of its execution. Outcome contains a subclass for
//! each subclass of AbstractAction" (§5.3).

use crate::ids::{ActionId, JobId};
use crate::service::DetailLevel;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_telemetry::{ActiveAlert, FlightEvent, MetricsSnapshot, SpanSummary};

/// Status of an action, colour-coded by the JMC ("the icons are colored to
/// reflect the job status in a seamless way", §5.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActionStatus {
    /// Not yet dispatched.
    #[default]
    Pending,
    /// Accepted by an NJS, waiting on dependencies.
    Consigned,
    /// In a batch queue at the destination system.
    Queued,
    /// Executing.
    Running,
    /// Held by user request.
    Held,
    /// Completed successfully.
    Successful,
    /// Completed with failure.
    NotSuccessful,
    /// Aborted by the user or a dependency failure.
    Killed,
}

/// The JMC's status colours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusColor {
    /// Finished OK.
    Green,
    /// In progress.
    Yellow,
    /// Waiting.
    Blue,
    /// Failed or killed.
    Red,
    /// Held.
    Grey,
}

impl ActionStatus {
    /// Terminal statuses never change again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            ActionStatus::Successful | ActionStatus::NotSuccessful | ActionStatus::Killed
        )
    }

    /// Whether the action ended well.
    pub fn is_success(&self) -> bool {
        matches!(self, ActionStatus::Successful)
    }

    /// The display colour.
    pub fn color(&self) -> StatusColor {
        match self {
            ActionStatus::Successful => StatusColor::Green,
            ActionStatus::Running | ActionStatus::Queued => StatusColor::Yellow,
            ActionStatus::Pending | ActionStatus::Consigned => StatusColor::Blue,
            ActionStatus::NotSuccessful | ActionStatus::Killed => StatusColor::Red,
            ActionStatus::Held => StatusColor::Grey,
        }
    }

    fn to_enum(self) -> u32 {
        match self {
            ActionStatus::Pending => 0,
            ActionStatus::Consigned => 1,
            ActionStatus::Queued => 2,
            ActionStatus::Running => 3,
            ActionStatus::Held => 4,
            ActionStatus::Successful => 5,
            ActionStatus::NotSuccessful => 6,
            ActionStatus::Killed => 7,
        }
    }

    fn from_enum(v: u32) -> Result<Self, CodecError> {
        Ok(match v {
            0 => ActionStatus::Pending,
            1 => ActionStatus::Consigned,
            2 => ActionStatus::Queued,
            3 => ActionStatus::Running,
            4 => ActionStatus::Held,
            5 => ActionStatus::Successful,
            6 => ActionStatus::NotSuccessful,
            7 => ActionStatus::Killed,
            _ => return Err(CodecError::BadValue("ActionStatus")),
        })
    }
}

/// Result of a task (execute or file).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaskOutcome {
    /// Final (or current) status.
    pub status: ActionStatus,
    /// Batch exit code, for execute tasks that ran.
    pub exit_code: Option<i32>,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
    /// Bytes moved, for file tasks.
    pub bytes_staged: u64,
    /// Human-readable detail (error messages, queue info).
    pub message: String,
    /// Flight-recorder trace: the lifecycle events leading up to a
    /// failure, attached by the NJS so the JMC can show *why* a task
    /// went red. Empty for successful or still-running tasks (and on
    /// sites with the recorder disabled); omitted from the wire form
    /// when empty, keeping old encodings byte-identical.
    pub flight: Vec<FlightEvent>,
}

impl TaskOutcome {
    /// A fresh pending outcome.
    pub fn pending() -> Self {
        TaskOutcome::default()
    }

    /// A successful outcome with an exit code.
    pub fn success_with_exit(exit_code: i32) -> Self {
        TaskOutcome {
            status: ActionStatus::Successful,
            exit_code: Some(exit_code),
            ..Default::default()
        }
    }

    /// A failure with a message.
    pub fn failure(message: impl Into<String>) -> Self {
        TaskOutcome {
            status: ActionStatus::NotSuccessful,
            message: message.into(),
            ..Default::default()
        }
    }
}

/// Result tree of a job: mirrors the AJO's node structure.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobOutcome {
    /// Aggregated job status.
    pub status: ActionStatus,
    /// Children outcomes keyed by the AJO's node ids.
    pub children: Vec<(ActionId, OutcomeNode)>,
}

/// A node of the outcome tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeNode {
    /// Result of a leaf task.
    Task(TaskOutcome),
    /// Result of a sub-job.
    Job(JobOutcome),
}

impl OutcomeNode {
    /// The node's status.
    pub fn status(&self) -> ActionStatus {
        match self {
            OutcomeNode::Task(t) => t.status,
            OutcomeNode::Job(j) => j.status,
        }
    }
}

impl JobOutcome {
    /// Looks up a child outcome.
    pub fn child(&self, id: ActionId) -> Option<&OutcomeNode> {
        self.children.iter().find(|(i, _)| *i == id).map(|(_, n)| n)
    }

    /// Mutable child lookup.
    pub fn child_mut(&mut self, id: ActionId) -> Option<&mut OutcomeNode> {
        self.children
            .iter_mut()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n)
    }

    /// This tree as a status query at `detail` returns it: the job's
    /// status alone, with its job groups (recursively, without their
    /// tasks), or all of it.
    pub fn pruned(&self, detail: DetailLevel) -> JobOutcome {
        match detail {
            DetailLevel::JobOnly => JobOutcome {
                status: self.status,
                children: Vec::new(),
            },
            DetailLevel::Groups => JobOutcome {
                status: self.status,
                children: self
                    .children
                    .iter()
                    .filter_map(|(id, node)| match node {
                        OutcomeNode::Job(j) => {
                            Some((*id, OutcomeNode::Job(j.pruned(DetailLevel::Groups))))
                        }
                        OutcomeNode::Task(_) => None,
                    })
                    .collect(),
            },
            DetailLevel::Tasks => self.clone(),
        }
    }

    /// Recomputes this job's aggregate status from its children:
    /// any red → red; else any active → running; else any pending → pending
    /// (consigned); else green.
    pub fn aggregate_status(&mut self) {
        let mut any_failed = false;
        let mut any_active = false;
        let mut any_waiting = false;
        let mut any_held = false;
        for (_, child) in &self.children {
            match child.status() {
                ActionStatus::NotSuccessful | ActionStatus::Killed => any_failed = true,
                ActionStatus::Running | ActionStatus::Queued => any_active = true,
                ActionStatus::Pending | ActionStatus::Consigned => any_waiting = true,
                ActionStatus::Held => any_held = true,
                ActionStatus::Successful => {}
            }
        }
        self.status = if any_failed {
            ActionStatus::NotSuccessful
        } else if any_active {
            ActionStatus::Running
        } else if any_held {
            ActionStatus::Held
        } else if any_waiting {
            ActionStatus::Consigned
        } else {
            ActionStatus::Successful
        };
    }
}

/// A summary row returned by the List service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSummary {
    /// The job's global id.
    pub job: JobId,
    /// The job's name.
    pub name: String,
    /// Current aggregate status.
    pub status: ActionStatus,
}

/// Health gauges for one Vsite, as seen by its NJS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VsiteHealth {
    /// Vsite name within the Usite.
    pub vsite: String,
    /// Free nodes on the target system.
    pub free_nodes: i64,
    /// Jobs waiting in the batch queue.
    pub queue_length: i64,
    /// Jobs currently executing.
    pub running: i64,
    /// Jobs flagged by the slow-dispatch watchdog: consigned but with
    /// no node dispatched after the watchdog threshold.
    pub stuck_jobs: i64,
}

/// One Usite's contribution to a `Monitor` outcome: its metrics, span
/// breakdown and per-Vsite health, namespaced by the Usite name so a
/// merged grid view stays attributable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport {
    /// The reporting Usite.
    pub usite: String,
    /// Point-in-time copy of the site's metrics registry.
    pub metrics: MetricsSnapshot,
    /// Per-name aggregation of the site's finished spans.
    pub spans: Vec<SpanSummary>,
    /// Health gauges for each Vsite the NJS fronts.
    pub vsites: Vec<VsiteHealth>,
    /// Aggregation-plane snapshot epoch this report corresponds to,
    /// when the site participates in the E17 tree. Encoded as a
    /// trailing-optional DER field so pre-E17 peers decode (and
    /// re-encode) reports byte-identically.
    pub epoch: Option<u64>,
}

/// Counters every JMC monitor view leads with — the "is the grid doing
/// work" headline a site ships in its compact [`SiteStatus`] row.
pub const HEADLINE_COUNTERS: [&str; 5] = [
    "njs.consigned",
    "njs.incarnations",
    "njs.jobs.completed",
    "store.wal.repairs",
    "gateway.audit.dropped",
];

/// Why a site is unreachable, mirroring the federation's fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnreachableReason {
    /// The site's server crashed and has not restarted.
    Crash,
    /// The network path to the site is severed.
    Partition,
    /// The federation's circuit breaker has the site quarantined.
    Quarantine,
}

/// Freshness/reachability of one site's row in a grid view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteHealth {
    /// Row content is within the staleness budget.
    Live,
    /// The site is presumed up but its row content is stale (no recent
    /// aggregation push, or a subtree edge went silent).
    Stale,
    /// The site is known dark; the row is a tombstone.
    Unreachable(UnreachableReason),
}

impl SiteHealth {
    /// True for either unreachable tombstone flavour.
    pub fn is_unreachable(&self) -> bool {
        matches!(self, SiteHealth::Unreachable(_))
    }
}

/// One site's compact row in the hierarchical grid view: health,
/// per-Vsite gauges and headline counters — deliberately *not* the full
/// `MetricsSnapshot`, which stays on the per-site deep-dive path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStatus {
    /// The reported Usite.
    pub usite: String,
    /// Origin-owned snapshot epoch (0 = never heard from).
    pub epoch: u64,
    /// Sim time at which the row content was produced.
    pub updated_at: u64,
    /// Freshness/reachability of this row.
    pub health: SiteHealth,
    /// Health gauges for each Vsite the site's NJS fronts.
    pub vsites: Vec<VsiteHealth>,
    /// `(counter, value)` for each [`HEADLINE_COUNTERS`] entry.
    pub headline: Vec<(String, u64)>,
}

impl SiteStatus {
    /// Headline counter value by name (0 when absent).
    pub fn headline(&self, name: &str) -> u64 {
        self.headline
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// The assembled hierarchical grid view: one row per known site, the
/// tree-merged metrics snapshot and the currently-firing SLO alerts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridView {
    /// Site that assembled the view (the tree root, or a subtree node
    /// answering degraded when its uplink is dark).
    pub root: String,
    /// Sim time of assembly.
    pub at: u64,
    /// One row per site, ascending by Usite name. Always complete: a
    /// site the assembler has never heard from still gets a row,
    /// marked [`SiteHealth::Stale`] or unreachable.
    pub sites: Vec<SiteStatus>,
    /// Commutative/associative merge of every reachable site's metrics.
    pub merged: MetricsSnapshot,
    /// SLO alerts firing at assembly time.
    pub alerts: Vec<ActiveAlert>,
}

impl GridView {
    /// Row for a site, if present.
    pub fn site(&self, usite: &str) -> Option<&SiteStatus> {
        self.sites.iter().find(|s| s.usite == usite)
    }

    /// Number of rows currently marked unreachable.
    pub fn unreachable_count(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| s.health.is_unreachable())
            .count()
    }
}

/// Results of the service requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceOutcome {
    /// Whether a control operation took effect.
    Control {
        /// True when the operation was applied.
        applied: bool,
        /// Detail message.
        message: String,
    },
    /// The user's jobs at this NJS.
    List {
        /// Summary rows.
        jobs: Vec<JobSummary>,
    },
    /// A status query's outcome tree.
    Query {
        /// The job outcome at the requested detail.
        outcome: JobOutcome,
    },
    /// A monitoring query's per-site deep dive: one full report per
    /// queried Usite (a single-element list for a local query).
    Monitor {
        /// Reports sorted by Usite name.
        sites: Vec<MonitorReport>,
    },
    /// A grid monitoring query's hierarchical view, assembled at the
    /// aggregation-tree root from pre-merged subtree pushes.
    Grid {
        /// The assembled view.
        view: GridView,
    },
}

impl DerCodec for TaskOutcome {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.enumerated(self.status.to_enum());
            w.bytes(&self.stdout);
            w.bytes(&self.stderr);
            w.u64(self.bytes_staged);
            w.str(&self.message);
            if let Some(code) = self.exit_code {
                w.tagged(0, |w| w.int(code as i64));
            }
            if !self.flight.is_empty() {
                w.tagged(1, |w| w.sequence_of(&self.flight, |w, e| e.write_der(w)));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("TaskOutcome", |f| {
            Ok(TaskOutcome {
                status: ActionStatus::from_enum(f.next_enum()?)?,
                stdout: f.next_bytes()?.to_vec(),
                stderr: f.next_bytes()?.to_vec(),
                bytes_staged: f.next_u64()?,
                message: f.next_string()?,
                exit_code: f.optional_tagged(0, |t| {
                    i32::try_from(t.next_i64()?).map_err(|_| CodecError::IntegerOverflow)
                })?,
                flight: match f
                    .optional_tagged(1, |t| t.sequence_of("flight trace", FlightEvent::read_der))?
                {
                    // An empty trace is encoded by omission.
                    Some(events) if events.is_empty() => {
                        return Err(CodecError::BadValue("empty flight trace"))
                    }
                    Some(events) => events,
                    None => Vec::new(),
                },
            })
        })
    }
}

impl OutcomeNode {
    /// The node's DER, a job group's pruned to `detail` (a task is written
    /// whole: its parent decides whether it is written at all).
    fn write_pruned_der(&self, w: &mut DerWriter, detail: DetailLevel) {
        match self {
            OutcomeNode::Task(t) => w.tagged(0, |w| t.write_der(w)),
            OutcomeNode::Job(j) => w.tagged(1, |w| j.write_pruned_der(w, detail)),
        }
    }
}

impl DerCodec for OutcomeNode {
    fn write_der(&self, w: &mut DerWriter) {
        self.write_pruned_der(w, DetailLevel::Tasks);
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => Ok(OutcomeNode::Task(TaskOutcome::read_der(t)?)),
            1 => Ok(OutcomeNode::Job(JobOutcome::read_der(t)?)),
            _ => Err(CodecError::BadValue("OutcomeNode variant")),
        })
    }
}

impl JobOutcome {
    /// Writes the DER of [`pruned`](Self::pruned)`(detail)` from this
    /// tree, without building the pruned copy. At [`DetailLevel::Tasks`]
    /// this is the tree's own encoding.
    fn write_pruned_der(&self, w: &mut DerWriter, detail: DetailLevel) {
        w.sequence(|w| {
            w.enumerated(self.status.to_enum());
            w.sequence(|w| {
                for (id, node) in &self.children {
                    let kept = match detail {
                        DetailLevel::JobOnly => false,
                        DetailLevel::Groups => matches!(node, OutcomeNode::Job(_)),
                        DetailLevel::Tasks => true,
                    };
                    if kept {
                        w.sequence(|w| {
                            w.u64(id.0);
                            node.write_pruned_der(w, detail);
                        });
                    }
                }
            });
        });
    }
}

impl DerCodec for JobOutcome {
    fn write_der(&self, w: &mut DerWriter) {
        self.write_pruned_der(w, DetailLevel::Tasks);
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("JobOutcome", |f| {
            Ok(JobOutcome {
                status: ActionStatus::from_enum(f.next_enum()?)?,
                children: f.sequence_of("outcome children", |c| {
                    c.sequence("outcome child", |cf| {
                        Ok((ActionId(cf.next_u64()?), OutcomeNode::read_der(cf)?))
                    })
                })?,
            })
        })
    }
}

impl DerCodec for VsiteHealth {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.vsite);
            w.int(self.free_nodes);
            w.int(self.queue_length);
            w.int(self.running);
            w.int(self.stuck_jobs);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("VsiteHealth", |f| {
            Ok(VsiteHealth {
                vsite: f.next_string()?,
                free_nodes: f.next_i64()?,
                queue_length: f.next_i64()?,
                running: f.next_i64()?,
                stuck_jobs: f.next_i64()?,
            })
        })
    }
}

impl DerCodec for MonitorReport {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.usite);
            self.metrics.write_der(w);
            w.sequence_of(&self.spans, |w, s| s.write_der(w));
            w.sequence_of(&self.vsites, |w, v| v.write_der(w));
            if let Some(epoch) = self.epoch {
                w.tagged(0, |w| w.u64(epoch));
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("MonitorReport", |f| {
            Ok(MonitorReport {
                usite: f.next_string()?,
                metrics: MetricsSnapshot::read_der(f)?,
                spans: f.sequence_of("span summaries", SpanSummary::read_der)?,
                vsites: f.sequence_of("vsite health", VsiteHealth::read_der)?,
                epoch: f.optional_tagged(0, |t| t.next_u64())?,
            })
        })
    }
}

impl SiteHealth {
    fn to_enum(self) -> u32 {
        match self {
            SiteHealth::Live => 0,
            SiteHealth::Stale => 1,
            SiteHealth::Unreachable(UnreachableReason::Crash) => 2,
            SiteHealth::Unreachable(UnreachableReason::Partition) => 3,
            SiteHealth::Unreachable(UnreachableReason::Quarantine) => 4,
        }
    }

    fn from_enum(v: u32) -> Result<Self, CodecError> {
        Ok(match v {
            0 => SiteHealth::Live,
            1 => SiteHealth::Stale,
            2 => SiteHealth::Unreachable(UnreachableReason::Crash),
            3 => SiteHealth::Unreachable(UnreachableReason::Partition),
            4 => SiteHealth::Unreachable(UnreachableReason::Quarantine),
            _ => return Err(CodecError::BadValue("SiteHealth")),
        })
    }
}

impl DerCodec for SiteStatus {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.usite);
            w.u64(self.epoch);
            w.u64(self.updated_at);
            w.enumerated(self.health.to_enum());
            w.sequence_of(&self.vsites, |w, v| v.write_der(w));
            w.sequence_of(&self.headline, |w, (k, v)| {
                w.sequence(|w| {
                    w.str(k);
                    w.u64(*v);
                })
            });
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("SiteStatus", |f| {
            Ok(SiteStatus {
                usite: f.next_string()?,
                epoch: f.next_u64()?,
                updated_at: f.next_u64()?,
                health: SiteHealth::from_enum(f.next_enum()?)?,
                vsites: f.sequence_of("vsite health", VsiteHealth::read_der)?,
                headline: f.sequence_of("headline counters", |h| {
                    h.sequence("headline counter", |hf| {
                        Ok((hf.next_string()?, hf.next_u64()?))
                    })
                })?,
            })
        })
    }
}

impl DerCodec for GridView {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.root);
            w.u64(self.at);
            w.sequence_of(&self.sites, |w, s| s.write_der(w));
            self.merged.write_der(w);
            w.sequence_of(&self.alerts, |w, a| a.write_der(w));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("GridView", |f| {
            Ok(GridView {
                root: f.next_string()?,
                at: f.next_u64()?,
                sites: f.sequence_of("site rows", SiteStatus::read_der)?,
                merged: MetricsSnapshot::read_der(f)?,
                alerts: f.sequence_of("active alerts", ActiveAlert::read_der)?,
            })
        })
    }
}

impl ServiceOutcome {
    /// Writes the DER of `ServiceOutcome::Query` with
    /// [`JobOutcome::pruned`]`(detail)` of `outcome`, from the borrowed
    /// tree: a poll's answer goes from the NJS's own tree into the frame,
    /// with no pruned copy.
    pub fn write_query_der(w: &mut DerWriter, outcome: &JobOutcome, detail: DetailLevel) {
        w.tagged(2, |w| outcome.write_pruned_der(w, detail));
    }
}

impl DerCodec for ServiceOutcome {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            ServiceOutcome::Control { applied, message } => w.tagged(0, |w| {
                w.sequence(|w| {
                    w.bool(*applied);
                    w.str(message);
                })
            }),
            ServiceOutcome::List { jobs } => w.tagged(1, |w| {
                w.sequence_of(jobs, |w, j| {
                    w.sequence(|w| {
                        w.u64(j.job.0);
                        w.str(&j.name);
                        w.enumerated(j.status.to_enum());
                    })
                })
            }),
            ServiceOutcome::Query { outcome } => {
                Self::write_query_der(w, outcome, DetailLevel::Tasks)
            }
            ServiceOutcome::Monitor { sites } => {
                w.tagged(3, |w| w.sequence_of(sites, |w, s| s.write_der(w)))
            }
            ServiceOutcome::Grid { view } => w.tagged(4, |w| view.write_der(w)),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            0 => t.sequence("ControlOutcome", |f| {
                Ok(ServiceOutcome::Control {
                    applied: f.next_bool()?,
                    message: f.next_string()?,
                })
            }),
            1 => Ok(ServiceOutcome::List {
                jobs: t.sequence_of("job list", |j| {
                    j.sequence("job summary", |f| {
                        Ok(JobSummary {
                            job: JobId(f.next_u64()?),
                            name: f.next_string()?,
                            status: ActionStatus::from_enum(f.next_enum()?)?,
                        })
                    })
                })?,
            }),
            2 => Ok(ServiceOutcome::Query {
                outcome: JobOutcome::read_der(t)?,
            }),
            3 => Ok(ServiceOutcome::Monitor {
                sites: t.sequence_of("monitor reports", MonitorReport::read_der)?,
            }),
            4 => Ok(ServiceOutcome::Grid {
                view: GridView::read_der(t)?,
            }),
            _ => Err(CodecError::BadValue("ServiceOutcome variant")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_codec::Value;
    use unicore_telemetry::FlightEvent;

    #[test]
    fn status_colors() {
        assert_eq!(ActionStatus::Successful.color(), StatusColor::Green);
        assert_eq!(ActionStatus::Running.color(), StatusColor::Yellow);
        assert_eq!(ActionStatus::Queued.color(), StatusColor::Yellow);
        assert_eq!(ActionStatus::Pending.color(), StatusColor::Blue);
        assert_eq!(ActionStatus::Killed.color(), StatusColor::Red);
        assert_eq!(ActionStatus::Held.color(), StatusColor::Grey);
    }

    #[test]
    fn terminal_classification() {
        assert!(ActionStatus::Successful.is_terminal());
        assert!(ActionStatus::NotSuccessful.is_terminal());
        assert!(ActionStatus::Killed.is_terminal());
        assert!(!ActionStatus::Running.is_terminal());
        assert!(!ActionStatus::Pending.is_terminal());
    }

    #[test]
    fn aggregate_status_rules() {
        let mk = |statuses: &[ActionStatus]| {
            let mut j = JobOutcome::default();
            for (i, &s) in statuses.iter().enumerate() {
                j.children.push((
                    ActionId(i as u64),
                    OutcomeNode::Task(TaskOutcome {
                        status: s,
                        ..Default::default()
                    }),
                ));
            }
            j.aggregate_status();
            j.status
        };
        use ActionStatus::*;
        assert_eq!(mk(&[Successful, Successful]), Successful);
        assert_eq!(mk(&[Successful, Running]), Running);
        assert_eq!(mk(&[Successful, NotSuccessful, Running]), NotSuccessful);
        assert_eq!(mk(&[Killed]), NotSuccessful);
        assert_eq!(mk(&[Pending, Successful]), Consigned);
        assert_eq!(mk(&[Held, Successful]), Held);
        assert_eq!(mk(&[]), Successful);
    }

    #[test]
    fn nested_outcome_round_trip() {
        let inner = JobOutcome {
            status: ActionStatus::Running,
            children: vec![(
                ActionId(1),
                OutcomeNode::Task(TaskOutcome {
                    status: ActionStatus::Running,
                    exit_code: None,
                    stdout: b"step 1\n".to_vec(),
                    stderr: vec![],
                    bytes_staged: 0,
                    message: "".into(),
                    flight: vec![],
                }),
            )],
        };
        let outer = JobOutcome {
            status: ActionStatus::Running,
            children: vec![
                (
                    ActionId(1),
                    OutcomeNode::Task(TaskOutcome::success_with_exit(0)),
                ),
                (ActionId(2), OutcomeNode::Job(inner)),
            ],
        };
        let back = JobOutcome::from_der(&outer.to_der()).unwrap();
        assert_eq!(back, outer);
    }

    #[test]
    fn service_outcomes_round_trip() {
        for so in [
            ServiceOutcome::Control {
                applied: true,
                message: "aborted".into(),
            },
            ServiceOutcome::List {
                jobs: vec![JobSummary {
                    job: JobId(3),
                    name: "weather".into(),
                    status: ActionStatus::Queued,
                }],
            },
            ServiceOutcome::Query {
                outcome: JobOutcome::default(),
            },
            ServiceOutcome::Monitor { sites: vec![] },
            ServiceOutcome::Monitor {
                sites: vec![MonitorReport {
                    usite: "FZJ".into(),
                    metrics: {
                        let mut m = MetricsSnapshot::default();
                        m.counters.insert("njs.consigned".into(), 4);
                        m.gauges.insert("njs.jobs.active".into(), 1);
                        m
                    },
                    spans: vec![SpanSummary {
                        name: "server.handle".into(),
                        count: 9,
                        clock_total: 1000,
                        wall_ns_total: 5000,
                    }],
                    vsites: vec![VsiteHealth {
                        vsite: "T3E".into(),
                        free_nodes: 512,
                        queue_length: 2,
                        running: 1,
                        stuck_jobs: 0,
                    }],
                    epoch: None,
                }],
            },
        ] {
            assert_eq!(ServiceOutcome::from_der(&so.to_der()).unwrap(), so);
        }
    }

    #[test]
    fn grid_view_outcome_round_trips() {
        let view = GridView {
            root: "FZJ".into(),
            at: 120_000_000,
            sites: vec![
                SiteStatus {
                    usite: "FZJ".into(),
                    epoch: 7,
                    updated_at: 119_000_000,
                    health: SiteHealth::Live,
                    vsites: vec![VsiteHealth {
                        vsite: "T3E".into(),
                        free_nodes: 512,
                        queue_length: 2,
                        running: 1,
                        stuck_jobs: 0,
                    }],
                    headline: vec![("njs.consigned".into(), 4)],
                },
                SiteStatus {
                    usite: "RUS".into(),
                    epoch: 0,
                    updated_at: 0,
                    health: SiteHealth::Unreachable(UnreachableReason::Partition),
                    vsites: vec![],
                    headline: vec![],
                },
                SiteStatus {
                    usite: "ZIB".into(),
                    epoch: 3,
                    updated_at: 60_000_000,
                    health: SiteHealth::Stale,
                    vsites: vec![],
                    headline: vec![("store.wal.repairs".into(), 1)],
                },
            ],
            merged: {
                let mut m = MetricsSnapshot::default();
                m.counters.insert("njs.consigned".into(), 9);
                m
            },
            alerts: vec![ActiveAlert {
                rule: "slo.sites.unreachable".into(),
                since: 90_000_000,
                value_milli: 333,
            }],
        };
        let so = ServiceOutcome::Grid { view: view.clone() };
        assert_eq!(ServiceOutcome::from_der(&so.to_der()).unwrap(), so);
        assert_eq!(view.site("ZIB").unwrap().headline("store.wal.repairs"), 1);
        assert_eq!(view.unreachable_count(), 1);
    }

    /// The trailing-optional epoch must leave epoch-free reports
    /// byte-identical to the pre-E17 four-field encoding, so old peers
    /// interoperate unchanged.
    #[test]
    fn monitor_report_epoch_is_byte_compatible() {
        let report = MonitorReport {
            usite: "FZJ".into(),
            metrics: MetricsSnapshot::default(),
            spans: vec![],
            vsites: vec![],
            epoch: None,
        };
        // The historical wire form, constructed field by field.
        let legacy = unicore_codec::encode(&Value::Sequence(vec![
            Value::string("FZJ"),
            unicore_codec::decode(&MetricsSnapshot::default().to_der()).unwrap(),
            Value::Sequence(vec![]),
            Value::Sequence(vec![]),
        ]));
        assert_eq!(report.to_der(), legacy);
        // Old bytes decode with epoch: None...
        assert_eq!(MonitorReport::from_der(&legacy).unwrap(), report);
        // ...and a stamped report round-trips with the epoch intact.
        let stamped = MonitorReport {
            epoch: Some(12),
            ..report
        };
        assert_eq!(MonitorReport::from_der(&stamped.to_der()).unwrap(), stamped);
    }

    #[test]
    fn flight_trace_round_trips_and_stays_optional() {
        let plain = TaskOutcome::success_with_exit(0);
        let plain_der = plain.to_der();
        // A trace-free outcome encodes without the tagged(1) field...
        assert_eq!(TaskOutcome::from_der(&plain_der).unwrap(), plain);

        let mut failed = TaskOutcome::failure("node failure");
        failed.flight = vec![
            FlightEvent {
                at: 10,
                what: "njs.consign".into(),
                detail: "job 7".into(),
            },
            FlightEvent {
                at: 90,
                what: "batch.exit".into(),
                detail: "exit code 3".into(),
            },
        ];
        let back = TaskOutcome::from_der(&failed.to_der()).unwrap();
        assert_eq!(back, failed);
        assert_eq!(back.flight.len(), 2);
        // ...and a traced one is strictly longer on the wire.
        assert!(failed.to_der().len() > TaskOutcome::failure("node failure").to_der().len());
    }

    #[test]
    fn child_lookup() {
        let mut j = JobOutcome::default();
        j.children.push((
            ActionId(5),
            OutcomeNode::Task(TaskOutcome::failure("disk full")),
        ));
        assert_eq!(
            j.child(ActionId(5)).unwrap().status(),
            ActionStatus::NotSuccessful
        );
        assert!(j.child(ActionId(6)).is_none());
        if let Some(OutcomeNode::Task(t)) = j.child_mut(ActionId(5)) {
            t.status = ActionStatus::Successful;
        }
        assert!(j.child(ActionId(5)).unwrap().status().is_success());
    }

    #[test]
    fn empty_flight_trace_is_encoded_by_omission_only() {
        let t = TaskOutcome::failure("boom");
        let Value::Sequence(mut items) = unicore_codec::decode(&t.to_der()).unwrap() else {
            unreachable!()
        };
        assert!(items.iter().all(|v| !matches!(v, Value::Tagged(1, _))));
        items.push(Value::tagged(1, Value::Sequence(vec![])));
        let der = unicore_codec::encode(&Value::Sequence(items));
        assert!(TaskOutcome::from_der(&der).is_err());
    }

    #[test]
    fn task_outcome_constructors() {
        let p = TaskOutcome::pending();
        assert_eq!(p.status, ActionStatus::Pending);
        let s = TaskOutcome::success_with_exit(0);
        assert_eq!(s.exit_code, Some(0));
        assert!(s.status.is_success());
        let f = TaskOutcome::failure("boom");
        assert_eq!(f.message, "boom");
        assert!(!f.status.is_success());
    }
}
