//! The Job Monitor Controller.
//!
//! "The JMC shows the job status of the user's UNICORE jobs in a display
//! similar to the one of the JPA. The icons are colored to reflect the job
//! status in a seamless way. Depending on the chosen level of detail the
//! status is displayed for job groups and/or tasks. The standard output
//! and error files can be listed and/or saved for tasks." (§5.7)
//!
//! This module renders outcome trees with the colour model and extracts
//! task outputs — everything the applet GUI displayed, as plain data.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use unicore_ajo::{
    AbstractJob, ActionId, GraphNode, JobId, JobOutcome, OutcomeNode, StatusColor, TaskOutcome,
};

/// The icon glyph for each status colour (terminal-friendly stand-ins for
/// the applet's coloured icons).
pub(crate) fn color_icon(color: StatusColor) -> &'static str {
    match color {
        StatusColor::Green => "[+]",
        StatusColor::Yellow => "[~]",
        StatusColor::Blue => "[.]",
        StatusColor::Red => "[x]",
        StatusColor::Grey => "[=]",
    }
}

/// One rendered row of the status display.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusRow {
    /// Nesting depth (0 = the job itself).
    pub depth: usize,
    /// Icon for the status colour.
    pub icon: &'static str,
    /// Node name (job/group/task).
    pub name: String,
    /// Status text.
    pub status: String,
}

/// Builds the status rows for `job` given its current `outcome`,
/// recursing through job groups and tasks like the JMC's tree display.
pub fn status_rows(job: &AbstractJob, outcome: &JobOutcome) -> Vec<StatusRow> {
    let mut rows = Vec::new();
    rows.push(StatusRow {
        depth: 0,
        icon: color_icon(outcome.status.color()),
        name: job.name.clone(),
        status: format!("{:?}", outcome.status),
    });
    rows_level(job, outcome, 1, &mut rows);
    rows
}

/// The status text for a task row. While the data plane streams a
/// transfer, the NJS reports staged bytes on the running task; the JMC
/// shows that progress next to the raw status, like the applet's
/// per-task progress display.
fn task_status_text(t: &TaskOutcome) -> String {
    if !t.status.is_terminal() && t.bytes_staged > 0 && !t.message.is_empty() {
        format!("{:?} — {}", t.status, t.message)
    } else {
        format!("{:?}", t.status)
    }
}

fn rows_level(job: &AbstractJob, outcome: &JobOutcome, depth: usize, rows: &mut Vec<StatusRow>) {
    for (id, node) in &job.nodes {
        let child = outcome.child(*id);
        match (node, child) {
            (GraphNode::Task(task), Some(OutcomeNode::Task(t))) => {
                rows.push(StatusRow {
                    depth,
                    icon: color_icon(t.status.color()),
                    name: task.name.clone(),
                    status: task_status_text(t),
                });
            }
            (GraphNode::SubJob(sub), Some(OutcomeNode::Job(j))) => {
                rows.push(StatusRow {
                    depth,
                    icon: color_icon(j.status.color()),
                    name: sub.name.clone(),
                    status: format!("{:?}", j.status),
                });
                rows_level(sub, j, depth + 1, rows);
            }
            (node, _) => {
                // Outcome not yet populated for this node.
                rows.push(StatusRow {
                    depth,
                    icon: color_icon(StatusColor::Blue),
                    name: node.name().to_owned(),
                    status: "Pending".to_owned(),
                });
            }
        }
    }
}

/// Renders rows as an indented text tree (what a console JMC prints).
pub fn render(rows: &[StatusRow]) -> String {
    let mut out = String::new();
    for row in rows {
        for _ in 0..row.depth {
            out.push_str("  ");
        }
        out.push_str(row.icon);
        out.push(' ');
        out.push_str(&row.name);
        out.push_str("  — ");
        out.push_str(&row.status);
        out.push('\n');
    }
    out
}

/// Renders the broker's ranked placement offers as the panel the JPA
/// shows before a brokered submission: one line per candidate site, best
/// first, with the load/price figures the score was derived from so the
/// user can see *why* the broker ranked them this way.
pub fn render_offers(offers: &[crate::jpa::PlacementView]) -> String {
    if offers.is_empty() {
        return "no admissible site for this request\n".into();
    }
    let mut out = String::new();
    for (rank, o) in offers.iter().enumerate() {
        let start = if o.immediate {
            "starts now".into()
        } else {
            format!("{} queued ahead", o.queue_length)
        };
        out.push_str(&format!(
            "#{} {}  score {}  util {:.1}%  {}  {} mc/node-h\n",
            rank + 1,
            o.vsite,
            o.score,
            o.utilization_milli as f64 / 10.0,
            start,
            o.price_per_node_hour_milli,
        ));
    }
    out
}

/// A task's captured outputs ("the standard output and error files can be
/// listed and/or saved").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskOutput {
    /// The task's node id.
    pub id: ActionId,
    /// Task name.
    pub name: String,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Captured stderr.
    pub stderr: Vec<u8>,
    /// Exit code if the task ran.
    pub exit_code: Option<i32>,
}

/// Collects the outputs of every task in the tree (depth-first).
pub fn collect_outputs(job: &AbstractJob, outcome: &JobOutcome) -> Vec<TaskOutput> {
    let mut outputs = Vec::new();
    collect_level(job, outcome, &mut outputs);
    outputs
}

fn collect_level(job: &AbstractJob, outcome: &JobOutcome, outputs: &mut Vec<TaskOutput>) {
    for (id, node) in &job.nodes {
        match (node, outcome.child(*id)) {
            (GraphNode::Task(task), Some(OutcomeNode::Task(t))) => {
                outputs.push(TaskOutput {
                    id: *id,
                    name: task.name.clone(),
                    stdout: t.stdout.clone(),
                    stderr: t.stderr.clone(),
                    exit_code: t.exit_code,
                });
            }
            (GraphNode::SubJob(sub), Some(OutcomeNode::Job(j))) => {
                collect_level(sub, j, outputs);
            }
            _ => {}
        }
    }
}

/// Finds the first failed task (depth-first) — what a user looks for when
/// the job icon turns red.
pub fn first_failure<'a>(
    job: &'a AbstractJob,
    outcome: &'a JobOutcome,
) -> Option<(&'a str, &'a unicore_ajo::TaskOutcome)> {
    for (id, node) in &job.nodes {
        match (node, outcome.child(*id)) {
            (GraphNode::Task(task), Some(OutcomeNode::Task(t)))
                if t.status.is_terminal() && !t.status.is_success() =>
            {
                return Some((&task.name, t));
            }
            (GraphNode::SubJob(sub), Some(OutcomeNode::Job(j))) => {
                if let Some(found) = first_failure(sub, j) {
                    return Some(found);
                }
            }
            _ => {}
        }
    }
    None
}

/// Flow-id bookkeeping for multiplexed polling.
///
/// The applet-era JMC opened one connection per job poll; at connection
/// scale the JMC instead keeps *one* sealed connection to the gateway and
/// sweeps all watched jobs in a single batched record, each poll tagged
/// with a flow id. The `PollBook` owns the flow-id ↔ [`JobId`] mapping on
/// the client side: enroll a job to watch it, start a sweep to get the
/// `(flow, job)` pairs to frame, and settle each answered flow as reply
/// frames fan back in. Stray or duplicate flow ids (a reply racing a
/// retire, a corrupt peer) settle to `None` instead of panicking.
#[derive(Debug, Default)]
pub struct PollBook {
    next_flow: u64,
    flows: BTreeMap<u64, JobId>,
    jobs: HashMap<JobId, u64>,
    outstanding: BTreeSet<u64>,
}

impl PollBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a job for polling, returning its flow id. Idempotent: a
    /// job already enrolled keeps its flow id.
    pub fn enroll(&mut self, job: JobId) -> u64 {
        if let Some(&flow) = self.jobs.get(&job) {
            return flow;
        }
        let flow = self.next_flow;
        self.next_flow += 1;
        self.flows.insert(flow, job);
        self.jobs.insert(job, flow);
        flow
    }

    /// Stops watching a job (it settled, or the user closed its panel).
    /// Its flow id is never reused; a late reply on it settles to `None`.
    pub fn retire(&mut self, job: JobId) -> Option<u64> {
        let flow = self.jobs.remove(&job)?;
        self.flows.remove(&flow);
        self.outstanding.remove(&flow);
        Some(flow)
    }

    /// Starts a poll sweep: every enrolled flow becomes outstanding and
    /// the `(flow, job)` pairs are returned in flow order, ready to be
    /// framed into one batched record.
    pub fn begin_sweep(&mut self) -> Vec<(u64, JobId)> {
        self.outstanding = self.flows.keys().copied().collect();
        self.flows.iter().map(|(&f, &j)| (f, j)).collect()
    }

    /// Settles one reply frame: marks the flow answered and returns its
    /// job. `None` for flows that are unknown, retired, or already
    /// settled this sweep — the caller drops such frames.
    pub fn settle(&mut self, flow: u64) -> Option<JobId> {
        if !self.outstanding.remove(&flow) {
            return None;
        }
        self.flows.get(&flow).copied()
    }

    /// Flows still awaiting a reply in the current sweep.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Number of jobs currently enrolled.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no jobs are enrolled.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_ajo::{
        AbstractTask, ActionStatus, ExecuteKind, ResourceRequest, TaskKind, TaskOutcome,
        UserAttributes, VsiteAddress,
    };

    fn job_with_outcome() -> (AbstractJob, JobOutcome) {
        let user = UserAttributes::new("CN=x, C=DE, O=o, OU=u", "g");
        let mut sub = AbstractJob::new("group", VsiteAddress::new("RUS", "VPP"), user.clone());
        sub.nodes.push((
            ActionId(1),
            GraphNode::Task(AbstractTask {
                name: "inner".into(),
                resources: ResourceRequest::minimal(),
                kind: TaskKind::Execute(ExecuteKind::Script { script: "x".into() }),
            }),
        ));
        let mut job = AbstractJob::new("weather", VsiteAddress::new("FZJ", "T3E"), user);
        job.nodes.push((
            ActionId(1),
            GraphNode::Task(AbstractTask {
                name: "main".into(),
                resources: ResourceRequest::minimal(),
                kind: TaskKind::Execute(ExecuteKind::Script { script: "y".into() }),
            }),
        ));
        job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));

        let mut sub_outcome = JobOutcome {
            status: ActionStatus::Running,
            children: vec![(
                ActionId(1),
                OutcomeNode::Task(TaskOutcome {
                    status: ActionStatus::Running,
                    stdout: b"step 5\n".to_vec(),
                    ..Default::default()
                }),
            )],
        };
        sub_outcome.aggregate_status();
        let outcome = JobOutcome {
            status: ActionStatus::Running,
            children: vec![
                (
                    ActionId(1),
                    OutcomeNode::Task(TaskOutcome {
                        status: ActionStatus::Successful,
                        exit_code: Some(0),
                        stdout: b"done\n".to_vec(),
                        ..Default::default()
                    }),
                ),
                (ActionId(2), OutcomeNode::Job(sub_outcome)),
            ],
        };
        (job, outcome)
    }

    #[test]
    fn status_tree_structure() {
        let (job, outcome) = job_with_outcome();
        let rows = status_rows(&job, &outcome);
        assert_eq!(rows.len(), 4); // job, main, group, inner
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[0].name, "weather");
        assert_eq!(rows[1].icon, "[+]"); // successful task
        assert_eq!(rows[2].name, "group");
        assert_eq!(rows[3].depth, 2);
        assert_eq!(rows[3].icon, "[~]"); // running
    }

    #[test]
    fn render_is_indented() {
        let (job, outcome) = job_with_outcome();
        let text = render(&status_rows(&job, &outcome));
        assert!(text.contains("[+] main"));
        assert!(text.contains("    [~] inner"));
    }

    #[test]
    fn outputs_collected_recursively() {
        let (job, outcome) = job_with_outcome();
        let outputs = collect_outputs(&job, &outcome);
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[0].stdout, b"done\n");
        assert_eq!(outputs[1].stdout, b"step 5\n");
    }

    #[test]
    fn first_failure_found_in_subtree() {
        let (job, mut outcome) = job_with_outcome();
        // Fail the inner task.
        if let Some(OutcomeNode::Job(sub)) = outcome.child_mut(ActionId(2)) {
            if let Some(OutcomeNode::Task(t)) = sub.child_mut(ActionId(1)) {
                *t = TaskOutcome::failure("segfault");
            }
        }
        let (name, t) = first_failure(&job, &outcome).unwrap();
        assert_eq!(name, "inner");
        assert_eq!(t.message, "segfault");
        // No failure in the clean version.
        let (job2, outcome2) = job_with_outcome();
        assert!(first_failure(&job2, &outcome2).is_none());
    }

    #[test]
    fn streaming_transfer_progress_rendered() {
        let (job, mut outcome) = job_with_outcome();
        // The data plane is mid-stream on the main task: the NJS
        // reports staged bytes and a progress message.
        if let Some(OutcomeNode::Task(t)) = outcome.child_mut(ActionId(1)) {
            *t = TaskOutcome {
                status: ActionStatus::Running,
                bytes_staged: 1_310_720,
                message: "streaming 1310720/4194304 bytes".into(),
                ..Default::default()
            };
        }
        let rows = status_rows(&job, &outcome);
        assert_eq!(rows[1].status, "Running — streaming 1310720/4194304 bytes");
        assert_eq!(rows[1].icon, "[~]");
        // Once terminal, the progress message is dropped from the row.
        if let Some(OutcomeNode::Task(t)) = outcome.child_mut(ActionId(1)) {
            t.status = ActionStatus::Successful;
        }
        let rows = status_rows(&job, &outcome);
        assert_eq!(rows[1].status, "Successful");
    }

    #[test]
    fn missing_outcome_renders_pending() {
        let (job, _) = job_with_outcome();
        let empty = JobOutcome::default();
        let rows = status_rows(&job, &empty);
        assert!(rows[1..].iter().all(|r| r.status == "Pending"));
    }

    #[test]
    fn poll_book_enroll_is_idempotent_and_flows_are_stable() {
        let mut book = PollBook::new();
        let f1 = book.enroll(JobId(10));
        let f2 = book.enroll(JobId(20));
        assert_ne!(f1, f2);
        assert_eq!(book.enroll(JobId(10)), f1, "re-enroll keeps the flow");
        assert_eq!(book.len(), 2);
        assert_eq!(book.flows.get(&f2), Some(&JobId(20)));
        assert_eq!(book.jobs.get(&JobId(10)), Some(&f1));
    }

    #[test]
    fn poll_book_sweep_settles_each_flow_exactly_once() {
        let mut book = PollBook::new();
        let f1 = book.enroll(JobId(1));
        let f2 = book.enroll(JobId(2));
        let sweep = book.begin_sweep();
        assert_eq!(sweep, vec![(f1, JobId(1)), (f2, JobId(2))]);
        assert_eq!(book.outstanding(), 2);
        assert_eq!(book.settle(f2), Some(JobId(2)));
        assert_eq!(book.settle(f2), None, "duplicate reply dropped");
        assert_eq!(book.outstanding(), 1);
        assert_eq!(book.settle(f1), Some(JobId(1)));
        assert_eq!(book.outstanding(), 0);
        assert_eq!(book.settle(999), None, "stray flow dropped");
    }

    #[test]
    fn poll_book_retire_drops_late_replies_and_never_reuses_flows() {
        let mut book = PollBook::new();
        let f1 = book.enroll(JobId(1));
        book.enroll(JobId(2));
        book.begin_sweep();
        assert_eq!(book.retire(JobId(1)), Some(f1));
        assert_eq!(book.retire(JobId(1)), None);
        assert_eq!(book.settle(f1), None, "reply racing a retire is dropped");
        assert_eq!(book.outstanding(), 1, "retire sheds its outstanding slot");
        let f3 = book.enroll(JobId(3));
        assert_ne!(f3, f1, "flow ids are never reused");
        // The next sweep covers only live enrollments.
        let sweep = book.begin_sweep();
        assert_eq!(sweep.len(), 2);
        assert!(sweep.iter().all(|&(f, _)| f != f1));
        assert!(!book.is_empty());
    }

    #[test]
    fn all_colors_have_icons() {
        for c in [
            StatusColor::Green,
            StatusColor::Yellow,
            StatusColor::Blue,
            StatusColor::Red,
            StatusColor::Grey,
        ] {
            assert!(!color_icon(c).is_empty());
        }
    }

    #[test]
    fn color_icon_mapping_is_exact() {
        assert_eq!(color_icon(StatusColor::Green), "[+]");
        assert_eq!(color_icon(StatusColor::Yellow), "[~]");
        assert_eq!(color_icon(StatusColor::Blue), "[.]");
        assert_eq!(color_icon(StatusColor::Red), "[x]");
        assert_eq!(color_icon(StatusColor::Grey), "[=]");
        // Five distinct colours, five distinct glyphs.
        let glyphs: std::collections::HashSet<_> = [
            StatusColor::Green,
            StatusColor::Yellow,
            StatusColor::Blue,
            StatusColor::Red,
            StatusColor::Grey,
        ]
        .into_iter()
        .map(color_icon)
        .collect();
        assert_eq!(glyphs.len(), 5);
    }

    #[test]
    fn pending_subjob_renders_pending_without_descending() {
        let (job, mut outcome) = job_with_outcome();
        // Strip the sub-job's outcome: the NJS has not forwarded it yet.
        outcome.children.retain(|(id, _)| *id != ActionId(2));
        let rows = status_rows(&job, &outcome);
        // job, main, group (pending) — the inner task is invisible until
        // the sub-job outcome arrives from the remote site.
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].name, "group");
        assert_eq!(rows[2].status, "Pending");
        assert_eq!(rows[2].icon, color_icon(StatusColor::Blue));
    }
}

#[cfg(test)]
mod summary_tests {
    use super::*;
    use unicore_ajo::{
        AbstractTask, ActionId, ActionStatus, ExecuteKind, GraphNode, ResourceRequest, TaskKind,
        TaskOutcome, UserAttributes, VsiteAddress,
    };

    fn job_of(statuses: &[ActionStatus]) -> (AbstractJob, JobOutcome) {
        let user = UserAttributes::new("CN=s, C=DE, O=o, OU=u", "g");
        let mut job = AbstractJob::new("sum", VsiteAddress::new("FZJ", "T3E"), user);
        let mut outcome = JobOutcome::default();
        for (i, &status) in statuses.iter().enumerate() {
            let id = ActionId(i as u64);
            job.nodes.push((
                id,
                GraphNode::Task(AbstractTask {
                    name: format!("t{i}"),
                    resources: ResourceRequest::minimal(),
                    kind: TaskKind::Execute(ExecuteKind::Script { script: "x".into() }),
                }),
            ));
            outcome.children.push((
                id,
                OutcomeNode::Task(TaskOutcome {
                    status,
                    ..Default::default()
                }),
            ));
        }
        outcome.aggregate_status();
        (job, outcome)
    }

    /// Each action's icon, below the job's own row.
    fn icons(job: &AbstractJob, outcome: &JobOutcome) -> Vec<&'static str> {
        status_rows(job, outcome)[1..]
            .iter()
            .map(|r| r.icon)
            .collect()
    }

    #[test]
    fn counts_by_color() {
        use ActionStatus::*;
        let (job, outcome) = job_of(&[
            Successful,
            Successful,
            Running,
            Queued,
            Pending,
            NotSuccessful,
            Held,
        ]);
        // Running and queued share yellow.
        assert_eq!(
            icons(&job, &outcome),
            ["[+]", "[+]", "[~]", "[~]", "[.]", "[x]", "[=]"]
        );
    }

    #[test]
    fn settled_when_all_terminal() {
        use ActionStatus::*;
        let (job, outcome) = job_of(&[Successful, NotSuccessful, Killed]);
        assert_eq!(icons(&job, &outcome), ["[+]", "[x]", "[x]"]);
    }

    #[test]
    fn empty_job_summary() {
        let (job, outcome) = job_of(&[]);
        assert!(icons(&job, &outcome).is_empty());
    }

    #[test]
    fn offers_render_ranked_with_load_and_price() {
        use crate::jpa::PlacementView;
        let text = render_offers(&[
            PlacementView {
                vsite: VsiteAddress::new("ZIB", "T3E"),
                score: 120,
                immediate: true,
                queue_length: 0,
                utilization_milli: 250,
                price_per_node_hour_milli: 900,
            },
            PlacementView {
                vsite: VsiteAddress::new("FZJ", "T3E"),
                score: 340,
                immediate: false,
                queue_length: 4,
                utilization_milli: 805,
                price_per_node_hour_milli: 700,
            },
        ]);
        assert!(text.contains("#1 ZIB/T3E"));
        assert!(text.contains("starts now"));
        assert!(text.contains("util 25.0%"));
        assert!(text.contains("#2 FZJ/T3E"));
        assert!(text.contains("4 queued ahead"));
        assert!(text.contains("700 mc/node-h"));
        assert_eq!(render_offers(&[]), "no admissible site for this request\n");
    }
}
