//! Site accounting aggregation.
//!
//! The paper's outlook (§6) couples the future resource broker "together
//! with accounting functions and load information". The batch substrate
//! already writes per-job accounting records; this module aggregates them
//! into the per-user, per-Vsite usage report a site administrator (or a
//! future broker) consumes.

use crate::njs::Njs;
use std::collections::BTreeMap;
use unicore_sim::SimTime;

/// Aggregated usage for one (Vsite, login) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageRow {
    /// The Vsite the work ran on.
    pub vsite: String,
    /// The local login billed.
    pub login: String,
    /// Jobs finished.
    pub jobs: u64,
    /// Jobs that ended unsuccessfully (nonzero exit, killed, timed out).
    pub failed: u64,
    /// Node-seconds consumed.
    pub node_seconds: u64,
    /// Total queue-wait ticks endured.
    pub total_wait: SimTime,
}

impl UsageRow {
    /// Mean queue wait per job in ticks (0 when no jobs).
    pub(crate) fn mean_wait(&self) -> SimTime {
        self.total_wait.checked_div(self.jobs).unwrap_or(0)
    }
}

/// A whole-Usite usage report, ordered by (vsite, login).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UsageReport {
    /// The aggregated rows.
    pub rows: Vec<UsageRow>,
}

impl UsageReport {
    /// The row for a (vsite, login) pair, if any work was billed there.
    pub fn row(&self, vsite: &str, login: &str) -> Option<&UsageRow> {
        self.rows
            .iter()
            .find(|r| r.vsite == vsite && r.login == login)
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<10} {:<12} {:>6} {:>8} {:>14} {:>14}\n",
            "vsite", "login", "jobs", "failed", "node-seconds", "mean wait"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:<12} {:>6} {:>8} {:>14} {:>14}\n",
                r.vsite,
                r.login,
                r.jobs,
                r.failed,
                r.node_seconds,
                unicore_sim::format_time(r.mean_wait()),
            ));
        }
        out
    }
}

/// Builds one shard's usage report from its Vsites' accounting records;
/// [`crate::ShardedNjs::usage_report`] merges the shards'.
pub(crate) fn usage_report(njs: &Njs) -> UsageReport {
    let mut agg: BTreeMap<(String, String), UsageRow> = BTreeMap::new();
    for vsite in njs.vsite_names() {
        let Some(v) = njs.vsite(vsite) else { continue };
        for rec in v.batch.accounting() {
            let key = (vsite.clone(), rec.owner.clone());
            let row = agg.entry(key).or_insert_with(|| UsageRow {
                vsite: vsite.clone(),
                login: rec.owner.clone(),
                jobs: 0,
                failed: 0,
                node_seconds: 0,
                total_wait: 0,
            });
            row.jobs += 1;
            if rec.exit_code != 0 {
                row.failed += 1;
            }
            row.node_seconds += rec.node_seconds();
            row.total_wait += rec.wait_time();
        }
    }
    UsageReport {
        rows: agg.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use crate::translation::TranslationTable;
    use crate::ShardedNjs;
    use unicore_ajo::{
        AbstractJob, AbstractTask, ActionId, ExecuteKind, GraphNode, ResourceRequest, TaskKind,
        UserAttributes, VsiteAddress,
    };
    use unicore_gateway::MappedUser;
    use unicore_resources::{deployment_page, Architecture};
    use unicore_sim::{HOUR, SEC};

    fn run_jobs(logins_and_scripts: &[(&str, &str)]) -> ShardedNjs {
        let mut njs = ShardedNjs::new("FZJ", 1, 1);
        njs.add_vsite(
            deployment_page("FZJ", "T3E", Architecture::CrayT3e),
            TranslationTable::for_architecture(Architecture::CrayT3e),
        );
        let mut ids = Vec::new();
        for (i, (login, script)) in logins_and_scripts.iter().enumerate() {
            let mut job = AbstractJob::new(
                format!("j{i}"),
                VsiteAddress::new("FZJ", "T3E"),
                UserAttributes::new(format!("CN=u{i}, C=DE, O=x, OU=y"), "g"),
            );
            job.nodes.push((
                ActionId(1),
                GraphNode::Task(AbstractTask {
                    name: "t".into(),
                    resources: ResourceRequest::minimal()
                        .with_processors(2)
                        .with_run_time(3_600),
                    kind: TaskKind::Execute(ExecuteKind::Script {
                        script: script.to_string(),
                    }),
                }),
            ));
            let user = MappedUser {
                dn: format!("CN=u{i}"),
                login: login.to_string(),
                account_group: "g".into(),
            };
            ids.push(njs.consign(job, user, 0).unwrap());
        }
        let mut now = 0;
        njs.step(now);
        while ids.iter().any(|id| !njs.is_done(*id)) && now < HOUR {
            now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
            njs.step(now);
        }
        njs
    }

    #[test]
    fn aggregates_per_login() {
        let njs = run_jobs(&[
            ("alice", "sleep 100\n"),
            ("alice", "sleep 50\n"),
            ("bob", "sleep 10\nexit 1\n"),
        ]);
        let report = njs.usage_report();
        assert_eq!(report.rows.len(), 2);
        let alice = report.row("T3E", "alice").unwrap();
        assert_eq!(alice.jobs, 2);
        assert_eq!(alice.failed, 0);
        // 2 procs × (100 + 50) s.
        assert_eq!(alice.node_seconds, 300);
        let bob = report.row("T3E", "bob").unwrap();
        assert_eq!(bob.jobs, 1);
        assert_eq!(bob.failed, 1);
        assert_eq!(bob.node_seconds, 20);
    }

    #[test]
    fn render_is_tabular() {
        let njs = run_jobs(&[("alice", "sleep 10\n")]);
        let text = njs.usage_report().render();
        assert!(text.contains("vsite"));
        assert!(text.contains("alice"));
        assert!(text.lines().count() >= 2);
    }

    #[test]
    fn empty_report() {
        let njs = ShardedNjs::new("EMPTY", 1, 1);
        let report = njs.usage_report();
        assert!(report.rows.is_empty());
        assert!(report.row("X", "y").is_none());
    }
}
