#![warn(unreachable_pub)]
#![forbid(unsafe_code)]
//! # unicore-bench
//!
//! Shared fixtures for the experiment benchmarks (`benches/e*.rs`; the
//! experiment index is in DESIGN.md).
//!
//! Each bench target prints its experiment's result table (the numbers
//! recorded in EXPERIMENTS.md; simulated ones are deterministic per seed),
//! and most then time the components involved with the Criterion shim.
//! None is a gate: the end-to-end and per-layer performance numbers come
//! from `gridbench/`.

use unicore_ajo::{
    AbstractJob, AbstractTask, ActionId, Dependency, ExecuteKind, GraphNode, ResourceRequest,
    TaskKind, UserAttributes, VsiteAddress,
};
use unicore_gateway::MappedUser;

/// The DN used by all benchmark users.
pub const BENCH_DN: &str = "C=DE, O=Bench, OU=Repro, CN=bench-user";

/// Standard user attributes for benchmark jobs.
pub fn bench_user_attrs() -> UserAttributes {
    UserAttributes::new(BENCH_DN, "users")
}

/// Standard mapped user for direct-NJS benchmarks.
pub fn bench_mapped_user() -> MappedUser {
    MappedUser {
        dn: BENCH_DN.into(),
        login: "bench".into(),
        account_group: "users".into(),
    }
}

/// A linear chain job of `n` script tasks at `usite`/`vsite`.
pub fn chain_job(usite: &str, vsite: &str, n: usize, sleep_secs: u64) -> AbstractJob {
    let mut job = AbstractJob::new(
        format!("chain{n}"),
        VsiteAddress::new(usite, vsite),
        bench_user_attrs(),
    );
    for i in 0..n {
        job.nodes.push((
            ActionId(i as u64 + 1),
            GraphNode::Task(AbstractTask {
                name: format!("t{i}"),
                resources: ResourceRequest::minimal().with_run_time(3_600),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: format!("sleep {sleep_secs}\n"),
                }),
            }),
        ));
        if i > 0 {
            job.dependencies.push(Dependency {
                from: ActionId(i as u64),
                to: ActionId(i as u64 + 1),
                files: vec![],
            });
        }
    }
    job
}

/// A wide fan job: one root task, `width` independent successors.
pub fn fan_job(usite: &str, vsite: &str, width: usize) -> AbstractJob {
    let mut job = AbstractJob::new(
        format!("fan{width}"),
        VsiteAddress::new(usite, vsite),
        bench_user_attrs(),
    );
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "root".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: "sleep 1\n".into(),
            }),
        }),
    ));
    for i in 0..width {
        let id = ActionId(i as u64 + 2);
        job.nodes.push((
            id,
            GraphNode::Task(AbstractTask {
                name: format!("leaf{i}"),
                resources: ResourceRequest::minimal().with_run_time(600),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: "sleep 2\n".into(),
                }),
            }),
        ));
        job.dependencies.push(Dependency {
            from: ActionId(1),
            to: id,
            files: vec![],
        });
    }
    job
}

/// A machine-readable benchmark result: a flat map of named numbers plus
/// free-form string notes, written as `BENCH_<name>.json` next to the
/// human tables. The repo vendors no serde, and experiment results are
/// flat enough that a hand-rolled emitter is the honest tool.
#[derive(Debug, Clone, Default)]
pub struct BenchReport {
    name: String,
    metrics: Vec<(String, f64)>,
    notes: Vec<(String, String)>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// A report for the experiment `name` (e.g. `"e11_monitor"`).
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    /// Records a numeric result. Non-finite values serialize as `null`.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_owned(), value));
        self
    }

    /// Records a free-form string annotation.
    pub fn note(&mut self, key: &str, value: &str) -> &mut Self {
        self.notes.push((key.to_owned(), value.to_owned()));
        self
    }

    /// The report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.name)));
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if v.is_finite() {
                out.push_str(&format!("\n    \"{}\": {v}", json_escape(k)));
            } else {
                out.push_str(&format!("\n    \"{}\": null", json_escape(k)));
            }
        }
        out.push_str("\n  },\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{}\": \"{}\"",
                json_escape(k),
                json_escape(v)
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into the workspace root (so results
    /// land beside EXPERIMENTS.md regardless of the bench's CWD) and
    /// returns the path. Falls back to the CWD if the workspace root is
    /// not where the build-time layout says it is.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let file = format!("BENCH_{}.json", self.name);
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| std::path::PathBuf::from("."));
        let path = root.join(file);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Formats a byte count for tables.
pub fn fmt_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.0} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.0} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_validate() {
        chain_job("FZJ", "T3E", 10, 5).validate().unwrap();
        fan_job("FZJ", "T3E", 50).validate().unwrap();
    }

    #[test]
    fn report_json_shape() {
        let mut r = BenchReport::new("e0_test");
        r.metric("overhead_pct", 1.25)
            .metric("bad", f64::NAN)
            .note("target", "< 5%");
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"e0_test\""));
        assert!(json.contains("\"overhead_pct\": 1.25"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"target\": \"< 5%\""));
        // Balanced braces and no trailing commas — parseable by any
        // JSON reader.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4 KiB");
        assert_eq!(fmt_bytes(16 << 20), "16 MiB");
    }
}
