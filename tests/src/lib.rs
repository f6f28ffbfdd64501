//! Test-only package: integration tests spanning the workspace crates,
//! and the job fixtures the experiment tables are computed on.

use unicore_ajo::{
    AbstractJob, AbstractTask, ActionId, Dependency, ExecuteKind, GraphNode, ResourceRequest,
    TaskKind, UserAttributes, VsiteAddress,
};
use unicore_gateway::MappedUser;

/// The DN every single-user experiment submits as.
pub const DN: &str = "C=DE, O=Bench, OU=Repro, CN=bench-user";

/// `dn`'s attributes, in the `users` group.
pub fn attrs(dn: &str) -> UserAttributes {
    UserAttributes::new(dn, "users")
}

/// [`DN`] mapped to the login `bench`, for consigns straight to an NJS.
pub fn mapped_user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "bench".into(),
        account_group: "users".into(),
    }
}

/// A script task allowed `run_time` seconds.
pub fn script_task(name: &str, run_time: u64, script: &str) -> GraphNode {
    GraphNode::Task(AbstractTask {
        name: name.into(),
        resources: ResourceRequest::minimal().with_run_time(run_time),
        kind: TaskKind::Execute(ExecuteKind::Script {
            script: script.into(),
        }),
    })
}

/// The dependency `from → to`, carrying `files`.
pub fn edge(from: u64, to: u64, files: &[&str]) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: files.iter().map(|f| f.to_string()).collect(),
    }
}

/// A linear chain of `n` script tasks at `usite`/`vsite`, each sleeping
/// `sleep_secs`.
pub fn chain_job(usite: &str, vsite: &str, n: u64, sleep_secs: u64) -> AbstractJob {
    let at = VsiteAddress::new(usite, vsite);
    let mut job = AbstractJob::new(format!("chain{n}"), at, attrs(DN));
    let script = format!("sleep {sleep_secs}\n");
    for i in 1..=n {
        let task = script_task(&format!("t{}", i - 1), 3_600, &script);
        job.nodes.push((ActionId(i), task));
        if i > 1 {
            job.dependencies.push(edge(i - 1, i, &[]));
        }
    }
    job
}

/// One root task and `width` independent successors at `usite`/`vsite`.
pub fn fan_job(usite: &str, vsite: &str, width: u64) -> AbstractJob {
    let at = VsiteAddress::new(usite, vsite);
    let mut job = AbstractJob::new(format!("fan{width}"), at, attrs(DN));
    job.nodes
        .push((ActionId(1), script_task("root", 600, "sleep 1\n")));
    for i in 2..width + 2 {
        let leaf = script_task(&format!("leaf{}", i - 2), 600, "sleep 2\n");
        job.nodes.push((ActionId(i), leaf));
        job.dependencies.push(edge(1, i, &[]));
    }
    job
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_validate() {
        chain_job("FZJ", "T3E", 10, 5).validate().unwrap();
        fan_job("FZJ", "T3E", 50).validate().unwrap();
    }
}
