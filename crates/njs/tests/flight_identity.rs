//! The flight ring of a failing task ships inside its `TaskOutcome`, so
//! the text the NJS records is outcome bytes: every event the NJS writes
//! is pinned here as `at what | detail`, through the real engine with
//! the recorder on, and one failed outcome is pinned down to its DER.

use unicore_ajo::*;
use unicore_batch::WorkModel;
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_gateway::MappedUser;
use unicore_njs::{Njs, TranslationTable, WorkOracle};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_telemetry::{FlightEvent, Telemetry};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "alice1".into(),
        account_group: "zam".into(),
    }
}

/// What each task "does", chosen by the task's name.
struct Scripted;

impl WorkOracle for Scripted {
    fn work_for(&self, task: &AbstractTask, _: &ResourceRequest) -> WorkModel {
        match task.name.as_str() {
            "noisy" => WorkModel::fail_after(
                5 * SEC,
                3,
                "solver: diverged at step 41\nbacktrace follows\n  frame 0\n",
            ),
            "blank" => WorkModel::fail_after(5 * SEC, 4, "  \n"),
            "hog" => WorkModel {
                output_files: vec![
                    ("small.dat".into(), vec![7; 16].into()),
                    // One byte more than the Uspace quota: 64 MiB + the
                    // task's 16 MiB of declared temporary disk.
                    ("huge.dat".into(), vec![0; (80 << 20) + 1].into()),
                ],
                ..WorkModel::succeed_after(5 * SEC)
            },
            "slow" => WorkModel::succeed_after(2 * HOUR),
            _ => WorkModel::succeed_after(5 * SEC),
        }
    }
}

/// FZJ with a T3E, and an "SP2" whose administrator installed the wrong
/// translation table; the recorder is on.
fn fzj() -> Njs {
    let mut njs = Njs::with_oracle("FZJ", Box::new(Scripted));
    njs.set_telemetry(Telemetry::collecting(7));
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs.add_vsite(
        deployment_page("FZJ", "SP2", Architecture::IbmSp2),
        TranslationTable::for_architecture(Architecture::NecSx4),
    );
    njs
}

fn task(name: &str, run_time_secs: u64) -> GraphNode {
    GraphNode::Task(AbstractTask {
        name: name.into(),
        resources: ResourceRequest::minimal().with_run_time(run_time_secs),
        kind: TaskKind::Execute(ExecuteKind::Script {
            script: "./a.out\n".into(),
        }),
    })
}

fn job_at(vsite: &str, nodes: Vec<(u64, GraphNode)>, edges: &[(u64, u64)]) -> AbstractJob {
    let mut job = AbstractJob::new(
        "flight",
        VsiteAddress::new("FZJ", vsite),
        UserAttributes::new(DN, "zam"),
    );
    for (id, node) in nodes {
        job.nodes.push((ActionId(id), node));
    }
    for &(from, to) in edges {
        job.dependencies.push(Dependency {
            from: ActionId(from),
            to: ActionId(to),
            files: vec![],
        });
    }
    job
}

/// Steps at every batch event until the job is done.
fn run(njs: &mut Njs, job: JobId) {
    let mut now: SimTime = 0;
    njs.step(now);
    while !njs.is_done(job) {
        now = njs.next_event_time().expect("work pending").max(now + 1);
        njs.step(now);
        assert!(now < 10 * HOUR, "job {job} never finished");
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn lines(events: &[FlightEvent]) -> Vec<String> {
    events
        .iter()
        .map(|e| format!("{} {} | {}", e.at, e.what, e.detail))
        .collect()
}

fn task_outcome(njs: &Njs, job: JobId, node: u64) -> TaskOutcome {
    match njs.outcome(job).unwrap().child(ActionId(node)) {
        Some(OutcomeNode::Task(t)) => t.clone(),
        other => panic!("node {node}: {other:?}"),
    }
}

#[test]
fn failing_exit_ships_consign_dispatch_running_exit_and_kill() {
    let mut njs = fzj();
    let nodes = vec![
        (1, task("ok", 3_600)),
        (2, task("noisy", 3_600)),
        (3, task("after", 3_600)),
    ];
    let id = njs
        .consign(job_at("T3E", nodes, &[(1, 2), (2, 3)]), user(), 0)
        .unwrap();
    run(&mut njs, id);

    let failed = task_outcome(&njs, id, 2);
    assert_eq!(failed.status, ActionStatus::NotSuccessful);
    assert_eq!(
        lines(&failed.flight),
        [
            "0 njs.consign | vsite T3E",
            "0 njs.dispatch | node 1 -> T3E:batch",
            "0 batch.running | node 1 on T3E",
            "5000000 batch.exit | node 1 exit code 0",
            "5000000 njs.dispatch | node 2 -> T3E:batch",
            "5000000 batch.running | node 2 on T3E",
            "10000000 batch.exit | node 2 exit code 3: solver: diverged at step 41",
        ]
    );
    // The whole failed outcome, ring included, byte for byte.
    assert_eq!(
        hex(&sha256(&OutcomeNode::Task(failed).to_der())),
        "d2966cb8cee48d2ebda6d56374635c43f41c6ed94e628ed78a53f0dd81fb797f"
    );

    let killed = task_outcome(&njs, id, 3);
    assert_eq!(killed.status, ActionStatus::Killed);
    assert_eq!(
        lines(&killed.flight).last().map(String::as_str),
        Some("10000000 njs.kill | node 3: predecessor failed")
    );
    assert_eq!(killed.flight.len(), 8);
    // A green task ships no ring.
    assert!(task_outcome(&njs, id, 1).flight.is_empty());
}

#[test]
fn wall_clock_kill_and_blank_stderr() {
    let mut njs = fzj();
    let nodes = vec![(1, task("slow", 3_600)), (2, task("blank", 600))];
    let id = njs.consign(job_at("T3E", nodes, &[]), user(), 0).unwrap();
    run(&mut njs, id);
    assert_eq!(
        lines(&task_outcome(&njs, id, 1).flight),
        [
            "0 njs.consign | vsite T3E",
            "0 njs.dispatch | node 1 -> T3E:batch",
            "0 njs.dispatch | node 2 -> T3E:express",
            "0 batch.running | node 1 on T3E",
            "0 batch.running | node 2 on T3E",
            "5000000 batch.exit | node 2 exit code 4",
            "3600000000 batch.exit | node 1 exit code 137 (wall clock limit exceeded): \
             job killed: wall clock limit exceeded",
        ]
    );
    assert_eq!(
        task_outcome(&njs, id, 1).message,
        "wall clock limit exceeded"
    );
}

#[test]
fn cancelled_in_the_queue() {
    let mut njs = fzj();
    // The first job fills the machine so the second one queues.
    let mut wide = task("ok", 3_600);
    if let GraphNode::Task(t) = &mut wide {
        let nodes = deployment_page("FZJ", "T3E", Architecture::CrayT3e)
            .performance
            .nodes;
        t.resources = t.resources.with_processors(nodes);
    }
    let blocker = njs
        .consign(job_at("T3E", vec![(1, wide.clone())], &[]), user(), 0)
        .unwrap();
    let id = njs
        .consign(job_at("T3E", vec![(4, wide)], &[]), user(), 0)
        .unwrap();
    njs.step(0);
    assert_eq!(task_outcome(&njs, id, 4).status, ActionStatus::Queued);
    // The site operator removes the queued batch job.
    let batch = &mut njs.vsite_mut("T3E").unwrap().batch;
    assert!(batch.cancel(unicore_batch::BatchJobId(2), SEC));
    njs.step(SEC);
    assert!(njs.is_done(id));
    let t = task_outcome(&njs, id, 4);
    assert_eq!(
        (t.status, t.message.as_str()),
        (ActionStatus::Killed, "cancelled")
    );
    assert_eq!(
        lines(&t.flight),
        [
            "0 njs.consign | vsite T3E",
            "0 njs.dispatch | node 4 -> T3E:batch",
            "1000000 batch.cancelled | node 4 on T3E",
        ]
    );
    run(&mut njs, blocker);
}

#[test]
fn output_over_quota() {
    let mut njs = fzj();
    let id = njs
        .consign(job_at("T3E", vec![(1, task("hog", 3_600))], &[]), user(), 0)
        .unwrap();
    run(&mut njs, id);
    let t = task_outcome(&njs, id, 1);
    assert_eq!(t.status, ActionStatus::NotSuccessful);
    assert_eq!(t.message, "output exceeded job disk quota");
    assert_eq!(
        lines(&t.flight),
        [
            "0 njs.consign | vsite T3E",
            "0 njs.dispatch | node 1 -> T3E:batch",
            "0 batch.running | node 1 on T3E",
            "5000000 batch.exit | node 1 exit code 0",
            "5000000 njs.quota | node 1: output huge.dat exceeded job disk quota",
        ]
    );
    // The file that fitted was deposited all the same.
    let v = njs.vsite("T3E").unwrap();
    assert!(v.vspace.uspace(id).unwrap().exists("small.dat"));
    assert!(!v.vspace.uspace(id).unwrap().exists("huge.dat"));
}

#[test]
fn mistranslated_script_and_missing_import() {
    let mut njs = fzj();
    let import = GraphNode::Task(AbstractTask {
        name: "stage".into(),
        resources: ResourceRequest::minimal(),
        kind: TaskKind::File(FileKind::Import {
            source: DataLocation::Xspace {
                vsite: VsiteAddress::new("FZJ", "SP2"),
                path: "/home/alice1/absent.dat".into(),
            },
            uspace_name: "in.dat".into(),
        }),
    });
    let nodes = vec![(1, import), (2, task("ok", 3_600))];
    let id = njs.consign(job_at("SP2", nodes, &[]), user(), 0).unwrap();
    run(&mut njs, id);
    assert_eq!(
        lines(&task_outcome(&njs, id, 2).flight),
        [
            "0 njs.consign | vsite SP2",
            "0 njs.file.error | node 1: file not found: /home/alice1/absent.dat",
            "0 njs.dispatch.error | submit script does not match this machine's batch dialect",
        ]
    );
    assert_eq!(task_outcome(&njs, id, 1).flight.len(), 2);
}

#[test]
fn forward_to_a_peer_usite() {
    let mut njs = fzj();
    let mut group = job_at("X", vec![(1, task("ok", 3_600))], &[]);
    group.vsite = VsiteAddress::new("FAR", "X");
    let nodes = vec![(1, GraphNode::SubJob(group)), (2, task("blank", 3_600))];
    let id = njs.consign(job_at("T3E", nodes, &[]), user(), 0).unwrap();
    njs.step(0);
    njs.step(5 * SEC);
    assert_eq!(
        lines(&task_outcome(&njs, id, 2).flight),
        [
            "0 njs.consign | vsite T3E",
            "0 njs.forward | node 1 -> usite FAR",
            "0 njs.dispatch | node 2 -> T3E:batch",
            "0 batch.running | node 2 on T3E",
            "5000000 batch.exit | node 2 exit code 4",
        ]
    );
}
