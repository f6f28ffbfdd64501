//! Integration tests for the NJS engine: consignment, incarnation,
//! dependency-ordered execution, data staging, sub-jobs, and services.

use unicore_ajo::*;
use unicore_gateway::MappedUser;
use unicore_njs::{OutgoingItem, ShardedNjs, TranslationTable, INCOMING_PREFIX};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "alice1".into(),
        account_group: "zam".into(),
    }
}

fn attrs() -> UserAttributes {
    UserAttributes::new(DN, "zam")
}

/// The NJS of FZJ with a T3E and an SP2 Vsite: the merge phase carries
/// work between the two.
fn fzj() -> ShardedNjs {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs.add_vsite(
        deployment_page("FZJ", "SP2", Architecture::IbmSp2),
        TranslationTable::for_architecture(Architecture::IbmSp2),
    );
    njs
}

fn script_node(name: &str, script: &str) -> GraphNode {
    GraphNode::Task(AbstractTask {
        name: name.into(),
        resources: ResourceRequest::minimal().with_run_time(3_600),
        kind: TaskKind::Execute(ExecuteKind::Script {
            script: script.into(),
        }),
    })
}

/// Runs the NJS until the job finishes or `limit` is reached.
fn run_until_done(njs: &mut ShardedNjs, job: JobId, limit: SimTime) -> SimTime {
    let mut now = 0;
    njs.step(now);
    while !njs.is_done(job) && now < limit {
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
        njs.step(now);
    }
    now
}

#[test]
fn single_script_task_runs_to_success() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("hello", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((
        ActionId(1),
        script_node("hi", "echo hello unicore\nsleep 10\n"),
    ));
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::Successful);
    let OutcomeNode::Task(t) = outcome.child(ActionId(1)).unwrap() else {
        panic!()
    };
    assert_eq!(t.exit_code, Some(0));
    assert_eq!(t.stdout, b"hello unicore\n");
    assert_eq!(njs.incarnation_count(), 1);
}

#[test]
fn dependency_chain_respected_and_files_flow() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("pipeline", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((
        ActionId(1),
        script_node("produce", "sleep 5\nproduce mid.dat 1000\n"),
    ));
    job.nodes
        .push((ActionId(2), script_node("consume", "sleep 3\n")));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["mid.dat".into()],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    assert_eq!(njs.outcome(id).unwrap().status, ActionStatus::Successful);
    // mid.dat exists in the shared Uspace.
    let v = njs.vsite("T3E").unwrap();
    assert!(v.vspace.uspace(id).unwrap().exists("mid.dat"));
    // Tasks ran in order (both incarnated).
    assert_eq!(njs.incarnation_count(), 2);
}

#[test]
fn failed_predecessor_kills_successors() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("failing", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("bad", "exit 2\n")));
    job.nodes
        .push((ActionId(2), script_node("never", "sleep 1\n")));
    job.nodes
        .push((ActionId(3), script_node("also-never", "sleep 1\n")));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    job.dependencies.push(Dependency {
        from: ActionId(2),
        to: ActionId(3),
        files: vec![],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::NotSuccessful);
    assert_eq!(
        outcome.child(ActionId(1)).unwrap().status(),
        ActionStatus::NotSuccessful
    );
    assert_eq!(
        outcome.child(ActionId(2)).unwrap().status(),
        ActionStatus::Killed
    );
    assert_eq!(
        outcome.child(ActionId(3)).unwrap().status(),
        ActionStatus::Killed
    );
    // Only the first task ever reached the batch system.
    assert_eq!(njs.incarnation_count(), 1);
}

#[test]
fn compile_link_execute_pipeline() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("cle", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.portfolio.push(PortfolioFile {
        name: "main.f90".into(),
        data: b"program main\nend program\n".to_vec().into(),
    });
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "import source".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Import {
                source: DataLocation::Workstation {
                    path: "main.f90".into(),
                },
                uspace_name: "main.f90".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "compile".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Compile {
                sources: vec!["main.f90".into()],
                options: vec!["O3".into()],
                output: "main.o".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(3),
        GraphNode::Task(AbstractTask {
            name: "link".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Link {
                objects: vec!["main.o".into()],
                libraries: vec!["blas".into()],
                output: "model".into(),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(4),
        GraphNode::Task(AbstractTask {
            name: "run".into(),
            resources: ResourceRequest::minimal()
                .with_processors(32)
                .with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::User {
                executable: "model".into(),
                arguments: vec![],
                environment: vec![],
            }),
        }),
    ));
    job.nodes.push((
        ActionId(5),
        GraphNode::Task(AbstractTask {
            name: "export".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Export {
                uspace_name: "model".into(),
                destination: DataLocation::Xspace {
                    vsite: VsiteAddress::new("FZJ", "T3E"),
                    path: "/home/alice/model".into(),
                },
            }),
        }),
    ));
    for (from, to) in [(1u64, 2u64), (2, 3), (3, 4), (4, 5)] {
        job.dependencies.push(Dependency {
            from: ActionId(from),
            to: ActionId(to),
            files: vec![],
        });
    }
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::Successful, "{outcome:?}");
    // The linked executable was exported to the Xspace.
    let v = njs.vsite("T3E").unwrap();
    assert!(v.vspace.xspace_ref().exists("/home/alice/model"));
}

#[test]
fn local_subjob_on_other_vsite() {
    let mut njs = fzj();
    // Pre-processing on the SP2, main run on the T3E.
    let mut sub = AbstractJob::new("prep", VsiteAddress::new("FZJ", "SP2"), attrs());
    sub.nodes.push((
        ActionId(1),
        script_node("preprocess", "sleep 4\nproduce grid.dat 2048\n"),
    ));
    let mut job = AbstractJob::new("coupled", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    job.nodes
        .push((ActionId(2), script_node("main", "sleep 8\n")));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::Successful, "{outcome:?}");
    // The sub-job's outcome is nested.
    let OutcomeNode::Job(sub_outcome) = outcome.child(ActionId(1)).unwrap() else {
        panic!()
    };
    assert_eq!(sub_outcome.status, ActionStatus::Successful);
}

#[test]
fn remote_subjob_goes_to_outbox_and_completes() {
    let mut njs = fzj();
    let mut sub = AbstractJob::new("remote part", VsiteAddress::new("RUS", "VPP"), attrs());
    sub.nodes
        .push((ActionId(1), script_node("far", "sleep 2\n")));
    let mut job = AbstractJob::new("multi-site", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    let id = njs.consign(job, user(), 0).unwrap();
    njs.step(0);
    let outbox = njs.take_outbox();
    assert_eq!(outbox.len(), 1);
    let OutgoingItem::SubJob {
        parent, node, ajo, ..
    } = &outbox[0]
    else {
        panic!("expected sub-job item");
    };
    assert_eq!(*parent, id);
    assert_eq!(ajo.vsite.usite, "RUS");
    assert!(!njs.is_done(id));
    // Simulate the federation returning the remote outcome.
    njs.complete_remote_node(
        id,
        *node,
        OutcomeNode::Job(JobOutcome {
            status: ActionStatus::Successful,
            children: vec![],
        }),
    );
    njs.step(SEC);
    assert!(njs.is_done(id));
    assert_eq!(njs.outcome(id).unwrap().status, ActionStatus::Successful);
}

#[test]
fn edge_files_travel_with_forwarded_subjob() {
    let mut njs = fzj();
    let mut sub = AbstractJob::new("consume", VsiteAddress::new("DWD", "SX4"), attrs());
    sub.nodes
        .push((ActionId(1), script_node("use", "sleep 1\n")));
    let mut job = AbstractJob::new("producer", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((
        ActionId(1),
        script_node("make", "produce fields.grb 4096\n"),
    ));
    job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["fields.grb".into()],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, 60 * SEC); // runs until blocked on remote
    let outbox = njs.take_outbox();
    assert_eq!(outbox.len(), 1);
    let OutgoingItem::SubJob { ajo, .. } = &outbox[0] else {
        panic!()
    };
    assert_eq!(ajo.portfolio.len(), 1);
    assert_eq!(ajo.portfolio[0].name, "fields.grb");
    assert_eq!(ajo.portfolio[0].data.len(), 4096);
    let _ = id;
}

#[test]
fn transfer_to_local_vsite_lands_in_incoming() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("xfer", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("make", "produce big.dat 10000\n")));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "push".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Transfer {
                uspace_name: "big.dat".into(),
                to_vsite: VsiteAddress::new("FZJ", "SP2"),
                dest_name: "big.dat".into(),
            }),
        }),
    ));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    assert_eq!(njs.outcome(id).unwrap().status, ActionStatus::Successful);
    let sp2 = njs.vsite("SP2").unwrap();
    assert!(sp2
        .vspace
        .xspace_ref()
        .exists(&format!("{INCOMING_PREFIX}big.dat")));
}

/// A produced file is allocated once: the Uspace entry, a delivery into a
/// sibling Vsite's incoming area and the item handed to the federation
/// layer for a peer Usite all hold the same `Arc<[u8]>`.
#[test]
fn a_produced_file_is_one_allocation_wherever_it_goes() {
    use std::sync::Arc;
    let transfer = |to: VsiteAddress| {
        GraphNode::Task(AbstractTask {
            name: "push".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Transfer {
                uspace_name: "big.dat".into(),
                to_vsite: to,
                dest_name: "big.dat".into(),
            }),
        })
    };
    let mut njs = fzj();
    let mut job = AbstractJob::new("xfer", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("make", "produce big.dat 100000\n")));
    job.nodes
        .push((ActionId(2), transfer(VsiteAddress::new("FZJ", "SP2"))));
    job.nodes
        .push((ActionId(3), transfer(VsiteAddress::new("DWD", "SX4"))));
    for to in [2, 3] {
        job.dependencies.push(Dependency {
            from: ActionId(1),
            to: ActionId(to),
            files: vec![],
        });
    }
    let id = njs.consign(job, user(), 0).unwrap();
    // The remote transfer never completes here; run until it is handed over.
    let mut outbox = Vec::new();
    let mut now = 0;
    while outbox.is_empty() {
        assert!(now < HOUR, "transfer never dispatched");
        njs.step(now);
        outbox = njs.take_outbox();
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
    }
    let [OutgoingItem::Transfer { data: outgoing, .. }] = &outbox[..] else {
        panic!("expected exactly the remote transfer");
    };
    let uspace = njs.vsite("T3E").unwrap().vspace.uspace(id).unwrap();
    let produced = &uspace.read("big.dat", "alice1").unwrap().data;
    let sp2 = njs.vsite("SP2").unwrap().vspace.xspace_ref();
    let landed = &sp2
        .read_raw(&format!("{INCOMING_PREFIX}big.dat"))
        .expect("local delivery landed")
        .data;
    assert_eq!(produced.len(), 100_000);
    assert!(Arc::ptr_eq(produced, outgoing), "outgoing item copied");
    assert!(Arc::ptr_eq(produced, landed), "local delivery copied");
}

#[test]
fn admission_rejects_oversized_request() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("huge", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "too big".into(),
            resources: ResourceRequest::minimal().with_processors(100_000),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: "sleep 1".into(),
            }),
        }),
    ));
    let err = njs.consign(job, user(), 0).unwrap_err();
    assert!(matches!(err, unicore_njs::NjsError::Admission { .. }));
}

#[test]
fn unknown_vsite_rejected() {
    let mut njs = fzj();
    let job = AbstractJob::new("where", VsiteAddress::new("FZJ", "SX99"), attrs());
    assert!(matches!(
        njs.consign(job, user(), 0),
        Err(unicore_njs::NjsError::UnknownVsite { .. })
    ));
    let job2 = AbstractJob::new("elsewhere", VsiteAddress::new("LRZ", "SP2"), attrs());
    assert!(matches!(
        njs.consign(job2, user(), 0),
        Err(unicore_njs::NjsError::WrongUsite { .. })
    ));
}

#[test]
fn hold_resume_and_abort() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("ctl", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("a", "sleep 100\n")));
    job.nodes
        .push((ActionId(2), script_node("b", "sleep 100\n")));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    let id = njs.consign(job, user(), 0).unwrap();
    // Hold before anything dispatches.
    assert!(njs.control(id, ControlOp::Hold, DN, 0).unwrap());
    njs.step(0);
    assert_eq!(njs.incarnation_count(), 0);
    // Resume: the first task dispatches.
    assert!(njs.control(id, ControlOp::Resume, DN, SEC).unwrap());
    njs.step(SEC);
    assert_eq!(njs.incarnation_count(), 1);
    // Abort kills the running task and the waiting one.
    assert!(njs.control(id, ControlOp::Abort, DN, 2 * SEC).unwrap());
    assert!(njs.is_done(id));
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::NotSuccessful);
    assert_eq!(
        outcome.child(ActionId(2)).unwrap().status(),
        ActionStatus::Killed
    );
}

#[test]
fn ownership_enforced_on_services() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("own", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), script_node("t", "sleep 1\n")));
    let id = njs.consign(job, user(), 0).unwrap();
    let other = "C=DE, O=RUS, OU=HPC, CN=bob";
    assert!(matches!(
        njs.control(id, ControlOp::Abort, other, 0),
        Err(unicore_njs::NjsError::NotOwner { .. })
    ));
    assert!(matches!(
        njs.query(id, other, DetailLevel::Tasks),
        Err(unicore_njs::NjsError::NotOwner { .. })
    ));
    assert!(njs.list_jobs(other).is_empty());
    assert_eq!(njs.list_jobs(DN).len(), 1);
}

#[test]
fn query_detail_levels() {
    let mut njs = fzj();
    let mut sub = AbstractJob::new("group", VsiteAddress::new("FZJ", "SP2"), attrs());
    sub.nodes
        .push((ActionId(1), script_node("inner", "sleep 1\n")));
    let mut job = AbstractJob::new("detail", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("top", "sleep 1\n")));
    job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);

    let job_only = njs.query(id, DN, DetailLevel::JobOnly).unwrap();
    assert!(job_only.children.is_empty());
    assert_eq!(job_only.status, ActionStatus::Successful);

    let groups = njs.query(id, DN, DetailLevel::Groups).unwrap();
    assert_eq!(groups.children.len(), 1); // only the sub-job survives

    let tasks = njs.query(id, DN, DetailLevel::Tasks).unwrap();
    assert_eq!(tasks.children.len(), 2);
}

#[test]
fn fetch_output_file_on_request() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("out", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("make", "produce answer.txt 100\n")));
    let id = njs.consign(job, user(), 0).unwrap();
    run_until_done(&mut njs, id, HOUR);
    let data = njs.fetch_uspace_file(id, "answer.txt", DN).unwrap();
    assert_eq!(data.len(), 100);
    assert!(njs.fetch_uspace_file(id, "nope.txt", DN).is_err());
}

/// A file from a peer Usite arrives over the data plane — an offer, then
/// its chunks — and lands in the Vsite's incoming area. An offer to a
/// Vsite this NJS does not serve is refused.
#[test]
fn incoming_file_from_peer() {
    use unicore_dataplane::TransferManifest;
    use unicore_njs::NjsError;

    let mut njs = fzj();
    let data = vec![1u8; 500];
    let offer = |vsite: &str| {
        TransferManifest::for_bytes(
            "RUS",
            JobId(9),
            ActionId(1),
            VsiteAddress::new("FZJ", vsite),
            "fields.grb",
            DN,
            false,
            &data,
            256,
        )
    };
    assert_eq!(njs.transfer_offer(offer("T3E"), "alice1").unwrap(), 0);
    assert_eq!(
        njs.transfer_chunk("RUS", JobId(9), ActionId(1), 0, &data[..256])
            .unwrap(),
        (1, false)
    );
    assert_eq!(
        njs.transfer_chunk("RUS", JobId(9), ActionId(1), 1, &data[256..])
            .unwrap(),
        (2, true)
    );
    let v = njs.vsite("T3E").unwrap();
    assert!(v
        .vspace
        .xspace_ref()
        .exists(&format!("{INCOMING_PREFIX}fields.grb")));
    match njs.transfer_offer(offer("NOPE"), "alice1") {
        Err(NjsError::UnknownVsite { vsite, usite }) => {
            assert_eq!((vsite.as_str(), usite.as_str()), ("FZJ/NOPE", "FZJ"));
        }
        other => panic!("offer to an unknown Vsite: {other:?}"),
    }
}

#[test]
fn turnaround_reported() {
    let mut njs = fzj();
    let mut job = AbstractJob::new("t", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("s", "sleep 30\n")));
    let id = njs.consign(job, user(), 0).unwrap();
    assert!(njs.turnaround(id).is_none());
    run_until_done(&mut njs, id, HOUR);
    assert_eq!(njs.turnaround(id), Some(30 * SEC));
}

#[test]
fn queued_status_visible_when_machine_busy() {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    // A tiny 4-node machine so jobs queue.
    let mut page = deployment_page("FZJ", "T3E", Architecture::CrayT3e);
    page.performance.nodes = 4;
    page.limits.max_processors = 4;
    njs.add_vsite(
        page,
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );

    let mk = |name: &str| {
        let mut j = AbstractJob::new(name, VsiteAddress::new("FZJ", "T3E"), attrs());
        j.nodes.push((
            ActionId(1),
            GraphNode::Task(AbstractTask {
                name: format!("{name}-task"),
                resources: ResourceRequest::minimal()
                    .with_processors(4)
                    .with_run_time(100),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: "sleep 50\n".into(),
                }),
            }),
        ));
        j
    };
    let a = njs.consign(mk("a"), user(), 0).unwrap();
    let b = njs.consign(mk("b"), user(), 0).unwrap();
    njs.step(0);
    let qa = njs.query(a, DN, DetailLevel::Tasks).unwrap();
    let qb = njs.query(b, DN, DetailLevel::Tasks).unwrap();
    assert_eq!(
        qa.child(ActionId(1)).unwrap().status(),
        ActionStatus::Running
    );
    assert_eq!(
        qb.child(ActionId(1)).unwrap().status(),
        ActionStatus::Queued
    );
}

#[test]
fn consign_shares_portfolio_payloads_without_copying() {
    // The staged-file map built at consign must share the AJO's payload
    // allocations (a refcount bump per file), not copy them: the same
    // `Arc<[u8]>` backs the portfolio entry before and after admission.
    let data: std::sync::Arc<[u8]> = vec![0xA5u8; 1 << 20].into();
    let mut njs = fzj();
    let mut job = AbstractJob::new("bigstage", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.portfolio.push(PortfolioFile {
        name: "input.bin".into(),
        data: data.clone(),
    });
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "import input.bin".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Import {
                source: DataLocation::Workstation {
                    path: "input.bin".into(),
                },
                uspace_name: "input.bin".into(),
            }),
        }),
    ));
    let before = std::sync::Arc::strong_count(&data);
    let id = njs.consign(job, user(), 0).unwrap();
    assert!(
        std::sync::Arc::strong_count(&data) > before,
        "consign must stage the payload by reference, not by copy"
    );
    // And the bytes that land in the Uspace are the same bytes — the same
    // allocation, in fact.
    run_until_done(&mut njs, id, HOUR);
    let fetched = njs.fetch_uspace_file(id, "input.bin", DN).unwrap();
    assert_eq!(fetched.as_slice(), &data[..], "byte identity lost");
    let uspace = njs.vsite("T3E").unwrap().vspace.uspace(id).unwrap();
    let imported = &uspace.read("input.bin", "alice1").unwrap().data;
    assert!(std::sync::Arc::ptr_eq(imported, &data), "import copied");
}

/// A well-formed offer can claim any length (9 chunk sums at
/// `chunk_size = u32::MAX` is over 32 GiB). One that exceeds the
/// destination space's whole quota is refused before the staging buffer
/// is allocated, journals nothing and leaves no receiver state; an offer
/// that fits is admitted as before.
#[test]
fn offer_beyond_the_destination_quota_is_refused_and_leaves_nothing() {
    use unicore_dataplane::TransferManifest;
    use unicore_njs::NjsError;
    use unicore_store::{EventStore, MemoryBackend};
    use unicore_uspace::{SpaceError, VirtualFs};

    let mem = MemoryBackend::new();
    let mut njs = fzj();
    njs.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
    *njs.vsite_mut("T3E").unwrap().vspace.xspace() = VirtualFs::with_quota(1 << 20);

    let hostile = TransferManifest {
        origin: "RUS".into(),
        origin_job: JobId(9),
        origin_node: ActionId(1),
        to_vsite: VsiteAddress::new("FZJ", "T3E"),
        dest_name: "huge.bin".into(),
        user_dn: DN.into(),
        total_len: 9 * u64::from(u32::MAX),
        chunk_size: u32::MAX,
        chunk_sums: vec![[0; 32]; 9],
        file_sum: [0; 32],
        world_readable: false,
    };
    assert!(hostile.well_formed(), "the manifest check alone admits it");
    match njs.transfer_offer(hostile, "alice1") {
        Err(NjsError::Space(SpaceError::QuotaExceeded { needed, quota })) => {
            assert_eq!((needed, quota), (9 * u64::from(u32::MAX), 1 << 20));
        }
        other => panic!("hostile offer: {other:?}"),
    }
    assert_eq!(mem.append_count(), 0, "a refused offer journals nothing");
    assert!(njs
        .incoming_progress("RUS", JobId(9), ActionId(1))
        .is_none());
    let path = format!("{INCOMING_PREFIX}huge.bin");
    assert!(!njs
        .vsite("T3E")
        .unwrap()
        .vspace
        .xspace_ref()
        .has_partial(&path));

    // The same sender's honest offer is admitted, chunk by chunk.
    let data = vec![0x42u8; 100_000];
    let honest = TransferManifest::for_bytes(
        "RUS",
        JobId(9),
        ActionId(1),
        VsiteAddress::new("FZJ", "T3E"),
        "huge.bin",
        DN,
        false,
        &data,
        65_536,
    );
    assert_eq!(njs.transfer_offer(honest, "alice1").unwrap(), 0);
    assert_eq!(mem.append_count(), 1, "TransferOpened");
    assert_eq!(
        njs.transfer_chunk("RUS", JobId(9), ActionId(1), 0, &data[..65_536])
            .unwrap(),
        (1, false)
    );
    assert_eq!(
        njs.transfer_chunk("RUS", JobId(9), ActionId(1), 1, &data[65_536..])
            .unwrap(),
        (2, true)
    );
    assert_eq!(
        njs.vsite("T3E")
            .unwrap()
            .vspace
            .xspace_ref()
            .read(&path, "alice1")
            .unwrap()
            .data[..],
        data[..]
    );
}

/// An NJS journals into one store: a second one would be written by
/// nobody, so two are refused, in release builds too.
#[test]
#[should_panic(expected = "one journal per NJS")]
fn two_stores_are_refused() {
    use unicore_store::{EventStore, MemoryBackend};

    let mut njs = fzj();
    let open = || EventStore::open(Box::new(MemoryBackend::new())).unwrap();
    njs.attach_stores(vec![open(), open()]);
}

/// The idempotency key and the peer origin a consign journals live with
/// the job: a restart gets both back from the journal, and a purge — live
/// or replayed — forgets both.
#[test]
fn key_and_origin_come_back_with_the_job_and_go_with_its_purge() {
    use unicore_njs::ConsignMeta;
    use unicore_store::{EventStore, ForeignOrigin, MemoryBackend};

    let mem = MemoryBackend::new();
    let journalled = || {
        let mut njs = fzj();
        njs.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
        njs
    };
    let key = vec![0x5a; 32];
    let origin = ForeignOrigin {
        origin: "RUS".into(),
        parent: JobId(41),
        node: ActionId(2),
        return_files: vec!["result.dat".into()],
    };
    let mut job = AbstractJob::new("for RUS", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push((ActionId(1), script_node("s", "sleep 30\n")));
    let meta = ConsignMeta {
        idem_key: key[..].into(),
        foreign: Some(origin.clone()),
        ..ConsignMeta::default()
    };

    let mut njs = journalled();
    let id = njs
        .consign_from_peer_with_meta(job, user(), 0, meta)
        .unwrap();
    let plain = njs
        .consign(
            AbstractJob::new("plain", VsiteAddress::new("FZJ", "T3E"), attrs()),
            user(),
            0,
        )
        .unwrap();
    run_until_done(&mut njs, id, HOUR);
    assert_eq!(njs.foreign_of(plain), None);
    drop(njs);

    mem.reboot();
    let mut njs = journalled();
    assert_eq!(njs.recover(HOUR).unwrap().jobs, [id, plain]);
    assert_eq!(njs.job_for_key(&key), Some(id));
    assert_eq!(njs.foreign_of(id), Some(&origin));
    assert_eq!(njs.foreign_of(plain), None);

    njs.purge(id, DN).unwrap();
    assert_eq!(njs.job_for_key(&key), None);
    assert_eq!(njs.foreign_of(id), None);
    drop(njs);

    mem.reboot();
    let mut njs = journalled();
    assert_eq!(njs.recover(HOUR).unwrap().jobs, [plain]);
    assert_eq!(njs.job_for_key(&key), None);
    assert_eq!(njs.foreign_of(id), None);
}

/// A key of any length a journal holds comes back with its job and goes
/// with its purge: a server's 32-byte digest, an 8-byte key, the empty
/// key of a consign that had none, and a 40-byte key, the one length held
/// on the heap. A restart reproduces the durable state, keys included,
/// line for line.
#[test]
fn keys_of_every_length_replay_and_purge() {
    use unicore_njs::{ConsignMeta, IdemKey};
    use unicore_store::{EventStore, MemoryBackend};

    let mem = MemoryBackend::new();
    let journalled = || {
        let mut njs = fzj();
        njs.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
        njs
    };
    let restart = |njs: ShardedNjs| {
        let before = njs.durable_state();
        drop(njs);
        mem.reboot();
        let mut njs = journalled();
        let jobs = njs.recover(2 * HOUR).unwrap().jobs;
        assert_eq!(njs.durable_state(), before);
        (njs, jobs)
    };
    let keys: [&[u8]; 4] = [&[0x5a; 32], b"8 bytes!", b"", &[0xc3; 40]];

    let mut njs = journalled();
    let ids: Vec<JobId> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let vsite = VsiteAddress::new("FZJ", "T3E");
            let mut job = AbstractJob::new(format!("keyed {i}"), vsite, attrs());
            job.nodes
                .push((ActionId(1), script_node("s", "sleep 30\n")));
            let meta = ConsignMeta {
                idem_key: IdemKey::from(*key),
                ..ConsignMeta::default()
            };
            njs.consign_with_meta(job, user(), 0, meta).unwrap()
        })
        .collect();
    for &id in &ids {
        run_until_done(&mut njs, id, HOUR);
    }
    let resolved = |njs: &ShardedNjs| keys.map(|key| njs.job_for_key(key));
    let all = [Some(ids[0]), Some(ids[1]), None, Some(ids[3])];
    assert_eq!(resolved(&njs), all);

    let (mut njs, jobs) = restart(njs);
    assert_eq!(jobs, ids);
    assert_eq!(resolved(&njs), all, "every key maps to its job again");

    for &id in &ids[1..] {
        njs.purge(id, DN).unwrap();
    }
    let kept = [Some(ids[0]), None, None, None];
    assert_eq!(resolved(&njs), kept);
    let (njs, jobs) = restart(njs);
    assert_eq!(jobs, ids[..1]);
    assert_eq!(resolved(&njs), kept, "a replayed purge forgets its key");
}

/// A receiver rebuilt from the journal is the live receiver, at every
/// event boundary of one transfer's life: an offer, a chunk, the same
/// chunk again, a chunk out of order, a re-offer that resumes, the same
/// sender offering new content under the same key and length (a sender
/// restart), the new content to completion, and a zero-length file.
/// After each step a second facade recovers from the same journal and
/// must agree on the receiver's progress, the staged partial's coverage
/// and the committed bytes.
#[test]
fn receiver_replay_matches_live_at_every_event_boundary() {
    use unicore_dataplane::TransferManifest;
    use unicore_store::{EventStore, MemoryBackend};

    let mem = MemoryBackend::new();
    let journalled = || {
        let mut njs = fzj();
        njs.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
        njs
    };
    let manifest = |node: u64, name: &str, data: &[u8]| {
        TransferManifest::for_bytes(
            "RUS",
            JobId(9),
            ActionId(node),
            VsiteAddress::new("FZJ", "T3E"),
            name,
            DN,
            false,
            data,
            256,
        )
    };
    // Three chunks each (256 + 256 + 188), same length, other content.
    let (a, b) = (vec![0xA1u8; 700], vec![0xB2u8; 700]);
    let paths = [
        format!("{INCOMING_PREFIX}fields.grb"),
        format!("{INCOMING_PREFIX}empty.dat"),
    ];
    let seen = |njs: &ShardedNjs| {
        let xspace = njs.vsite("T3E").unwrap().vspace.xspace_ref();
        let files: Vec<_> = paths
            .iter()
            .map(|p| {
                let committed = xspace.read_raw(p).ok().map(|f| f.data.to_vec());
                (xspace.partial_covered(p), committed)
            })
            .collect();
        let progress = [1, 2].map(|n| njs.incoming_progress("RUS", JobId(9), ActionId(n)));
        (progress, files)
    };
    let check = |live: &ShardedNjs, step: &str| {
        let mut replayed = journalled();
        replayed.recover(HOUR).unwrap();
        assert_eq!(seen(&replayed), seen(live), "after {step}");
    };
    let chunk = |data: &[u8], i: usize| data[i * 256..data.len().min((i + 1) * 256)].to_vec();

    let mut live = journalled();
    assert_eq!(
        live.transfer_offer(manifest(1, "fields.grb", &a), "alice1")
            .unwrap(),
        0
    );
    check(&live, "offer A");
    let ack = live.transfer_chunk("RUS", JobId(9), ActionId(1), 0, &chunk(&a, 0));
    assert_eq!(ack.unwrap(), (1, false));
    check(&live, "A chunk 0");
    let ack = live.transfer_chunk("RUS", JobId(9), ActionId(1), 0, &chunk(&a, 0));
    assert_eq!(ack.unwrap(), (1, false));
    check(&live, "A chunk 0 again");
    let ack = live.transfer_chunk("RUS", JobId(9), ActionId(1), 2, &chunk(&a, 2));
    assert_eq!(ack.unwrap(), (1, false));
    check(&live, "A chunk 2 out of order");
    assert_eq!(
        live.transfer_offer(manifest(1, "fields.grb", &a), "alice1")
            .unwrap(),
        1
    );
    check(&live, "A re-offered");
    assert_eq!(
        live.transfer_offer(manifest(1, "fields.grb", &b), "alice1")
            .unwrap(),
        0
    );
    check(&live, "B offered");
    for i in 0..3 {
        let ack = live.transfer_chunk("RUS", JobId(9), ActionId(1), i as u64, &chunk(&b, i));
        assert_eq!(ack.unwrap(), (i as u64 + 1, i == 2));
        check(&live, &format!("B chunk {i}"));
    }
    assert_eq!(
        live.transfer_offer(manifest(2, "empty.dat", &[]), "alice1")
            .unwrap(),
        0
    );
    check(&live, "a zero-length offer");

    let (_, files) = seen(&live);
    assert_eq!(files[0], (None, Some(b)));
    assert_eq!(files[1], (None, Some(Vec::new())));
}

/// A Monitor report counts the slow-dispatch watchdog once for the whole
/// site: a job wedged on the second Vsite shows in that Vsite's row and
/// in the report's `njs.watchdog.stuck` gauge alike.
#[test]
fn the_watchdog_gauge_counts_the_stuck_jobs_of_every_vsite() {
    use unicore_telemetry::Telemetry;

    let mut njs = fzj();
    njs.set_telemetry(Telemetry::collecting(1));
    let mut job = AbstractJob::new("wedged", VsiteAddress::new("FZJ", "SP2"), attrs());
    job.nodes
        .push((ActionId(1), script_node("s", "sleep 30\n")));
    njs.consign(job, user(), 0).unwrap();

    let report = njs.monitor_report(61 * SEC);
    let rows: Vec<(&str, i64)> = report
        .vsites
        .iter()
        .map(|v| (v.vsite.as_str(), v.stuck_jobs))
        .collect();
    assert_eq!(rows, [("T3E", 0), ("SP2", 1)]);
    assert_eq!(report.metrics.gauge("njs.watchdog.stuck"), 1);
}
