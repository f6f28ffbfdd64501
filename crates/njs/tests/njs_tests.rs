//! Integration tests for the NJS engine: consignment, incarnation,
//! dependency-ordered execution, data staging, sub-jobs, and services.

use unicore_ajo::*;
use unicore_gateway::MappedUser;
use unicore_njs::{Njs, OutgoingItem, TranslationTable, INCOMING_PREFIX};
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

/// An NJS for FZJ with a T3E and an SP2 Vsite.
fn fzj() -> Njs {
    let mut njs = Njs::new("FZJ");
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
fn run_until_done(njs: &mut Njs, job: JobId, limit: SimTime) -> SimTime {
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

#[test]
fn incoming_file_from_peer() {
    let mut njs = fzj();
    njs.receive_incoming_file("T3E", "fields.grb", vec![1; 500], "alice1")
        .unwrap();
    let v = njs.vsite("T3E").unwrap();
    assert!(v
        .vspace
        .xspace_ref()
        .exists(&format!("{INCOMING_PREFIX}fields.grb")));
    assert!(njs
        .receive_incoming_file("NOPE", "x", vec![], "alice1")
        .is_err());
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
    let mut njs = Njs::new("FZJ");
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
    njs.attach_store(EventStore::open(Box::new(mem.clone())).unwrap());
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

/// One store on a two-shard facade would journal shard 0 and lose every
/// other shard's jobs at the next crash: refused in release builds too.
#[test]
#[should_panic(expected = "use attach_stores with >1 shard")]
fn attach_store_on_a_multi_shard_facade_panics() {
    use unicore_njs::ShardedNjs;
    use unicore_store::{EventStore, MemoryBackend};

    let mut njs = ShardedNjs::new("FZJ", 2, 1);
    njs.attach_store(EventStore::open(Box::new(MemoryBackend::new())).unwrap());
}
