//! The `step.rs` seam on its own: node addressing, the `ActionId`
//! boundary, the pass structure as a number, and recovery of a job caught
//! half way.
//!
//! Inside the NJS a node is the position it holds in `job.nodes`; the
//! `ActionId` only matters where the outside world names a node (remote
//! completions, the journal, the outcome tree). These tests hold that
//! boundary: ids that are sparse and out of order behave exactly like
//! 0, 1, 2, and ids the job does not have are refused.

use unicore_ajo::*;
use unicore_codec::DerCodec;
use unicore_gateway::MappedUser;
use unicore_njs::{NjsError, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend, StoreEvent};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "alice1".into(),
        account_group: "zam".into(),
    }
}

fn fzj() -> ShardedNjs {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs
}

fn journalled() -> (ShardedNjs, MemoryBackend) {
    let mem = MemoryBackend::new();
    let mut njs = fzj();
    njs.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
    (njs, mem)
}

fn script(name: &str, body: &str) -> GraphNode {
    GraphNode::Task(AbstractTask {
        name: name.into(),
        resources: ResourceRequest::minimal().with_run_time(3_600),
        kind: TaskKind::Execute(ExecuteKind::Script {
            script: body.into(),
        }),
    })
}

fn new_job(name: &str) -> AbstractJob {
    AbstractJob::new(
        name,
        VsiteAddress::new("FZJ", "T3E"),
        UserAttributes::new(DN, "zam"),
    )
}

fn edge(from: u64, to: u64, files: &[&str]) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: files.iter().map(|f| f.to_string()).collect(),
    }
}

/// gridbench's `chain3`: three script tasks in a line.
fn chain3() -> AbstractJob {
    let mut job = new_job("chain3");
    for (i, secs) in [5, 7, 3].iter().enumerate() {
        let body = format!("sleep {secs}\n");
        job.nodes
            .push((ActionId(i as u64 + 1), script(&format!("t{i}"), &body)));
    }
    job.dependencies = vec![edge(1, 2, &[]), edge(2, 3, &[])];
    job
}

/// gridbench's `fan16`: a root and sixteen independent leaves.
fn fan16() -> AbstractJob {
    let mut job = new_job("fan16");
    job.nodes.push((ActionId(1), script("root", "sleep 1\n")));
    for i in 0..16u64 {
        let leaf = script(&format!("leaf{i}"), "sleep 2\nproduce part.dat 64\n");
        job.nodes.push((ActionId(i + 2), leaf));
        job.dependencies.push(edge(1, i + 2, &[]));
    }
    job
}

/// Steps at every batch event from `now` until `job` is done; returns
/// the time it finished.
fn run_from(njs: &mut ShardedNjs, job: JobId, mut now: SimTime) -> SimTime {
    njs.step(now);
    while !njs.is_done(job) {
        now = njs.next_event_time().expect("work pending").max(now + 1);
        njs.step(now);
        assert!(now < 10 * HOUR, "job {job} never finished");
    }
    now
}

fn run(njs: &mut ShardedNjs, job: JobId) -> SimTime {
    run_from(njs, job, 0)
}

/// A producer, a consumer of its file, and a failing task whose
/// successor is killed, under the given four ids (declaration order is
/// the order given).
fn diamond(ids: [u64; 4]) -> AbstractJob {
    let [a, b, c, d] = ids;
    let mut job = new_job("sparse");
    job.nodes.push((
        ActionId(a),
        script("make", "sleep 5\nproduce mid.dat 100\n"),
    ));
    job.nodes.push((ActionId(b), script("use", "sleep 3\n")));
    job.nodes
        .push((ActionId(c), script("bad", "sleep 4\nexit 2\n")));
    job.nodes.push((ActionId(d), script("never", "sleep 1\n")));
    job.dependencies = vec![edge(a, b, &["mid.dat"]), edge(a, c, &[]), edge(c, d, &[])];
    job
}

fn rename_outcome(outcome: &mut JobOutcome, to: &dyn Fn(ActionId) -> ActionId) {
    for (id, _) in &mut outcome.children {
        *id = to(*id);
    }
}

/// The journal with every top-level `ActionId` passed through `to`.
fn renamed(mem: &MemoryBackend, to: &dyn Fn(ActionId) -> ActionId) -> Vec<StoreEvent> {
    let store = EventStore::open(Box::new(mem.clone())).unwrap();
    let mut events = store.replay().unwrap().events;
    for event in &mut events {
        match event {
            StoreEvent::JobConsigned { ajo_der, .. } => {
                let mut ajo = AbstractJob::from_der(ajo_der).unwrap();
                for (id, _) in &mut ajo.nodes {
                    *id = to(*id);
                }
                for dep in &mut ajo.dependencies {
                    dep.from = to(dep.from);
                    dep.to = to(dep.to);
                }
                *ajo_der = ajo.to_der();
            }
            StoreEvent::JobIncarnated { node, .. } | StoreEvent::TaskStateChanged { node, .. } => {
                *node = to(*node)
            }
            StoreEvent::OutcomeStored { outcome_der, .. } => {
                let mut outcome = JobOutcome::from_der(outcome_der).unwrap();
                rename_outcome(&mut outcome, to);
                *outcome_der = outcome.to_der();
            }
            other => panic!("unexpected journal record {other:?}"),
        }
    }
    events
}

#[test]
fn sparse_unordered_ids_behave_like_dense_ones() {
    let sparse_ids = [9u64, 2, 40, 7];
    let (mut dense, dense_mem) = journalled();
    let (mut sparse, sparse_mem) = journalled();
    let dj = dense.consign(diamond([0, 1, 2, 3]), user(), 0).unwrap();
    let sj = sparse.consign(diamond(sparse_ids), user(), 0).unwrap();
    assert_eq!(run(&mut dense, dj), run(&mut sparse, sj));
    assert_eq!(dense.job_visits(), sparse.job_visits());
    assert_eq!(dense.incarnation_count(), 3);
    assert_eq!(sparse.incarnation_count(), 3);

    let to_dense = |id: ActionId| {
        ActionId(
            sparse_ids
                .iter()
                .position(|s| *s == id.0)
                .expect("known id") as u64,
        )
    };
    let mut mapped = sparse.outcome(sj).unwrap().clone();
    rename_outcome(&mut mapped, &to_dense);
    let want = dense.outcome(dj).unwrap();
    assert_eq!(&mapped, want);
    assert_eq!(want.status, ActionStatus::NotSuccessful);
    let statuses: Vec<ActionStatus> = want.children.iter().map(|(_, n)| n.status()).collect();
    assert_eq!(
        statuses,
        [
            ActionStatus::Successful,
            ActionStatus::Successful,
            ActionStatus::NotSuccessful,
            ActionStatus::Killed
        ]
    );
    // Outcome children stay in declaration order under their own ids.
    let ids: Vec<u64> = sparse
        .outcome(sj)
        .unwrap()
        .children
        .iter()
        .map(|(id, _)| id.0)
        .collect();
    assert_eq!(ids, sparse_ids);

    let dense_events = renamed(&dense_mem, &|id| id);
    assert_eq!(renamed(&sparse_mem, &to_dense), dense_events);
    // consign, 3 incarnations, 4 terminal nodes, the stored outcome.
    assert_eq!(dense_events.len(), 9);
}

#[test]
fn node_ids_the_job_does_not_have_are_refused() {
    let (mut njs, mem) = journalled();
    let mut job = new_job("boundary");
    let mut group = new_job("group");
    group.vsite = VsiteAddress::new("FAR", "X");
    group.nodes.push((ActionId(1), script("far", "sleep 1\n")));
    job.nodes.push((ActionId(9), GraphNode::SubJob(group)));
    job.nodes.push((ActionId(2), script("after", "sleep 1\n")));
    job.dependencies.push(edge(9, 2, &[]));
    let id = njs.consign(job, user(), 0).unwrap();
    njs.step(0);
    assert_eq!(njs.take_outbox().len(), 1);
    let before = njs.outcome(id).unwrap().clone();
    let appends = mem.append_count();

    // A completion for a node this job never had changes nothing: no
    // outcome slot, no journal record, no dispatch of the successor.
    let stray = OutcomeNode::Job(JobOutcome {
        status: ActionStatus::Successful,
        children: Vec::new(),
    });
    njs.complete_remote_node(id, ActionId(40), stray.clone());
    njs.note_transfer_progress(id, ActionId(40), 10, 20);
    njs.step(SEC);
    assert_eq!(njs.outcome(id).unwrap(), &before);
    assert_eq!(mem.append_count(), appends);
    assert_eq!(njs.incarnation_count(), 0);
    assert!(!njs.is_done(id));
    // So does one for a job that does not exist.
    njs.complete_remote_node(JobId(77), ActionId(9), stray.clone());
    assert_eq!(mem.append_count(), appends);

    // Control: unknown jobs and foreign owners are refused, Resume of a
    // job that is not held reports `false`, Hold/Resume toggle.
    let unknown = njs.control(JobId(77), ControlOp::Hold, DN, SEC);
    assert!(matches!(unknown, Err(NjsError::UnknownJob(JobId(77)))));
    let stranger = njs.control(id, ControlOp::Abort, "CN=mallory", SEC);
    assert!(matches!(stranger, Err(NjsError::NotOwner { .. })));
    assert!(!njs.control(id, ControlOp::Resume, DN, SEC).unwrap());
    assert!(njs.control(id, ControlOp::Hold, DN, SEC).unwrap());

    // The real node completes while the job is held: the successor
    // waits for the Resume, then runs.
    njs.complete_remote_node(id, ActionId(9), stray);
    njs.step(2 * SEC);
    assert_eq!(njs.incarnation_count(), 0);
    assert!(njs.control(id, ControlOp::Resume, DN, 2 * SEC).unwrap());
    run_from(&mut njs, id, 2 * SEC);
    assert_eq!(njs.outcome(id).unwrap().status, ActionStatus::Successful);
    assert_eq!(njs.incarnation_count(), 1);

    // Abort of a finished job and of an unknown one: refused as `false`
    // and as an error respectively, and nothing is journalled.
    let appends = mem.append_count();
    assert!(!njs.control(id, ControlOp::Abort, DN, HOUR).unwrap());
    assert!(njs.control(JobId(77), ControlOp::Abort, DN, HOUR).is_err());
    assert_eq!(mem.append_count(), appends);
}

#[test]
fn abort_reaches_every_kind_of_node_state() {
    let mut njs = fzj();
    let id = njs.consign(diamond([9, 2, 40, 7]), user(), 0).unwrap();
    njs.step(0);
    njs.step(6 * SEC); // `make` done; `use` and `bad` in batch; `never` waiting
    assert!(njs.control(id, ControlOp::Abort, DN, 7 * SEC).unwrap());
    njs.step(7 * SEC);
    let outcome = njs.outcome(id).unwrap();
    assert_eq!(outcome.status, ActionStatus::NotSuccessful);
    let statuses: Vec<(u64, ActionStatus)> = outcome
        .children
        .iter()
        .map(|(id, n)| (id.0, n.status()))
        .collect();
    assert_eq!(
        statuses,
        [
            (9, ActionStatus::Successful),
            (2, ActionStatus::Killed),
            (40, ActionStatus::Killed),
            (7, ActionStatus::Killed)
        ]
    );
    assert!(njs.is_done(id));
}

/// The pass structure as numbers: a later change to how often the loop
/// looks at a job shows up here, not as a golden-file diff.
#[test]
fn job_visits_are_pinned_for_chain3_and_fan16() {
    let mut njs = fzj();
    let id = njs.consign(chain3(), user(), 0).unwrap();
    run(&mut njs, id);
    // 11 → 5: a batch start no longer wakes its job, and a visit wakes
    // it again only for a ready node or to finish.
    assert_eq!(
        (njs.job_visits(), njs.incarnation_count()),
        (5, 3),
        "chain3"
    );

    let mut njs = fzj();
    let id = njs.consign(fan16(), user(), 0).unwrap();
    run(&mut njs, id);
    // 8 → 4: as for chain3.
    assert_eq!(
        (njs.job_visits(), njs.incarnation_count()),
        (4, 17),
        "fan16"
    );
}

/// A node whose last predecessor ends after the visit's dispatch loop
/// has passed it — declared before that predecessor, which finishes the
/// moment it is dispatched — goes out in the next pass of the same step.
#[test]
fn a_node_ready_behind_the_dispatch_loop_goes_out_in_the_same_step() {
    let mut njs = fzj();
    let mut job = new_job("behind");
    job.portfolio.push(PortfolioFile {
        name: "in.dat".into(),
        data: b"input".to_vec().into(),
    });
    let import = GraphNode::Task(AbstractTask {
        name: "stage".into(),
        resources: ResourceRequest::minimal(),
        kind: TaskKind::File(FileKind::Import {
            source: DataLocation::Workstation {
                path: "in.dat".into(),
            },
            uspace_name: "in.dat".into(),
        }),
    });
    job.nodes.push((ActionId(1), script("run", "sleep 5\n")));
    job.nodes.push((ActionId(2), import));
    job.dependencies.push(edge(2, 1, &[]));
    let id = njs.consign(job, user(), 0).unwrap();
    njs.step(0);
    assert_eq!((njs.job_visits(), njs.incarnation_count()), (2, 1));
    run(&mut njs, id);
    assert_eq!(njs.outcome(id).unwrap().status, ActionStatus::Successful);
}

#[test]
fn half_finished_fan16_recovers_to_the_uncrashed_bytes() {
    // The uncrashed run.
    let (mut whole, _) = journalled();
    let id = whole.consign(fan16(), user(), 0).unwrap();
    let ends = run(&mut whole, id);

    // The same job, stopped with the root done and the leaves in batch.
    let (mut first, mem) = journalled();
    assert_eq!(first.consign(fan16(), user(), 0).unwrap(), id);
    first.step(0);
    first.step(SEC);
    assert_eq!(first.incarnation_count(), 17);
    assert!(!first.is_done(id));
    drop(first);

    // A new process over the same journal: the root stays terminal and
    // is not run again, the sixteen leaves are re-dispatched.
    let mut second = fzj();
    second.attach_stores(vec![EventStore::open(Box::new(mem.clone())).unwrap()]);
    let report = second.recover(SEC).unwrap();
    assert_eq!(report.jobs, [id]);
    run_from(&mut second, id, SEC);
    assert_eq!(second.incarnation_count(), 16);
    assert_eq!(second.turnaround(id), whole.turnaround(id));
    assert_eq!(ends, 4 * SEC);
    assert_eq!(
        second.outcome(id).unwrap().to_der(),
        whole.outcome(id).unwrap().to_der()
    );
    let files = |njs: &ShardedNjs| {
        let fs = njs.vsite("T3E").unwrap().vspace.uspace(id).unwrap();
        fs.list("")
            .into_iter()
            .map(|n| (n.to_owned(), fs.read(n, "alice1").unwrap().data.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(files(&second), files(&whole));

    // And once more from the finished journal: everything comes back
    // terminal, nothing is dispatched.
    let mut third = fzj();
    third.attach_stores(vec![EventStore::open(Box::new(mem)).unwrap()]);
    third.recover(HOUR).unwrap();
    assert!(third.is_done(id));
    third.step(HOUR);
    assert_eq!(third.incarnation_count(), 0);
    assert_eq!(
        third.outcome(id).unwrap().to_der(),
        whole.outcome(id).unwrap().to_der()
    );
}
