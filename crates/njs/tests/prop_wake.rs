//! The event-driven step loop never loses a wake-up.
//!
//! `Njs::step` visits only woken jobs; in debug builds it ends by
//! asserting that a scan of *every* job finds nothing left to do. These
//! tests throw arbitrary interleavings of everything that can change a
//! job between steps at a plain [`Njs`] and at a 4-shard [`ShardedNjs`],
//! so a wake source that was forgotten panics inside `step`, and one
//! that was forgotten *and* masked shows up as a job that never ends.

use proptest::prelude::*;
use std::collections::VecDeque;
use unicore_ajo::*;
use unicore_gateway::MappedUser;
use unicore_njs::{Njs, OutgoingItem, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, SEC};

const USITE: &str = "HUB";
const DN: &str = "C=DE, O=HUB, OU=ZAM, CN=wake";
const VSITES: [(&str, Architecture); 4] = [
    ("V0", Architecture::CrayT3e),
    ("V1", Architecture::FujitsuVpp700),
    ("V2", Architecture::IbmSp2),
    ("V3", Architecture::NecSx4),
];

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "alice".into(),
        account_group: "users".into(),
    }
}

fn attrs() -> UserAttributes {
    UserAttributes::new(DN, "users")
}

fn script(id: u64, body: &str) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: format!("t{id}"),
            resources: ResourceRequest::minimal().with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: body.into(),
            }),
        }),
    )
}

fn edge(from: u64, to: u64) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: vec![],
    }
}

/// One of five job shapes at Vsite `v`, task lengths from `secs`.
fn job(shape: u8, v: usize, secs: u64) -> AbstractJob {
    let home = VsiteAddress::new(USITE, VSITES[v].0);
    let mut job = AbstractJob::new(format!("s{shape}-v{v}-{secs}"), home, attrs());
    let sleep = format!("sleep {secs}\n");
    match shape {
        // A two-task chain.
        0 => {
            job.nodes.push(script(1, &sleep));
            job.nodes.push(script(2, "sleep 3\n"));
            job.dependencies.push(edge(1, 2));
        }
        // A root fanning out to four leaves.
        1 => {
            job.nodes.push(script(1, "sleep 1\n"));
            for leaf in 2..6 {
                job.nodes.push(script(leaf, &sleep));
                job.dependencies.push(edge(1, leaf));
            }
        }
        // task → sub-job at the next Vsite (a local child on a plain NJS,
        // a cross-shard child on the sharded one) → task.
        2 | 3 => {
            let target = if shape == 2 {
                VsiteAddress::new(USITE, VSITES[(v + 1) % 4].0)
            } else {
                // Another Usite: the group leaves through the outbox and
                // comes back through `complete_remote_node`.
                VsiteAddress::new("FAR", "X")
            };
            let mut sub = AbstractJob::new("group", target, attrs());
            sub.nodes.push(script(1, &sleep));
            job.nodes.push(script(1, "sleep 2\n"));
            job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));
            job.nodes.push(script(3, "sleep 2\n"));
            job.dependencies.push(edge(1, 2));
            job.dependencies.push(edge(2, 3));
        }
        // A failing task whose successor must be killed.
        _ => {
            job.nodes.push(script(1, "sleep 1\nexit 2\n"));
            job.nodes.push(script(2, &sleep));
            job.dependencies.push(edge(1, 2));
        }
    }
    job
}

#[derive(Debug, Clone)]
enum Op {
    Consign {
        shape: u8,
        vsite: usize,
        secs: u64,
    },
    Hold(usize),
    Resume(usize),
    Abort(usize),
    /// Answer the oldest outstanding remote sub-job.
    CompleteRemote {
        ok: bool,
    },
    Crash {
        vsite: usize,
        downtime: u64,
    },
    Step {
        delta: u64,
    },
}

/// Ops weighted towards consigns and steps, so most sequences have work
/// in flight when a hold, abort, crash or remote answer lands.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..13, 0u8..5, 0usize..64, 1u64..120, any::<bool>()).prop_map(
        |(kind, shape, k, secs, ok)| match kind {
            0..=2 => Op::Consign {
                shape,
                vsite: k % 4,
                secs: secs.min(59),
            },
            3 => Op::Hold(k),
            4 => Op::Resume(k),
            5 => Op::Abort(k),
            6 | 7 => Op::CompleteRemote { ok },
            8 => Op::Crash {
                vsite: k % 4,
                downtime: secs,
            },
            _ => Op::Step { delta: secs % 40 },
        },
    )
}

/// What the interleaving needs from an engine; `Njs` and `ShardedNjs`
/// spell every one of these the same way.
trait Engine {
    fn consign(&mut self, job: AbstractJob, now: SimTime) -> JobId;
    fn control(&mut self, job: JobId, op: ControlOp, now: SimTime);
    fn step(&mut self, now: SimTime);
    fn take_outbox(&mut self) -> Vec<OutgoingItem>;
    fn complete_remote_node(&mut self, job: JobId, node: ActionId, outcome: OutcomeNode);
    fn crash(&mut self, vsite: &str, now: SimTime, downtime: SimTime);
    fn status(&self, job: JobId) -> ActionStatus;
    fn is_done(&self, job: JobId) -> bool;
    fn next_event_time(&self) -> Option<SimTime>;
}

macro_rules! impl_engine {
    ($ty:ty) => {
        impl Engine for $ty {
            fn consign(&mut self, job: AbstractJob, now: SimTime) -> JobId {
                <$ty>::consign(self, job, user(), now).expect("consign")
            }
            fn control(&mut self, job: JobId, op: ControlOp, now: SimTime) {
                <$ty>::control(self, job, op, DN, now).expect("owner controls own job");
            }
            fn step(&mut self, now: SimTime) {
                <$ty>::step(self, now)
            }
            fn take_outbox(&mut self) -> Vec<OutgoingItem> {
                <$ty>::take_outbox(self)
            }
            fn complete_remote_node(&mut self, job: JobId, node: ActionId, outcome: OutcomeNode) {
                <$ty>::complete_remote_node(self, job, node, outcome)
            }
            fn crash(&mut self, vsite: &str, now: SimTime, downtime: SimTime) {
                let v = <$ty>::vsite_mut(self, vsite).expect("known vsite");
                v.batch.crash(now, downtime);
            }
            fn status(&self, job: JobId) -> ActionStatus {
                <$ty>::outcome(self, job).expect("job exists").status
            }
            fn is_done(&self, job: JobId) -> bool {
                <$ty>::is_done(self, job)
            }
            fn next_event_time(&self) -> Option<SimTime> {
                <$ty>::next_event_time(self)
            }
        }
    };
}
impl_engine!(Njs);
impl_engine!(ShardedNjs);

fn plain() -> Njs {
    let mut njs = Njs::new(USITE);
    for (vsite, arch) in VSITES {
        njs.add_vsite(
            deployment_page(USITE, vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs
}

fn sharded() -> ShardedNjs {
    let mut njs = ShardedNjs::new(USITE, 4, 2);
    for (vsite, arch) in VSITES {
        njs.add_vsite(
            deployment_page(USITE, vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs
}

fn remote_outcome(ok: bool) -> OutcomeNode {
    OutcomeNode::Job(JobOutcome {
        status: if ok {
            ActionStatus::Successful
        } else {
            ActionStatus::NotSuccessful
        },
        children: Vec::new(),
    })
}

/// Applies `ops`, then lets everything finish. Panics inside `step` on a
/// lost wake-up, and here if a job does not end.
fn interleave(engine: &mut impl Engine, ops: &[Op]) {
    let mut now: SimTime = 0;
    let mut ids: Vec<JobId> = Vec::new();
    let mut remote: VecDeque<(JobId, ActionId)> = VecDeque::new();
    let collect = |engine: &mut dyn Engine, remote: &mut VecDeque<(JobId, ActionId)>| {
        for item in engine.take_outbox() {
            if let OutgoingItem::SubJob { parent, node, .. } = item {
                remote.push_back((parent, node));
            }
        }
    };
    for op in ops {
        match *op {
            Op::Consign { shape, vsite, secs } => {
                ids.push(engine.consign(job(shape, vsite, secs), now));
            }
            Op::Hold(k) | Op::Resume(k) | Op::Abort(k) if ids.is_empty() => {
                let _ = k;
            }
            Op::Hold(k) => engine.control(ids[k % ids.len()], ControlOp::Hold, now),
            Op::Resume(k) => engine.control(ids[k % ids.len()], ControlOp::Resume, now),
            Op::Abort(k) => engine.control(ids[k % ids.len()], ControlOp::Abort, now),
            Op::CompleteRemote { ok } => {
                if let Some((job, node)) = remote.pop_front() {
                    engine.complete_remote_node(job, node, remote_outcome(ok));
                }
            }
            Op::Crash { vsite, downtime } => engine.crash(VSITES[vsite].0, now, downtime * SEC),
            Op::Step { delta } => {
                now += delta * SEC;
                engine.step(now);
                collect(engine, &mut remote);
            }
        }
    }
    // Wind down: release every hold, answer every remote group, and run
    // the clock until nothing is left.
    for &id in &ids {
        engine.control(id, ControlOp::Resume, now);
    }
    for _ in 0..10_000 {
        engine.step(now);
        collect(engine, &mut remote);
        while let Some((job, node)) = remote.pop_front() {
            engine.complete_remote_node(job, node, remote_outcome(true));
        }
        if ids.iter().all(|&id| engine.is_done(id)) {
            break;
        }
        now = engine.next_event_time().unwrap_or(now + SEC).max(now + SEC);
    }
    for &id in &ids {
        assert!(engine.is_done(id), "job {id} never finished");
        assert!(engine.status(id).is_terminal(), "job {id} not terminal");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_interleaving_loses_a_wake_up(ops in proptest::collection::vec(arb_op(), 1..60)) {
        interleave(&mut plain(), &ops);
        interleave(&mut sharded(), &ops);
    }
}

/// `njs.idle_step_ratio`'s definition, as a count: a step with nothing
/// woken and no batch event due visits no job at all, however many jobs
/// the NJS holds; a step with one batch event due visits that job only.
#[test]
fn idle_step_visits_no_job() {
    let mut njs = plain();
    let mut ids = Vec::new();
    for i in 0..48u64 {
        let mut ajo = AbstractJob::new(
            format!("long{i}"),
            VsiteAddress::new(USITE, VSITES[(i % 4) as usize].0),
            attrs(),
        );
        ajo.nodes.push(script(1, &format!("sleep {}\n", 600 + i)));
        ids.push(njs.consign(ajo, user(), 0).unwrap());
    }
    njs.step(0);
    let busy = njs.job_visits();
    assert!(busy >= 48, "the first step dispatches every job");

    // Nothing is due before t=600 s: ten steps, zero visits.
    for t in 1..=10 {
        njs.step(t * SEC);
    }
    assert_eq!(njs.job_visits(), busy, "idle steps must touch no job");

    // The first completion wakes its own job and nothing else: one visit
    // to take the result, one more to find the job has gone quiet.
    njs.step(600 * SEC);
    assert!(njs.is_done(ids[0]));
    assert_eq!(njs.job_visits(), busy + 2);
}
