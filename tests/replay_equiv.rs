//! Replay is the live path: after every tick of a two-site workload, a
//! server recovered from the live one's journal holds the same durable
//! state, line for line ([`ShardedNjs::durable_state`]).
//!
//! HUB has four Vsites, PEER one. The workload covers every
//! record a site journals: a DAG with edge files, a failed node and the
//! successor it kills, a same-Usite child still running beside that
//! failure, an abort with a node in batch and a live child, a same-Usite
//! child on another Vsite importing a workstation file, a peer-forwarded
//! sub-job, a cross-Vsite Import and Export, a same-Usite and a peer
//! Transfer (the peer's receiver is checked chunk by chunk), and a purge.
//! Two narrower tests pin the two divergences this check found.

use unicore::protocol::{Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::*;
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_gateway::{Gateway, MappedUser, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend};

const DN: &str = "C=DE, O=HUB, OU=ZAM, CN=replay";
const HUB_DN: &str = "C=DE, O=HUB, CN=unicore-server";
const PEER_DN: &str = "C=DE, O=PEER, CN=unicore-server";

const HUB_VSITES: [(&str, Architecture); 4] = [
    ("V0", Architecture::CrayT3e),
    ("V1", Architecture::FujitsuVpp700),
    ("V2", Architecture::IbmSp2),
    ("V3", Architecture::NecSx4),
];
const PEER_VSITES: [(&str, Architecture); 1] = [("P0", Architecture::CrayT3e)];

fn attrs() -> UserAttributes {
    UserAttributes::new(DN, "users")
}

fn hub(vsite: &str) -> VsiteAddress {
    VsiteAddress::new("HUB", vsite)
}

fn script(id: u64, name: &str, body: &str) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal().with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: body.into(),
            }),
        }),
    )
}

fn file(id: u64, name: &str, kind: FileKind) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(kind),
        }),
    )
}

fn sub(id: u64, job: AbstractJob) -> (ActionId, GraphNode) {
    (ActionId(id), GraphNode::SubJob(job))
}

fn edge(from: u64, to: u64, files: &[&str]) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: files.iter().map(|f| f.to_string()).collect(),
    }
}

fn workstation_import(id: u64, path: &str) -> (ActionId, GraphNode) {
    file(
        id,
        "fetch",
        FileKind::Import {
            source: DataLocation::Workstation { path: path.into() },
            uspace_name: path.into(),
        },
    )
}

/// `portfolio` on `home` carries the workstation file `input.dat`; its
/// only node is a chain of same-Usite children on `path`, the last of
/// which sleeps, then imports the file from the portfolio they share.
fn portfolio_job(home: VsiteAddress, path: &[VsiteAddress]) -> AbstractJob {
    let (leaf, via) = path.split_last().expect("at least one child");
    let mut child = AbstractJob::new("importer", leaf.clone(), attrs());
    child.nodes.push(script(1, "wait", "sleep 20\n"));
    child.nodes.push(workstation_import(2, "input.dat"));
    child.dependencies.push(edge(1, 2, &[]));
    for vsite in via.iter().rev() {
        let mut outer = AbstractJob::new("via", vsite.clone(), attrs());
        outer.nodes.push(sub(1, child));
        child = outer;
    }
    let mut parent = AbstractJob::new("portfolio", home, attrs());
    parent.portfolio.push(PortfolioFile {
        name: "input.dat".into(),
        data: vec![0x5Au8; 700].into(),
    });
    parent.nodes.push(sub(1, child));
    parent
}

/// A node that fails beside a same-Usite child still running on
/// `child_vsite`.
fn failing_beside_child(home: VsiteAddress, child_vsite: VsiteAddress, secs: u64) -> AbstractJob {
    let mut child = AbstractJob::new("sleeper", child_vsite, attrs());
    child
        .nodes
        .push(script(1, "sleep", &format!("sleep {secs}\n")));
    let mut job = AbstractJob::new("failing", home, attrs());
    job.nodes.push(script(1, "bad", "sleep 2\nexit 2\n"));
    job.nodes.push(sub(2, child));
    job
}

/// The HUB workload, in consign order: `victim` (2) is aborted at 40 s
/// and `purged` (6) is purged once it is done.
fn workload() -> Vec<AbstractJob> {
    // 0: a DAG with files on both edges out of t1 and into t4.
    let mut dag = AbstractJob::new("dag", hub("V0"), attrs());
    dag.nodes
        .push(script(1, "t1", "sleep 10\nproduce a.dat 256\n"));
    dag.nodes
        .push(script(2, "t2", "sleep 5\nproduce b.dat 128\n"));
    dag.nodes.push(script(3, "t3", "sleep 8\n"));
    dag.nodes.push(script(4, "t4", "sleep 3\n"));
    dag.dependencies.push(edge(1, 2, &["a.dat"]));
    dag.dependencies.push(edge(1, 3, &["a.dat"]));
    dag.dependencies.push(edge(2, 4, &["b.dat"]));
    dag.dependencies.push(edge(3, 4, &[]));

    // 1: a failed node, the successor it kills, and a same-Usite child
    //    still running when both are terminal.
    let mut failing = failing_beside_child(hub("V1"), hub("V2"), 60);
    failing.nodes.push(script(3, "after", "sleep 5\n"));
    failing.dependencies.push(edge(1, 3, &[]));

    // 2: aborted at 40 s with its first node in batch and a child alive.
    let mut victim_child = AbstractJob::new("victim-group", hub("V0"), attrs());
    victim_child.nodes.push(script(1, "long", "sleep 600\n"));
    let mut victim = AbstractJob::new("victim", hub("V3"), attrs());
    victim.nodes.push(script(1, "long", "sleep 300\n"));
    victim.nodes.push(sub(2, victim_child));

    // 3: a child on another Vsite imports the parent's workstation file.
    let portfolio = portfolio_job(hub("V0"), &[hub("V1")]);

    // 4: a sub-job forwarded to PEER, files flowing both ways.
    let mut remote = AbstractJob::new("remote-group", VsiteAddress::new("PEER", "P0"), attrs());
    remote
        .nodes
        .push(script(1, "mid", "sleep 15\nproduce b.dat 512\n"));
    let mut forward = AbstractJob::new("forward", hub("V1"), attrs());
    forward
        .nodes
        .push(script(1, "t0", "sleep 4\nproduce a.dat 256\n"));
    forward.nodes.push(sub(2, remote));
    forward.nodes.push(script(3, "t2", "sleep 5\n"));
    forward.dependencies.push(edge(1, 2, &["a.dat"]));
    forward.dependencies.push(edge(2, 3, &["b.dat"]));

    // 5: Import from V3's Xspace, Export to V0's, a Transfer to V3 and a
    //    five-chunk Transfer to PEER.
    let mut files = AbstractJob::new("files", hub("V2"), attrs());
    files.nodes.push(file(
        1,
        "import",
        FileKind::Import {
            source: DataLocation::Xspace {
                vsite: hub("V3"),
                path: "/data/input.dat".into(),
            },
            uspace_name: "in.dat".into(),
        },
    ));
    files
        .nodes
        .push(script(2, "make", "sleep 5\nproduce out.dat 300000\n"));
    files.nodes.push(file(
        3,
        "export",
        FileKind::Export {
            uspace_name: "out.dat".into(),
            destination: DataLocation::Xspace {
                vsite: hub("V0"),
                path: "/archive/out.dat".into(),
            },
        },
    ));
    files.nodes.push(file(
        4,
        "local",
        FileKind::Transfer {
            uspace_name: "out.dat".into(),
            to_vsite: hub("V3"),
            dest_name: "out.dat".into(),
        },
    ));
    files.nodes.push(file(
        5,
        "ship",
        FileKind::Transfer {
            uspace_name: "out.dat".into(),
            to_vsite: VsiteAddress::new("PEER", "P0"),
            dest_name: "out.dat".into(),
        },
    ));
    files.dependencies.push(edge(1, 2, &["in.dat"]));
    for to in 3..=5 {
        files.dependencies.push(edge(2, to, &["out.dat"]));
    }

    // 6: finished early, then purged with its child.
    let mut purged_child = AbstractJob::new("purged-group", hub("V3"), attrs());
    purged_child.nodes.push(script(1, "short", "sleep 2\n"));
    let mut purged = AbstractJob::new("purged", hub("V2"), attrs());
    purged.nodes.push(script(1, "short", "sleep 3\n"));
    purged.nodes.push(sub(2, purged_child));

    vec![dag, failing, victim, portfolio, forward, files, purged]
}

fn uudb() -> Uudb {
    let mut uudb = Uudb::new();
    uudb.add(DN, UserEntry::new("replay", "users"));
    uudb
}

/// A server for `usite` journalling into `mem`.
fn server(
    usite: &str,
    vsites: &[(&str, Architecture)],
    mem: &MemoryBackend,
    peer_dn: &str,
) -> UnicoreServer {
    let mut njs = ShardedNjs::new(usite, 1, 1);
    for (vsite, arch) in vsites {
        njs.add_vsite(
            deployment_page(usite, vsite, *arch),
            TranslationTable::for_architecture(*arch),
        );
    }
    njs.attach_stores(vec![
        EventStore::open(Box::new(mem.clone())).expect("open journal")
    ]);
    let mut server = UnicoreServer::new(Gateway::new(usite, uudb()), njs);
    server.add_peer_server(peer_dn);
    server
}

/// Panics at the first line where `replayed` differs from `live`.
fn assert_same_state(live: &str, replayed: &str, what: &str) {
    let (l, r): (Vec<&str>, Vec<&str>) = (live.lines().collect(), replayed.lines().collect());
    for i in 0..l.len().max(r.len()) {
        let (a, b) = (l.get(i), r.get(i));
        assert!(
            a == b,
            "{what}: durable state differs at line {}\n  live:     {}\n  replayed: {}",
            i + 1,
            a.unwrap_or(&"<none>"),
            b.unwrap_or(&"<none>"),
        );
    }
}

/// Recovers a second server from `live`'s journal at `now` and checks its
/// durable state against the live one's.
fn check_replay(
    live: &UnicoreServer,
    vsites: &[(&str, Architecture)],
    mem: &MemoryBackend,
    peer_dn: &str,
    now: SimTime,
) {
    let mut replayed = server(live.usite(), vsites, mem, peer_dn);
    replayed.recover(now).expect("recovery");
    let what = format!("{} at t={now}", live.usite());
    assert_same_state(
        &live.njs().durable_state(),
        &replayed.njs().durable_state(),
        &what,
    );
}

/// Steps both servers at `now` and carries every outbound request to
/// its peer synchronously.
fn tick(hub: &mut UnicoreServer, peer: &mut UnicoreServer, now: SimTime) {
    for req in hub.step(now) {
        let resp = peer.handle_request(HUB_DN, req.request, now);
        hub.handle_response(req.corr, resp);
    }
    for req in peer.step(now) {
        let resp = hub.handle_request(PEER_DN, req.request, now);
        peer.handle_response(req.corr, resp);
    }
}

fn request(server: &mut UnicoreServer, request: Request, now: SimTime) -> Response {
    server.handle_request(DN, request, now)
}

/// Runs the workload, checking both sites' replay after every tick.
/// Returns HUB's root outcomes.
fn run() -> Vec<Vec<u8>> {
    let (hub_mem, peer_mem) = (MemoryBackend::new(), MemoryBackend::new());
    let mut hub = server("HUB", &HUB_VSITES, &hub_mem, PEER_DN);
    let mut peer = server("PEER", &PEER_VSITES, &peer_mem, HUB_DN);
    hub.njs_mut()
        .vsite_mut("V3")
        .unwrap()
        .vspace
        .xspace()
        .write("/data/input.dat", vec![7u8; 1536], "replay")
        .unwrap();
    let ids: Vec<JobId> = workload()
        .into_iter()
        .map(|ajo| match request(&mut hub, Request::Consign { ajo }, 0) {
            Response::Consigned { job } => job,
            other => panic!("consign: {other:?}"),
        })
        .collect();
    let (victim, purged) = (ids[2], ids[6]);
    check_replay(&hub, &HUB_VSITES, &hub_mem, PEER_DN, 0);

    let mut now: SimTime = 0;
    let (mut aborted, mut purge_done) = (false, false);
    loop {
        if !aborted && now >= 40 * SEC {
            let resp = request(
                &mut hub,
                Request::Control {
                    job: victim,
                    op: ControlOp::Abort,
                },
                now,
            );
            assert!(
                matches!(
                    resp,
                    Response::Service(ServiceOutcome::Control { applied: true, .. })
                ),
                "abort: {resp:?}"
            );
            aborted = true;
            check_replay(&hub, &HUB_VSITES, &hub_mem, PEER_DN, now);
        }
        if !purge_done && hub.is_done(purged) {
            let resp = request(&mut hub, Request::Purge { job: purged }, now);
            assert!(matches!(resp, Response::Purged { .. }), "purge: {resp:?}");
            purge_done = true;
            check_replay(&hub, &HUB_VSITES, &hub_mem, PEER_DN, now);
        }
        tick(&mut hub, &mut peer, now);
        check_replay(&hub, &HUB_VSITES, &hub_mem, PEER_DN, now);
        check_replay(&peer, &PEER_VSITES, &peer_mem, HUB_DN, now);
        if aborted && purge_done && ids.iter().all(|&j| j == purged || hub.is_done(j)) {
            break;
        }
        assert!(now < 2 * HOUR, "workload stalled at t={now}");
        let next = [hub.next_event_time(), peer.next_event_time()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(now + SEC);
        now = next.clamp(now + SEC, now + 5 * SEC);
    }
    let outcomes: Vec<&JobOutcome> = ids
        .iter()
        .filter(|&&j| j != purged)
        .map(|&j| hub.njs().outcome(j).expect("terminal"))
        .collect();
    // The workload still reaches what it was built to reach.
    use ActionStatus::{Killed, NotSuccessful, Successful};
    let statuses: Vec<ActionStatus> = outcomes.iter().map(|o| o.status).collect();
    assert_eq!(
        statuses,
        [
            Successful,    // dag
            NotSuccessful, // failing
            NotSuccessful, // victim
            Successful,    // portfolio
            Successful,    // forward
            Successful,    // files
        ]
    );
    let killed = outcomes[1].child(ActionId(3)).map(|n| n.status());
    assert_eq!(killed, Some(Killed), "the failure must kill its successor");
    let caught = outcomes[2].child(ActionId(1)).map(|n| n.status());
    assert_eq!(caught, Some(Killed), "the abort must catch a batch node");
    outcomes.iter().map(|o| o.to_der()).collect()
}

/// SHA-256 of HUB's sorted root outcomes' DER, as lower-case hex.
const HUB_OUTCOMES: &str = "38306d48445a48e487cc30146a24899e3a60ebf14a9d63d1a54408bcaed20d21";

#[test]
fn replay_matches_live_after_every_tick() {
    let mut sorted = run();
    sorted.sort();
    let digest: String = sha256(&sorted.concat())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(digest, HUB_OUTCOMES, "HUB's outcomes moved");
}

const FZJ_DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

fn alice() -> MappedUser {
    MappedUser {
        dn: FZJ_DN.into(),
        login: "alice1".into(),
        account_group: "zam".into(),
    }
}

fn fzj_addr(vsite: &str) -> VsiteAddress {
    VsiteAddress::new("FZJ", vsite)
}

/// FZJ's T3E and SP2, journalling into `mem`.
fn fzj(mem: &MemoryBackend) -> ShardedNjs {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    for (vsite, arch) in [
        ("T3E", Architecture::CrayT3e),
        ("SP2", Architecture::IbmSp2),
    ] {
        njs.add_vsite(
            deployment_page("FZJ", vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs.attach_stores(vec![
        EventStore::open(Box::new(mem.clone())).expect("open journal")
    ]);
    njs
}

/// Steps `njs` at every event time up to `until`, and at `until`.
fn run_to(njs: &mut ShardedNjs, until: SimTime) -> SimTime {
    let mut now = 0;
    while now < until {
        njs.step(now);
        now = njs.next_event_time().unwrap_or(until).clamp(now + 1, until);
    }
    njs.step(now);
    now
}

/// Consigns `ajos`, steps to `crash_at`, and restarts from the journal
/// (with `crash_at` past the end, the journal is replayed after a run
/// that never crashed). Returns the restarted NJS, the jobs and the time.
fn crash_and_recover(
    ajos: Vec<AbstractJob>,
    crash_at: SimTime,
) -> (ShardedNjs, Vec<JobId>, SimTime) {
    let mem = MemoryBackend::new();
    let mut njs = fzj(&mem);
    let jobs = ajos
        .into_iter()
        .map(|ajo| njs.consign(ajo, alice(), 0).expect("consign"))
        .collect();
    let now = run_to(&mut njs, crash_at);
    drop(njs);
    let mut njs = fzj(&mem);
    njs.recover(now).expect("recovery");
    (njs, jobs, now)
}

/// A same-Usite child on another Vsite than its parent imports a
/// workstation file from the portfolio it shares with the parent. Replay
/// used to look the parent up where the child lived, so a restarted
/// child lost the portfolio and failed with "portfolio file 'input.dat'
/// missing". A grandchild shares its root's portfolio too.
#[test]
fn a_child_on_another_vsite_keeps_its_workstation_portfolio_across_a_restart() {
    let outcome = |path: &[VsiteAddress], crash_at| {
        let ajos = vec![portfolio_job(fzj_addr("T3E"), path)];
        let (mut njs, jobs, mut now) = crash_and_recover(ajos, crash_at);
        let job = jobs[0];
        while !njs.is_done(job) {
            assert!(now < HOUR, "stalled");
            njs.step(now);
            now = njs.next_event_time().unwrap_or(now + SEC).max(now + SEC);
        }
        njs.outcome(job).expect("done").clone()
    };
    for path in [
        vec![fzj_addr("SP2")],
        vec![fzj_addr("SP2"), fzj_addr("T3E")],
    ] {
        let uncrashed = outcome(&path, HOUR);
        assert_eq!(uncrashed.status, ActionStatus::Successful, "{path:?}");
        assert_eq!(
            outcome(&path, 10 * SEC),
            uncrashed,
            "{path:?} after a restart"
        );
    }
}

/// A failed node beside a still-running same-Usite child: the job reads
/// `NotSuccessful` live. Replay used to leave the primed `Consigned` in
/// place until some later step made progress.
#[test]
fn a_recovered_job_reports_the_status_the_live_one_did() {
    let ajo = failing_beside_child(fzj_addr("T3E"), fzj_addr("SP2"), 500);
    let mem = MemoryBackend::new();
    let mut live = fzj(&mem);
    let job = live.consign(ajo, alice(), 0).expect("consign");
    let now = run_to(&mut live, 100 * SEC);
    let seen = live.query(job, FZJ_DN, DetailLevel::Tasks).expect("query");
    assert_eq!(seen.status, ActionStatus::NotSuccessful);

    let mut replayed = fzj(&mem);
    replayed.recover(now).expect("recovery");
    replayed.step(now);
    let after = replayed
        .query(job, FZJ_DN, DetailLevel::Tasks)
        .expect("query");
    assert_eq!(after, seen, "recovered status");
}
