//! E18 — sharded NJS determinism suite.
//!
//! The contract under test: splitting one Usite's NJS into N shards
//! changes *nothing observable*. For every shard count — and across
//! crash-restart with per-shard WAL segments, and under federated chaos
//! — the terminal job outcomes must be DER-byte-identical to the plain
//! [`Njs`] run.

use proptest::prelude::*;
use unicore::protocol::{outcome_of, Response};
use unicore::{Federation, FederationConfig};
use unicore_ajo::*;
use unicore_codec::DerCodec;
use unicore_gateway::MappedUser;
use unicore_njs::{Njs, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, MINUTE, SEC};
use unicore_simnet::FaultPlan;
use unicore_store::{EventStore, MemoryBackend};

const USITE: &str = "HUB";
const DN: &str = "C=DE, O=HUB, OU=ZAM, CN=shard";

/// Four Vsites on one Usite; with 2 shards they split 2+2, with 4 every
/// Vsite gets its own shard, with 8 four shards own no Vsite.
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

fn addr(vsite: &str) -> VsiteAddress {
    VsiteAddress::new(USITE, vsite)
}

fn script_node(id: u64, name: &str, script: &str) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal().with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: script.into(),
            }),
        }),
    )
}

fn file_node(id: u64, name: &str, kind: FileKind) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(kind),
        }),
    )
}

/// The workload: every cross-shard code path plus plain local work.
///
/// 1. A two-task pipeline on V0 (purely in-shard).
/// 2. A fan-out job on V0 with sub-jobs at V1 and V3 and files flowing
///    across both edges (cross-shard consign + return files).
/// 3. An Xspace import on V1 reading V2's Xspace (cross-shard read).
/// 4. An export on V2 writing V3's Xspace (cross-shard write).
/// 5. A same-Usite transfer V3 → V1 (cross-shard incoming delivery).
/// 6. A job whose sub-job names an unknown Vsite (deterministic failure).
fn workload() -> Vec<AbstractJob> {
    let mut pipeline = AbstractJob::new("pipeline", addr("V0"), attrs());
    pipeline
        .nodes
        .push(script_node(1, "make", "sleep 90\nproduce out.bin 4096\n"));
    pipeline.nodes.push(script_node(2, "check", "sleep 10\n"));
    pipeline.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["out.bin".into()],
    });

    let mut prep = AbstractJob::new("prep@V1", addr("V1"), attrs());
    prep.nodes
        .push(script_node(1, "pre", "sleep 10\nproduce grid.dat 2048\n"));
    let mut post = AbstractJob::new("post@V3", addr("V3"), attrs());
    post.nodes.push(script_node(1, "vis", "sleep 5\n"));
    let mut fan = AbstractJob::new("fanout", addr("V0"), attrs());
    fan.nodes.push((ActionId(1), GraphNode::SubJob(prep)));
    fan.nodes.push(script_node(
        2,
        "main",
        "sleep 60\nproduce fields.dat 4096\n",
    ));
    fan.nodes.push((ActionId(3), GraphNode::SubJob(post)));
    fan.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["grid.dat".into()],
    });
    fan.dependencies.push(Dependency {
        from: ActionId(2),
        to: ActionId(3),
        files: vec!["fields.dat".into()],
    });

    let mut import = AbstractJob::new("import", addr("V1"), attrs());
    import.nodes.push(file_node(
        1,
        "fetch",
        FileKind::Import {
            source: DataLocation::Xspace {
                vsite: addr("V2"),
                path: "/data/input.dat".into(),
            },
            uspace_name: "input.dat".into(),
        },
    ));
    import.nodes.push(script_node(2, "use", "sleep 15\n"));
    import.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });

    let mut export = AbstractJob::new("export", addr("V2"), attrs());
    export
        .nodes
        .push(script_node(1, "calc", "sleep 25\nproduce res.dat 1024\n"));
    export.nodes.push(file_node(
        2,
        "archive",
        FileKind::Export {
            uspace_name: "res.dat".into(),
            destination: DataLocation::Xspace {
                vsite: addr("V3"),
                path: "/archive/res.dat".into(),
            },
        },
    ));
    export.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["res.dat".into()],
    });

    let mut ship = AbstractJob::new("ship", addr("V3"), attrs());
    ship.nodes
        .push(script_node(1, "make", "sleep 20\nproduce pack.bin 2048\n"));
    ship.nodes.push(file_node(
        2,
        "send",
        FileKind::Transfer {
            uspace_name: "pack.bin".into(),
            to_vsite: addr("V1"),
            dest_name: "pack.bin".into(),
        },
    ));
    ship.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["pack.bin".into()],
    });

    let mut nowhere = AbstractJob::new("lost@NOPE", addr("NOPE"), attrs());
    nowhere.nodes.push(script_node(1, "x", "sleep 5\n"));
    let mut doomed = AbstractJob::new("doomed", addr("V0"), attrs());
    doomed.nodes.push((ActionId(1), GraphNode::SubJob(nowhere)));
    doomed.nodes.push(script_node(2, "ok", "sleep 5\n"));

    vec![pipeline, fan, import, export, ship, doomed]
}

/// Builds a sharded NJS with the four Vsites and V2's Xspace seeded.
fn build(shards: usize) -> ShardedNjs {
    let mut njs = ShardedNjs::new(USITE, shards, 1);
    for (vsite, arch) in VSITES {
        njs.add_vsite(
            deployment_page(USITE, vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs.vsite_mut("V2")
        .unwrap()
        .vspace
        .xspace()
        .write("/data/input.dat", vec![7u8; 1536], "alice")
        .unwrap();
    njs
}

/// Steps until every job is done; panics on a stall.
fn drive(njs: &mut ShardedNjs, jobs: &[JobId], mut now: SimTime) -> SimTime {
    let deadline = now + 10 * HOUR;
    loop {
        njs.step(now);
        if jobs.iter().all(|&j| njs.is_done(j)) {
            return now;
        }
        assert!(now < deadline, "jobs stalled at t={now}");
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + SEC);
    }
}

/// Consigns the workload and runs it to completion; returns every job's
/// terminal outcome DER, in submission order.
fn run(njs: &mut ShardedNjs) -> Vec<Vec<u8>> {
    let ids: Vec<JobId> = workload()
        .into_iter()
        .map(|ajo| njs.consign(ajo, user(), 0).expect("consign"))
        .collect();
    drive(njs, &ids, 0);
    ids.iter()
        .map(|&id| njs.outcome(id).expect("terminal").to_der())
        .collect()
}

/// The reference run on a plain [`Njs`].
fn baseline() -> Vec<Vec<u8>> {
    let mut njs = Njs::new(USITE);
    for (vsite, arch) in VSITES {
        njs.add_vsite(
            deployment_page(USITE, vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs.vsite_mut("V2")
        .unwrap()
        .vspace
        .xspace()
        .write("/data/input.dat", vec![7u8; 1536], "alice")
        .unwrap();
    let mut facade = ShardedNjs::from(njs);
    run(&mut facade)
}

#[test]
fn outcomes_byte_identical_across_shard_counts() {
    let reference = baseline();
    // The doomed job must fail, the rest succeed — in every variant.
    let statuses: Vec<bool> = reference
        .iter()
        .map(|der| JobOutcome::from_der(der).unwrap().status.is_success())
        .collect();
    assert_eq!(statuses, [true, true, true, true, true, false]);
    // 8 is the shape gridbench's `core_step` runs.
    for shards in [1, 2, 3, 4, 8] {
        let mut njs = build(shards);
        let outcomes = run(&mut njs);
        assert_eq!(
            reference, outcomes,
            "outcomes diverged with {shards} shards"
        );
    }
}

#[test]
fn cross_shard_files_really_land() {
    let mut njs = build(4);
    let ids: Vec<JobId> = workload()
        .into_iter()
        .map(|ajo| njs.consign(ajo, user(), 0).expect("consign"))
        .collect();
    drive(&mut njs, &ids, 0);
    // Export wrote into V3's Xspace across the shard boundary.
    let archived = njs
        .vsite("V3")
        .unwrap()
        .vspace
        .xspace_ref()
        .read_raw("/archive/res.dat")
        .expect("export landed");
    assert_eq!(archived.data.len(), 1024);
    // Transfer landed in V1's incoming area across the shard boundary.
    let incoming = njs
        .vsite("V1")
        .unwrap()
        .vspace
        .xspace_ref()
        .read_raw(&format!("{}pack.bin", unicore_njs::INCOMING_PREFIX))
        .expect("transfer landed");
    assert_eq!(incoming.data.len(), 2048);
    // The fan-out's return file flowed back from V1's child into the
    // parent's Uspace on V0 (visible via the parent's file list).
    let files = njs.list_uspace_files(ids[1], DN).expect("parent uspace");
    assert!(
        files.iter().any(|f| f == "grid.dat"),
        "cross-shard return file missing: {files:?}"
    );
}

#[test]
fn wal_replay_is_byte_identical_per_segment() {
    let reference = baseline();
    let shards = 2;
    let mems: Vec<MemoryBackend> = (0..shards).map(|_| MemoryBackend::new()).collect();
    let mut njs = build(shards);
    njs.attach_stores(
        mems.iter()
            .map(|m| EventStore::open(Box::new(m.clone())).expect("open"))
            .collect(),
    );
    let ids: Vec<JobId> = workload()
        .into_iter()
        .map(|ajo| njs.consign(ajo, user(), 0).expect("consign"))
        .collect();
    drive(&mut njs, &ids, 0);
    let outcomes: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| njs.outcome(id).expect("terminal").to_der())
        .collect();
    assert_eq!(reference, outcomes, "sharded run with WAL diverged");
    drop(njs);

    // Reboot on the same two segments: every job must come back
    // terminal with the exact same outcome bytes.
    for mem in &mems {
        mem.reboot();
    }
    let mut njs = build(shards);
    njs.attach_stores(
        mems.iter()
            .map(|m| EventStore::open(Box::new(m.clone())).expect("reopen"))
            .collect(),
    );
    let report = njs.recover(2 * HOUR).expect("recovery");
    assert_eq!(report.jobs.len(), ids.len() + 2, "roots + 2 live children");
    let replayed: Vec<Vec<u8>> = ids
        .iter()
        .map(|&id| {
            assert!(njs.is_done(id), "job {id} not terminal after replay");
            njs.outcome(id).unwrap().to_der()
        })
        .collect();
    assert_eq!(reference, replayed, "replayed outcomes diverged");
}

#[test]
fn crash_restart_mid_step_converges_to_identical_outcomes() {
    let reference = baseline();
    // Crash at several points inside the run — including mid-pipeline,
    // with cross-shard children alive — and finish after reboot.
    for crash_at in [10 * SEC, 40 * SEC, 90 * SEC, 3 * MINUTE] {
        let shards = 4;
        let mems: Vec<MemoryBackend> = (0..shards).map(|_| MemoryBackend::new()).collect();
        let mut njs = build(shards);
        njs.attach_stores(
            mems.iter()
                .map(|m| EventStore::open(Box::new(m.clone())).expect("open"))
                .collect(),
        );
        let ids: Vec<JobId> = workload()
            .into_iter()
            .map(|ajo| njs.consign(ajo, user(), 0).expect("consign"))
            .collect();
        let mut now = 0;
        while now < crash_at && !ids.iter().all(|&j| njs.is_done(j)) {
            njs.step(now);
            now = njs.next_event_time().unwrap_or(now + SEC).max(now + SEC);
        }
        drop(njs); // the crash: all RAM state gone, only the WAL survives

        for mem in &mems {
            mem.reboot();
        }
        let mut njs = build(shards);
        njs.attach_stores(
            mems.iter()
                .map(|m| EventStore::open(Box::new(m.clone())).expect("reopen"))
                .collect(),
        );
        njs.recover(now).expect("recovery");
        drive(&mut njs, &ids, now);
        let outcomes: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| njs.outcome(id).expect("terminal").to_der())
            .collect();
        assert_eq!(
            reference, outcomes,
            "crash at t={crash_at}: outcomes diverged after restart"
        );
    }
}

// --------------------------------------------------------------------
// Property: arbitrary small workloads behave identically sharded.

/// One randomly-shaped job: a Vsite, a couple of tasks, optionally a
/// sub-job on another Vsite with a file edge.
fn arb_job() -> impl Strategy<Value = AbstractJob> {
    (0usize..4, 1u64..60, 0usize..5, any::<bool>()).prop_map(|(v, sleep, sub_v, with_sub)| {
        let mut job = AbstractJob::new(format!("p{v}-{sleep}"), addr(VSITES[v].0), attrs());
        job.nodes.push(script_node(
            1,
            "work",
            &format!("sleep {sleep}\nproduce a.dat 256\n"),
        ));
        if with_sub {
            // sub_v == 4 targets an unknown Vsite (the failure path).
            let target = if sub_v < 4 { VSITES[sub_v].0 } else { "NOPE" };
            let mut sub = AbstractJob::new(format!("s{sub_v}"), addr(target), attrs());
            sub.nodes.push(script_node(1, "sub", "sleep 7\n"));
            job.nodes.push((ActionId(2), GraphNode::SubJob(sub)));
            job.dependencies.push(Dependency {
                from: ActionId(1),
                to: ActionId(2),
                files: vec!["a.dat".into()],
            });
        }
        job
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_sharded_outcomes_match_single_threaded(
        jobs in proptest::collection::vec(arb_job(), 1..6),
        shards in 1usize..5,
    ) {
        let run_with = |njs: &mut ShardedNjs| -> Vec<Vec<u8>> {
            let ids: Vec<JobId> = jobs
                .iter()
                .map(|ajo| njs.consign(ajo.clone(), user(), 0).expect("consign"))
                .collect();
            drive(njs, &ids, 0);
            ids.iter().map(|&id| njs.outcome(id).unwrap().to_der()).collect()
        };
        let mut single = build(1);
        let reference = run_with(&mut single);
        let mut sharded = build(shards);
        let outcomes = run_with(&mut sharded);
        prop_assert_eq!(reference, outcomes);
    }
}

// --------------------------------------------------------------------
// Federated chaos soak: every site's NJS runs 2 shards, the
// fault plan kills and reboots a site mid-workload, and the terminal
// outcomes must still match the single-shard fault-free run bytes.

const SEEDS: [u64; 3] = [1, 7, 23];
const FED_DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=shard-chaos";

fn fed_workload() -> Vec<(&'static str, AbstractJob)> {
    let a = UserAttributes::new(FED_DN, "users");
    let mut pipeline = AbstractJob::new("pipeline", VsiteAddress::new("FZJ", "T3E"), a.clone());
    pipeline
        .nodes
        .push(script_node(1, "make", "sleep 90\nproduce out.bin 4096\n"));
    pipeline.nodes.push(script_node(2, "check", "sleep 10\n"));
    pipeline.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["out.bin".into()],
    });
    let mut sub = AbstractJob::new("prep@RUS", VsiteAddress::new("RUS", "VPP"), a.clone());
    sub.nodes
        .push(script_node(1, "pre", "sleep 10\nproduce grid.dat 2048\n"));
    let mut multi = AbstractJob::new("2site", VsiteAddress::new("FZJ", "T3E"), a.clone());
    multi.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    multi.nodes.push(script_node(2, "main", "sleep 60\n"));
    multi.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["grid.dat".into()],
    });
    let mut solo = AbstractJob::new("solo", VsiteAddress::new("ZIB", "T3E"), a);
    solo.nodes
        .push(script_node(1, "t", "sleep 20\nproduce r.nc 512\n"));
    vec![("FZJ", pipeline), ("FZJ", multi), ("ZIB", solo)]
}

fn run_fed(seed: u64, shards: usize, plan: Option<&FaultPlan>) -> Vec<Vec<u8>> {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        njs_shards: shards,
        ..FederationConfig::default()
    });
    fed.register_user(FED_DN, "alice");
    fed.attach_stores();
    if let Some(plan) = plan {
        fed.apply_fault_plan(plan);
    }
    let corrs: Vec<(String, u64)> = fed_workload()
        .into_iter()
        .map(|(via, job)| (via.to_string(), fed.client_submit(via, job, FED_DN)))
        .collect();
    let deadline = 4 * HOUR;
    let mut ids: Vec<Option<JobId>> = vec![None; corrs.len()];
    while ids.iter().any(Option::is_none) {
        fed.run_until(fed.now() + 5 * SEC);
        for (i, (_, corr)) in corrs.iter().enumerate() {
            if ids[i].is_none() {
                match fed.take_client_response(*corr) {
                    Some(Response::Consigned { job }) => ids[i] = Some(job),
                    Some(other) => panic!("consign {i} failed: {other:?}"),
                    None => {}
                }
            }
        }
        assert!(fed.now() < deadline, "consign acks never arrived");
    }
    let mut outcomes = Vec::new();
    for (i, (via, _)) in corrs.iter().enumerate() {
        let id = ids[i].expect("consigned");
        let outcome = loop {
            let poll = fed.client_poll(via, FED_DN, id, DetailLevel::Tasks);
            fed.run_until(fed.now() + 10 * SEC);
            if let Some(resp) = fed.take_client_response(poll) {
                if let Some(o) = outcome_of(&resp) {
                    if o.status.is_terminal() {
                        break o.clone();
                    }
                }
            }
            assert!(fed.now() < deadline, "job {i} never terminated");
        };
        assert!(outcome.status.is_success(), "job {i}: {outcome:?}");
        outcomes.push(outcome.to_der());
    }
    outcomes
}

#[test]
fn chaos_soak_sharded_sites_byte_identical_across_seeds() {
    for seed in SEEDS {
        let reference = run_fed(seed, 1, None);
        // Sharding alone must not change the bytes...
        let sharded = run_fed(seed, 2, None);
        assert_eq!(reference, sharded, "seed {seed}: sharding changed bytes");
        // ...nor sharding plus a crash-restart landing mid-workload on
        // the site holding the multi-site parent (per-shard WAL replay).
        let plan = FaultPlan::new(seed ^ 0x55).crash_restart("FZJ", 40 * SEC, 2 * MINUTE);
        let faulted = run_fed(seed, 2, Some(&plan));
        assert_eq!(
            reference, faulted,
            "seed {seed}: crash-restart under sharding diverged"
        );
    }
}
