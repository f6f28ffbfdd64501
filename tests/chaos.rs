//! Chaos soak suite: deterministic federated workloads replayed under
//! every fault class the seeded [`FaultPlan`] knows — message drop,
//! duplication, reordering, transient site partition, and server
//! crash-restart — asserting the terminal job outcomes are *byte-for-byte
//! identical* to the fault-free run. Faults may delay the grid; they must
//! never change what it computes.
//!
//! Plus the two targeted robustness scenarios of the issue: a permanently
//! partitioned peer yields a failed outcome and a quarantine flag within
//! the timeout bound (no hang), and an NJS killed mid-retry resumes its
//! pending peer work from the write-ahead journal after restart.

use unicore::ajo::*;
use unicore::protocol::{grid_view_of, outcome_of, Response};
use unicore::{Federation, FederationConfig};
use unicore_client::render_grid;
use unicore_codec::DerCodec;
use unicore_sim::{SimTime, HOUR, MINUTE, SEC};
use unicore_simnet::FaultPlan;

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=chaos";

/// The soak seeds: every fault class must hold for all of them.
const SEEDS: [u64; 3] = [1, 7, 23];

fn attrs() -> UserAttributes {
    UserAttributes::new(DN, "users")
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

/// The federated workload: a local two-task pipeline at FZJ, a three-site
/// job fanning sub-AJOs to RUS and DWD with files on the edges, and an
/// independent single-task job at ZIB.
fn workload() -> Vec<(&'static str, AbstractJob)> {
    let mut pipeline = AbstractJob::new("pipeline", VsiteAddress::new("FZJ", "T3E"), attrs());
    pipeline
        .nodes
        .push(script_node(1, "make", "sleep 90\nproduce out.bin 4096\n"));
    pipeline.nodes.push(script_node(2, "check", "sleep 10\n"));
    pipeline.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["out.bin".into()],
    });

    let mut prep = AbstractJob::new("prep@RUS", VsiteAddress::new("RUS", "VPP"), attrs());
    prep.nodes
        .push(script_node(1, "pre", "sleep 10\nproduce grid.dat 2048\n"));
    let mut post = AbstractJob::new("post@DWD", VsiteAddress::new("DWD", "SX4"), attrs());
    post.nodes.push(script_node(1, "vis", "sleep 5\n"));
    let mut multi = AbstractJob::new("3site", VsiteAddress::new("FZJ", "T3E"), attrs());
    multi.nodes.push((ActionId(1), GraphNode::SubJob(prep)));
    multi.nodes.push(script_node(
        2,
        "main",
        "sleep 60\nproduce fields.dat 4096\n",
    ));
    multi.nodes.push((ActionId(3), GraphNode::SubJob(post)));
    multi.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["grid.dat".into()],
    });
    multi.dependencies.push(Dependency {
        from: ActionId(2),
        to: ActionId(3),
        files: vec!["fields.dat".into()],
    });

    let mut solo = AbstractJob::new("solo", VsiteAddress::new("ZIB", "T3E"), attrs());
    solo.nodes
        .push(script_node(1, "t", "sleep 20\nproduce r.nc 512\n"));

    vec![("FZJ", pipeline), ("FZJ", multi), ("ZIB", solo)]
}

/// Runs the workload under `plan` (or fault-free when `None`) and returns
/// the DER encodings of every job's terminal outcome, in submission
/// order, plus the finished federation for metric assertions.
fn run_workload(seed: u64, plan: Option<&FaultPlan>) -> (Vec<Vec<u8>>, Federation) {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        ..FederationConfig::default()
    });
    fed.register_user(DN, "alice");
    fed.attach_stores();
    if let Some(plan) = plan {
        fed.apply_fault_plan(plan);
    }

    let submissions = workload();
    let corrs: Vec<(String, u64)> = submissions
        .into_iter()
        .map(|(via, job)| (via.to_string(), fed.client_submit(via, job, DN)))
        .collect();

    // Collect consign acks (retried through whatever the plan throws).
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

    // Poll every job to its terminal outcome.
    let mut outcomes = Vec::new();
    for (i, (via, _)) in corrs.iter().enumerate() {
        let id = ids[i].expect("consigned");
        let outcome = loop {
            let poll = fed.client_poll(via, DN, id, DetailLevel::Tasks);
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
        assert!(
            outcome.status.is_success(),
            "job {i} failed under faults: {outcome:?}"
        );
        outcomes.push(outcome.to_der());
    }
    (outcomes, fed)
}

fn assert_identical_to_baseline(class: &str, plan_for: impl Fn(u64) -> FaultPlan) {
    for seed in SEEDS {
        let (baseline, _) = run_workload(seed, None);
        let plan = plan_for(seed);
        let (faulted, fed) = run_workload(seed, Some(&plan));
        assert_eq!(
            baseline, faulted,
            "{class}: outcomes diverged from fault-free run at seed {seed}"
        );
        drop(fed);
    }
}

#[test]
fn soak_drop_outcomes_byte_identical() {
    for seed in SEEDS {
        let (baseline, _) = run_workload(seed, None);
        let plan = FaultPlan::new(seed ^ 0xD0).drop_everywhere(0.25, 0, SimTime::MAX);
        let (faulted, fed) = run_workload(seed, Some(&plan));
        assert_eq!(baseline, faulted, "drop: diverged at seed {seed}");
        assert!(fed.retries > 0, "drops must force retries");
        assert!(
            fed.client_telemetry()
                .metrics_snapshot()
                .counter("federation.retries")
                > 0
        );
    }
}

#[test]
fn soak_duplicate_outcomes_byte_identical() {
    for seed in SEEDS {
        let (baseline, _) = run_workload(seed, None);
        let plan = FaultPlan::new(seed ^ 0xD7).duplicate_everywhere(0.35, 0, SimTime::MAX);
        let (faulted, fed) = run_workload(seed, Some(&plan));
        assert_eq!(baseline, faulted, "duplicate: diverged at seed {seed}");
        let (dups, _) = fed.seq_stats();
        assert!(dups > 0, "duplicates must be observed (and absorbed)");
    }
}

#[test]
fn soak_reorder_outcomes_byte_identical() {
    assert_identical_to_baseline("reorder", |seed| {
        FaultPlan::new(seed ^ 0x12).reorder_everywhere(0.35, 2 * SEC, 0, SimTime::MAX)
    });
}

#[test]
fn soak_transient_partition_outcomes_byte_identical() {
    // RUS drops off the grid from t=30s to t=2min — squarely across the
    // multi-site job's sub-consign and outcome-delivery window.
    assert_identical_to_baseline("partition", |seed| {
        FaultPlan::new(seed ^ 0x3A).partition("RUS", 30 * SEC, 2 * MINUTE)
    });
}

#[test]
fn soak_crash_restart_outcomes_byte_identical() {
    // FZJ's server dies mid-workload and reboots from its journal; the
    // recovered NJS re-dispatches, peers deduplicate, outcomes match.
    assert_identical_to_baseline("crash-restart", |seed| {
        FaultPlan::new(seed ^ 0x55).crash_restart("FZJ", 40 * SEC, 2 * MINUTE)
    });
}

#[test]
fn soak_replays_are_deterministic() {
    // The same seed and plan replay to the same bytes — the property the
    // whole suite rests on.
    let plan = FaultPlan::new(99)
        .drop_everywhere(0.2, 0, SimTime::MAX)
        .duplicate_everywhere(0.2, 0, SimTime::MAX)
        .reorder_everywhere(0.2, SEC, 0, SimTime::MAX);
    let (a, _) = run_workload(5, Some(&plan));
    let (b, _) = run_workload(5, Some(&plan));
    assert_eq!(a, b);
}

#[test]
fn permanent_partition_retargets_bounded_and_flags_dead_site() {
    let mut fed = Federation::german_deployment(seeded(3));
    fed.register_user(DN, "alice");
    fed.enable_telemetry(3);
    fed.apply_fault_plan(&FaultPlan::new(3).partition("RUS", 0, SimTime::MAX));

    // A job whose sub-AJO targets the dead site reaches a terminal
    // outcome within the retry envelope — it must not hang. The broker
    // retargets the RUS part to the next admissible site once the retry
    // budget declares RUS dark, so the job even succeeds.
    let mut sub = AbstractJob::new("never", VsiteAddress::new("RUS", "VPP"), attrs());
    sub.nodes.push(script_node(1, "x", "sleep 5\n"));
    let mut job = AbstractJob::new("doomed", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    job.nodes.push(script_node(2, "local", "sleep 5\n"));
    let (_, outcome, done_at) = fed
        .submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR)
        .expect("terminal outcome within the hour");
    assert!(outcome.status.is_success(), "{outcome:?}");
    assert!(outcome.child(ActionId(1)).unwrap().status().is_success());
    assert!(outcome.child(ActionId(2)).unwrap().status().is_success());
    assert!(done_at < HOUR, "the verdict must be bounded");

    // Drive further retry exhaustions to open the circuit, then confirm
    // the aggregated grid view stays complete — every Usite present —
    // with the dead site as a flagged row the JMC renders as a banner.
    for _ in 0..2 {
        let poll = fed.client_poll("RUS", DN, JobId(1), DetailLevel::JobOnly);
        fed.run_until(fed.now() + 10 * MINUTE);
        assert!(matches!(
            fed.take_client_response(poll),
            Some(Response::Error(ref m)) if m.contains("unreachable")
        ));
    }
    assert_eq!(fed.quarantined_sites(), vec!["RUS".to_string()]);

    let corr = fed.client_monitor("FZJ", DN, true);
    fed.run_until(fed.now() + 10 * MINUTE);
    let resp = fed.take_client_response(corr).expect("grid view answered");
    let view = grid_view_of(&resp).expect("grid view").clone();
    assert_eq!(view.sites.len(), 6, "dead site must not shrink the view");
    let rus = view.site("RUS").expect("RUS row");
    assert!(rus.health.is_unreachable(), "{:?}", rus.health);
    assert!(render_grid(&view).contains("UNREACHABLE"));
}

#[test]
fn chaos_replays_alert_log_byte_identical() {
    // The SLO engine is a pure function of sim time and the merged
    // snapshot: replaying the same seed and fault plan must reproduce
    // the alert log byte for byte, fires and clears included.
    fn run(seed: u64) -> (Vec<u8>, usize) {
        let mut fed = Federation::german_deployment(seeded(seed));
        fed.register_user(DN, "alice");
        fed.attach_stores();
        fed.enable_telemetry(seed);
        // Half the grid goes dark mid-run (>25% unreachable fires the
        // burn-rate rule whichever site is the tree root), with message
        // drops layered on top, then heals so the alert clears too.
        let plan = FaultPlan::new(seed ^ 0xA1)
            .drop_everywhere(0.15, 0, SimTime::MAX)
            .partition("RUS", 2 * MINUTE, 25 * MINUTE)
            .partition("DWD", 2 * MINUTE, 25 * MINUTE)
            .partition("ZIB", 2 * MINUTE, 25 * MINUTE);
        fed.apply_fault_plan(&plan);

        let mut job = AbstractJob::new("soak", VsiteAddress::new("FZJ", "T3E"), attrs());
        job.nodes.push(script_node(1, "t", "sleep 30\n"));
        let corr = fed.client_submit("FZJ", job, DN);
        fed.run_until(45 * MINUTE);
        let _ = fed.take_client_response(corr);
        (fed.alert_log_der(), fed.alert_log().len())
    }
    for seed in SEEDS {
        let (a, fired) = run(seed);
        let (b, _) = run(seed);
        assert_eq!(a, b, "alert log diverged on replay at seed {seed}");
        assert!(
            fired >= 2,
            "seed {seed}: expected at least a fire and a clear, got {fired}"
        );
    }
}

#[test]
fn njs_killed_mid_retry_resumes_peer_work_from_journal() {
    let mut fed = Federation::german_deployment(seeded(17));
    fed.register_user(DN, "alice");
    fed.attach_stores();

    // RUS is unreachable, so FZJ's sub-consign sits in its retry loop.
    fed.set_partitioned("RUS", true);
    let mut sub = AbstractJob::new("remote", VsiteAddress::new("RUS", "VPP"), attrs());
    sub.nodes.push(script_node(1, "r", "sleep 10\n"));
    let mut job = AbstractJob::new("resumed", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(30 * SEC);
    let Some(Response::Consigned { job: id }) = fed.take_client_response(corr) else {
        panic!("no consign ack");
    };

    // Kill FZJ while the retry is pending, heal the partition, reboot.
    fed.crash_site("FZJ");
    fed.set_partitioned("RUS", false);
    fed.run_until(fed.now() + MINUTE);
    fed.restart_site("FZJ");

    // The recovered NJS re-dispatches the remote node from its journal;
    // RUS deduplicates by sub-job identity; the job completes.
    let deadline = 2 * HOUR;
    let outcome = loop {
        let poll = fed.client_poll("FZJ", DN, id, DetailLevel::Tasks);
        fed.run_until(fed.now() + 15 * SEC);
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    break o.clone();
                }
            }
        }
        assert!(fed.now() < deadline, "resumed job never terminated");
    };
    assert!(outcome.status.is_success(), "{outcome:?}");
    assert!(matches!(
        outcome.child(ActionId(1)),
        Some(OutcomeNode::Job(j)) if j.status.is_success()
    ));
}

/// A config with just the seed set.
fn seeded(seed: u64) -> FederationConfig {
    FederationConfig {
        seed,
        ..FederationConfig::default()
    }
}

// --------------------------------------------------------------------
// E15: the chunked data plane under chaos. A multi-chunk file streams
// FZJ → DWD while faults hit the stream itself; the delivered bytes
// must be identical to the fault-free run, and recovery must *resume*
// from the receiver's journaled watermark, not restart from chunk zero.

/// Multi-chunk payload: 64 chunks at the default 64 KiB chunk size.
const TRANSFER_BYTES: u64 = 64 * unicore_dataplane::DEFAULT_CHUNK_SIZE as u64;

/// Produce a big file at FZJ, then stream it to DWD's incoming area.
fn transfer_job() -> AbstractJob {
    let mut job = AbstractJob::new("streamer", VsiteAddress::new("FZJ", "T3E"), attrs());
    let script = format!("sleep 10\nproduce big.dat {TRANSFER_BYTES}\n");
    job.nodes.push(script_node(1, "make", &script));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "ship".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Transfer {
                uspace_name: "big.dat".into(),
                to_vsite: VsiteAddress::new("DWD", "SX4"),
                dest_name: "big.dat".into(),
            }),
        }),
    ));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["big.dat".into()],
    });
    job
}

/// Runs the streaming workload under `plan` (fault-free when `None`),
/// asserts terminal success, and returns the bytes that landed at DWD
/// plus the finished federation for counter assertions.
fn run_transfer(seed: u64, plan: Option<&FaultPlan>) -> (Vec<u8>, Federation) {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        ..FederationConfig::default()
    });
    fed.enable_telemetry(seed);
    fed.register_user(DN, "alice");
    fed.attach_stores();
    if let Some(plan) = plan {
        fed.apply_fault_plan(plan);
    }
    let corr = fed.client_submit("FZJ", transfer_job(), DN);
    let deadline = 4 * HOUR;
    let id = loop {
        fed.run_until(fed.now() + 5 * SEC);
        match fed.take_client_response(corr) {
            Some(Response::Consigned { job }) => break job,
            Some(other) => panic!("consign failed: {other:?}"),
            None => {}
        }
        assert!(fed.now() < deadline, "consign ack never arrived");
    };
    let outcome = loop {
        let poll = fed.client_poll("FZJ", DN, id, DetailLevel::Tasks);
        fed.run_until(fed.now() + 10 * SEC);
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    break o.clone();
                }
            }
        }
        assert!(fed.now() < deadline, "transfer job never terminated");
    };
    assert!(outcome.status.is_success(), "transfer failed: {outcome:?}");
    let delivered = fed
        .server("DWD")
        .expect("DWD alive at the end")
        .njs()
        .vsite("SX4")
        .unwrap()
        .vspace
        .xspace_ref()
        .read_raw(&format!("{}big.dat", unicore_njs::INCOMING_PREFIX))
        .expect("file at destination")
        .data
        .to_vec();
    (delivered, fed)
}

/// First instant (on a fault-free run) at which DWD has the incoming
/// transfer open — the anchor for injecting faults mid-stream. The run
/// up to this point is deterministic per seed, so the faulted replay
/// reaches the same moment in the same state.
fn probe_stream_start(seed: u64) -> SimTime {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        ..FederationConfig::default()
    });
    fed.register_user(DN, "alice");
    fed.attach_stores();
    let corr = fed.client_submit("FZJ", transfer_job(), DN);
    let mut id = None;
    loop {
        fed.run_until(fed.now() + SEC / 10);
        if id.is_none() {
            if let Some(Response::Consigned { job }) = fed.take_client_response(corr) {
                id = Some(job);
            }
        }
        if let Some(job) = id {
            let dwd = fed.server("DWD").expect("DWD never crashes here");
            if dwd
                .njs()
                .incoming_progress("FZJ", job, ActionId(2))
                .is_some()
            {
                return fed.now();
            }
        }
        assert!(fed.now() < HOUR, "stream never started");
    }
}

#[test]
fn dataplane_drop_delivers_byte_identical() {
    for seed in SEEDS {
        let (baseline, _) = run_transfer(seed, None);
        assert_eq!(baseline.len() as u64, TRANSFER_BYTES);
        let plan = FaultPlan::new(seed ^ 0xE5).drop_everywhere(0.25, 0, SimTime::MAX);
        let (faulted, fed) = run_transfer(seed, Some(&plan));
        assert_eq!(
            unicore_crypto::sha256(&baseline),
            unicore_crypto::sha256(&faulted),
            "drop: checksum diverged at seed {seed}"
        );
        assert_eq!(baseline, faulted, "drop: bytes diverged at seed {seed}");
        assert!(fed.retries > 0, "drops must force retries");
    }
}

#[test]
fn dataplane_partition_mid_stream_resumes_byte_identical() {
    for seed in SEEDS {
        let t0 = probe_stream_start(seed);
        let (baseline, _) = run_transfer(seed, None);
        // DWD vanishes 200 ms into the stream (a 4 MiB file needs >1 s
        // of link time, so chunks are mid-flight) and stays gone for a
        // minute — well inside the per-chunk retry budget.
        let from = t0 + SEC / 5;
        let plan = FaultPlan::new(seed ^ 0xE6).partition("DWD", from, from + MINUTE);
        let (faulted, _) = run_transfer(seed, Some(&plan));
        assert_eq!(
            baseline, faulted,
            "partition: bytes diverged at seed {seed}"
        );
    }
}

#[test]
fn dataplane_receiver_crash_restart_resumes_byte_identical() {
    for seed in SEEDS {
        let t0 = probe_stream_start(seed);
        let (baseline, _) = run_transfer(seed, None);
        // The receiver dies half a second into the stream and reboots
        // from its journal 90 s later.
        let crash_at = t0 + SEC / 2;
        let plan = FaultPlan::new(seed ^ 0xE7).crash_restart("DWD", crash_at, crash_at + 90 * SEC);
        let (faulted, fed) = run_transfer(seed, Some(&plan));
        assert_eq!(
            baseline, faulted,
            "receiver crash: bytes diverged at seed {seed}"
        );
        // Resume, not restart: the sender never re-pushed the whole
        // file. A from-scratch restart would need at least 2× the chunk
        // count; a watermark resume re-pushes only the unacked tail.
        let sent = fed
            .server("FZJ")
            .unwrap()
            .telemetry()
            .metrics_snapshot()
            .counter("dataplane.chunks.sent");
        let chunks = TRANSFER_BYTES / unicore_dataplane::DEFAULT_CHUNK_SIZE as u64;
        assert!(
            sent >= chunks && sent < 2 * chunks,
            "seed {seed}: {sent} chunks sent for a {chunks}-chunk file"
        );
    }
}

#[test]
fn dataplane_sender_crash_restart_resumes_from_watermark() {
    for seed in SEEDS {
        let t0 = probe_stream_start(seed);
        let (baseline, _) = run_transfer(seed, None);
        // The *sender* dies mid-stream. Its in-memory sender state is
        // gone; recovery re-dispatches the transfer node, the fresh
        // offer reaches DWD, and DWD answers with its journaled
        // watermark — so the stream continues instead of starting over.
        let crash_at = t0 + SEC / 2;
        let plan = FaultPlan::new(seed ^ 0xE8).crash_restart("FZJ", crash_at, crash_at + 90 * SEC);
        let (faulted, fed) = run_transfer(seed, Some(&plan));
        assert_eq!(
            baseline, faulted,
            "sender crash: bytes diverged at seed {seed}"
        );
        let resumes = fed.server("DWD").unwrap().njs().transfer_resumes();
        assert!(
            resumes > 0,
            "seed {seed}: receiver never answered a resume offer"
        );
    }
}
