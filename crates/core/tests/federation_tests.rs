//! End-to-end federation tests: the three-tier submission path (Figure 1),
//! multi-site distribution (Figure 2), and the asynchronous protocol's
//! behaviour under message loss (§5.3).

use unicore::ajo::*;
use unicore::protocol::{outcome_of, Response};
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_gateway::RateLimitConfig;
use unicore_resources::Architecture;
use unicore_sim::{SimTime, HOUR, MILLI, MINUTE, SEC};
use unicore_simnet::{FaultKind, FaultPlan};
use unicore_store::{EventStore, MemoryBackend, StoreEvent};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=alice";

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

fn german() -> Federation {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    fed.register_user(DN, "alice");
    fed
}

#[test]
fn three_tier_submission_path() {
    let mut fed = german();
    let mut job = AbstractJob::new("quick", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push(script_node(1, "hello", "echo hi\nsleep 20\n"));
    let (id, outcome, done_at) = fed
        .submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR)
        .expect("job completes");
    assert_eq!(outcome.status, ActionStatus::Successful);
    assert!(done_at > 20 * SEC); // runtime + WAN latency + polling
                                 // The user's DN was mapped to the FZJ-local login by the gateway.
    let server = fed.server("FZJ").unwrap();
    assert!(server.is_done(id));
    let audit = server.njs(); // job ran under alice_fzj
    let _ = audit;
}

#[test]
fn user_can_contact_any_server() {
    // Figure 2: the user contacts RUS's server even for an RUS job, and
    // separately submits to DWD — each site maps the same DN differently.
    let mut fed = german();
    let mut job1 = AbstractJob::new("at-rus", VsiteAddress::new("RUS", "VPP"), attrs());
    job1.nodes.push(script_node(1, "a", "sleep 5\n"));
    let mut job2 = AbstractJob::new("at-dwd", VsiteAddress::new("DWD", "SX4"), attrs());
    job2.nodes.push(script_node(1, "b", "sleep 5\n"));
    let (_, o1, _) = fed.submit_and_wait("RUS", job1, DN, 5 * SEC, HOUR).unwrap();
    let (_, o2, _) = fed.submit_and_wait("DWD", job2, DN, 5 * SEC, HOUR).unwrap();
    assert!(o1.status.is_success());
    assert!(o2.status.is_success());
}

#[test]
fn multi_site_job_distributes_sub_ajos() {
    // A UNICORE job whose job groups run at three different Usites, with
    // files flowing along the dependency edges.
    let mut fed = german();

    let mut prep = AbstractJob::new("prep@RUS", VsiteAddress::new("RUS", "VPP"), attrs());
    prep.nodes.push(script_node(
        1,
        "preprocess",
        "sleep 10\nproduce grid.dat 4096\n",
    ));

    let mut post = AbstractJob::new("post@DWD", VsiteAddress::new("DWD", "SX4"), attrs());
    post.nodes.push(script_node(1, "visualise", "sleep 5\n"));

    let mut job = AbstractJob::new("3site", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(prep)));
    job.nodes.push(script_node(
        2,
        "main-sim",
        "sleep 30\nproduce fields.dat 8192\n",
    ));
    job.nodes.push((ActionId(3), GraphNode::SubJob(post)));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["grid.dat".into()],
    });
    job.dependencies.push(Dependency {
        from: ActionId(2),
        to: ActionId(3),
        files: vec!["fields.dat".into()],
    });

    let (id, outcome, _) = fed
        .submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR)
        .expect("multi-site job completes");
    assert_eq!(outcome.status, ActionStatus::Successful, "{outcome:?}");
    // Sub-job outcomes are nested jobs.
    assert!(matches!(
        outcome.child(ActionId(1)),
        Some(OutcomeNode::Job(j)) if j.status.is_success()
    ));
    assert!(matches!(
        outcome.child(ActionId(3)),
        Some(OutcomeNode::Job(j)) if j.status.is_success()
    ));
    // grid.dat flowed from RUS into the FZJ main job's Uspace.
    let fzj = fed.server("FZJ").unwrap();
    let grid = fzj.njs().fetch_uspace_file(id, "grid.dat", DN).unwrap();
    assert_eq!(grid.len(), 4096);
}

#[test]
fn list_and_control_services() {
    let mut fed = german();
    let mut job = AbstractJob::new("to-abort", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "long", "sleep 100000\n"));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(2 * MINUTE);
    let Some(Response::Consigned { job: id }) = fed.take_client_response(corr) else {
        panic!("no consign ack");
    };

    // List shows the job.
    let list_corr = fed.client_request("FZJ", DN, unicore::Request::List);
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(list_corr).unwrap();
    let jobs = unicore::list_jobs_of(&resp).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].job, id);

    // Abort it.
    let ctl = fed.client_control("FZJ", DN, id, ControlOp::Abort);
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(ctl).unwrap();
    assert!(matches!(
        resp,
        Response::Service(ServiceOutcome::Control { applied: true, .. })
    ));

    // Status is now failed/killed.
    let poll = fed.client_poll("FZJ", DN, id, DetailLevel::JobOnly);
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(poll).unwrap();
    let outcome = outcome_of(&resp).unwrap();
    assert!(outcome.status.is_terminal());
    assert!(!outcome.status.is_success());
}

#[test]
fn fetch_file_round_trip() {
    let mut fed = german();
    let mut job = AbstractJob::new("fetch", VsiteAddress::new("ZIB", "T3E"), attrs());
    job.nodes
        .push(script_node(1, "make", "produce answer.dat 512\n"));
    let (id, outcome, _) = fed.submit_and_wait("ZIB", job, DN, 5 * SEC, HOUR).unwrap();
    assert!(outcome.status.is_success());
    let corr = fed.client_fetch("ZIB", DN, id, "answer.dat");
    fed.run_until(fed.now() + MINUTE);
    let Some(Response::FileData(data)) = fed.take_client_response(corr) else {
        panic!("no file data");
    };
    assert_eq!(data.len(), 512);
}

#[test]
fn unknown_user_is_refused() {
    let mut fed = Federation::german_deployment(FederationConfig::default());
    // No register_user call: the UUDB has no entry for this DN.
    let mut job = AbstractJob::new("nope", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "x", "sleep 1\n"));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(MINUTE);
    let resp = fed.take_client_response(corr).unwrap();
    assert!(
        matches!(resp, Response::Error(ref m) if m.contains("UUDB")),
        "{resp:?}"
    );
}

#[test]
fn async_protocol_survives_heavy_loss() {
    // 30% loss on every WAN link: retries must still complete the job.
    let mut fed = Federation::german_deployment(FederationConfig {
        wan_loss: 0.30,
        seed: 7,
        ..FederationConfig::default()
    });
    fed.register_user(DN, "alice");
    for i in 0..5 {
        let mut job = AbstractJob::new(
            format!("lossy{i}"),
            VsiteAddress::new("FZJ", "T3E"),
            attrs(),
        );
        job.nodes.push(script_node(1, "t", "sleep 10\n"));
        let result = fed.submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR);
        let (_, outcome, _) = result.expect("async protocol completes despite loss");
        assert!(outcome.status.is_success());
    }
    assert!(fed.retries > 0, "loss should have forced retries");
}

#[test]
fn sync_protocol_breaks_under_loss_where_async_survives() {
    let run = |sync: bool, loss: f64, seed: u64| -> bool {
        let mut fed = Federation::german_deployment(FederationConfig {
            wan_loss: loss,
            seed,
            ..FederationConfig::default()
        });
        fed.register_user(DN, "alice");
        let mut job = AbstractJob::new("j", VsiteAddress::new("FZJ", "T3E"), attrs());
        job.nodes.push(script_node(1, "t", "sleep 60\n"));
        if sync {
            let corr = fed.client_submit_sync("FZJ", job, DN);
            fed.run_until(HOUR);
            matches!(
                fed.take_client_response(corr),
                Some(Response::Service(ServiceOutcome::Query { outcome }))
                    if outcome.status.is_success()
            )
        } else {
            fed.submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR)
                .map(|(_, o, _)| o.status.is_success())
                .unwrap_or(false)
        }
    };
    // Without loss both work.
    assert!(run(false, 0.0, 1));
    assert!(run(true, 0.0, 1));
    // Under loss, async always completes; sync fails for some seeds.
    let mut sync_failures = 0;
    for seed in 0..10 {
        assert!(run(false, 0.4, seed), "async failed at seed {seed}");
        if !run(true, 0.4, seed) {
            sync_failures += 1;
        }
    }
    assert!(
        sync_failures > 0,
        "sync protocol should fail under 40% loss for at least one seed"
    );
}

#[test]
fn a_synchronous_consign_ends_with_the_outcome_a_poll_reads_at_task_detail() {
    let mut fed = german();
    let mut job = AbstractJob::new("sync", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "t", "echo hi\nsleep 60\n"));
    let corr = fed.client_submit_sync("FZJ", job, DN);
    fed.run_until(HOUR);
    let answer = fed.take_client_response(corr).expect("the job ended");
    let server = fed.server("FZJ").expect("FZJ runs");
    let id = server.njs().list_jobs(DN)[0].job;
    let outcome = server
        .query(id, DN, DetailLevel::Tasks)
        .expect("alice's job");
    assert!(outcome.status.is_success() && !outcome.children.is_empty());
    assert_eq!(answer, Response::Service(ServiceOutcome::Query { outcome }));
}

#[test]
fn firewall_split_site_still_works() {
    let specs = vec![
        SiteSpec::simple("FZJ", "T3E", Architecture::CrayT3e).with_split(),
        SiteSpec::simple("RUS", "VPP", Architecture::FujitsuVpp700),
    ];
    let mut fed = Federation::new(FederationConfig::default(), &specs);
    fed.register_user(DN, "alice");
    let mut job = AbstractJob::new("behind-fw", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "t", "sleep 5\n"));
    let (_, outcome, _) = fed.submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR).unwrap();
    assert!(outcome.status.is_success());
}

#[test]
fn scaling_to_many_sites() {
    // E2's shape: a federation far larger than the original six sites.
    let specs: Vec<SiteSpec> = (0..12)
        .map(|i| SiteSpec::simple(&format!("S{i}"), "V", Architecture::Generic))
        .collect();
    let mut fed = Federation::new(FederationConfig::default(), &specs);
    fed.register_user(DN, "alice");
    // A job at S0 with sub-jobs fanned out to every other site.
    let mut job = AbstractJob::new("fanout", VsiteAddress::new("S0", "V"), attrs());
    for i in 1..12u64 {
        let mut sub = AbstractJob::new(
            format!("part{i}"),
            VsiteAddress::new(format!("S{i}"), "V"),
            attrs(),
        );
        sub.nodes.push(script_node(1, "part", "sleep 5\n"));
        job.nodes.push((ActionId(i), GraphNode::SubJob(sub)));
    }
    let (_, outcome, _) = fed
        .submit_and_wait("S0", job, DN, 5 * SEC, HOUR)
        .expect("fan-out job completes");
    assert!(outcome.status.is_success(), "{outcome:?}");
    assert_eq!(outcome.children.len(), 11);
}

#[test]
fn partitioned_site_retargets_instead_of_wedging() {
    let mut fed = german();
    fed.enable_telemetry(1);
    // RUS is unreachable before we even consign.
    fed.set_partitioned("RUS", true);

    // A job at FZJ with a sub-job destined for the dead RUS.
    let mut sub = AbstractJob::new("at-rus", VsiteAddress::new("RUS", "VPP"), attrs());
    sub.nodes.push(script_node(1, "never-runs", "sleep 5\n"));
    let mut job = AbstractJob::new("partition", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    job.nodes.push(script_node(2, "local-part", "sleep 5\n"));

    let (_, outcome, _) = fed
        .submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR)
        .expect("job reaches a terminal state despite the dead peer");
    // Pre-broker the RUS part simply failed. Now the broker retargets it
    // to the next admissible site once the retry budget declares RUS
    // dark, and the whole job succeeds anyway.
    assert!(outcome.status.is_success(), "{outcome:?}");
    assert!(outcome.child(ActionId(1)).unwrap().status().is_success());
    assert!(outcome.child(ActionId(2)).unwrap().status().is_success());
    let retargets = fed
        .server("FZJ")
        .unwrap()
        .telemetry()
        .metrics_snapshot()
        .counter("broker.retargets");
    assert!(
        retargets >= 1,
        "expected a broker retarget, got {retargets}"
    );
}

#[test]
fn healed_partition_allows_later_jobs() {
    let mut fed = german();
    fed.set_partitioned("DWD", true);
    // First job: its DWD part is retargeted around the partition.
    let mut sub = AbstractJob::new("p1", VsiteAddress::new("DWD", "SX4"), attrs());
    sub.nodes.push(script_node(1, "x", "sleep 5\n"));
    let mut job1 = AbstractJob::new("j1", VsiteAddress::new("FZJ", "T3E"), attrs());
    job1.nodes
        .push((ActionId(1), GraphNode::SubJob(sub.clone())));
    let (_, o1, _) = fed.submit_and_wait("FZJ", job1, DN, 5 * SEC, HOUR).unwrap();
    assert!(o1.status.is_success(), "{o1:?}");

    // Heal and resubmit: the hand-picked target works directly again.
    fed.set_partitioned("DWD", false);
    let mut job2 = AbstractJob::new("j2", VsiteAddress::new("FZJ", "T3E"), attrs());
    job2.nodes.push((ActionId(1), GraphNode::SubJob(sub)));
    let (_, o2, _) = fed.submit_and_wait("FZJ", job2, DN, 5 * SEC, HOUR).unwrap();
    assert!(o2.status.is_success(), "{o2:?}");
}

#[test]
fn purge_reclaims_job_directory() {
    let mut fed = german();
    let mut job = AbstractJob::new("purgeable", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes
        .push(script_node(1, "make", "produce big.out 100000\n"));
    let (id, outcome, _) = fed.submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR).unwrap();
    assert!(outcome.status.is_success());

    // Purging before fetching would lose the data; fetch first (the JMC's
    // save-output step), then purge.
    let fetch = fed.client_fetch("FZJ", DN, id, "big.out");
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(fetch),
        Some(Response::FileData(d)) if d.len() == 100_000
    ));

    let purge = fed.client_request("FZJ", DN, unicore::Request::Purge { job: id });
    fed.run_until(fed.now() + MINUTE);
    let resp = fed.take_client_response(purge).unwrap();
    assert!(
        matches!(resp, Response::Purged { bytes } if bytes >= 100_000),
        "{resp:?}"
    );

    // The job is gone: polls now fail.
    let poll = fed.client_poll("FZJ", DN, id, DetailLevel::JobOnly);
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(poll),
        Some(Response::Error(_))
    ));
}

#[test]
fn purge_refused_for_running_or_foreign_jobs() {
    let mut fed = german();
    let mut job = AbstractJob::new("busy", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "long", "sleep 100000\n"));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(MINUTE);
    let Some(Response::Consigned { job: id }) = fed.take_client_response(corr) else {
        panic!()
    };
    // Still running: purge refused.
    let purge = fed.client_request("FZJ", DN, unicore::Request::Purge { job: id });
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(purge),
        Some(Response::Error(_))
    ));
    // Another user: refused too.
    let other = "C=DE, O=X, OU=Y, CN=other";
    fed.register_user(other, "other");
    let purge2 = fed.client_request("FZJ", other, unicore::Request::Purge { job: id });
    fed.run_until(fed.now() + MINUTE);
    assert!(matches!(
        fed.take_client_response(purge2),
        Some(Response::Error(_))
    ));
}

#[test]
fn machine_crash_fails_job_and_recovery_allows_rerun() {
    let mut fed = german();
    let mut job = AbstractJob::new("doomed", VsiteAddress::new("DWD", "SX4"), attrs());
    job.nodes.push(script_node(1, "long", "sleep 3000\n"));
    let corr = fed.client_submit("DWD", job.clone(), DN);
    fed.run_until(MINUTE);
    let Some(Response::Consigned { job: id }) = fed.take_client_response(corr) else {
        panic!()
    };
    // The SX-4 crashes mid-run for 10 minutes.
    let now = fed.now();
    fed.server_mut("DWD")
        .unwrap()
        .njs_mut()
        .vsite_mut("SX4")
        .unwrap()
        .batch
        .crash(now, 10 * MINUTE);
    // The job terminates unsuccessfully with the node-failure exit code.
    let deadline = fed.now() + HOUR;
    let outcome = loop {
        let poll = fed.client_poll("DWD", DN, id, DetailLevel::Tasks);
        fed.run_until((fed.now() + MINUTE).min(deadline));
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    break o.clone();
                }
            }
        }
        assert!(fed.now() < deadline, "job never terminated");
    };
    assert!(!outcome.status.is_success());
    let OutcomeNode::Task(t) = outcome.child(ActionId(1)).unwrap() else {
        panic!()
    };
    assert_eq!(t.exit_code, Some(139));

    // After recovery, a resubmission succeeds on the same machine.
    job.name = "retry".into();
    let (_, o2, _) = fed
        .submit_and_wait("DWD", job, DN, 5 * SEC, 4 * HOUR)
        .unwrap();
    assert!(o2.status.is_success());
}

#[test]
fn backoff_bounds_time_to_unreachable_verdict() {
    // A request into a partitioned site must surface its synthetic error
    // within the worst-case exponential-backoff envelope (initial
    // timeout, then doubling delays capped at backoff_cap, each plus at
    // most a quarter jitter) — not hang, and not spin hot either.
    let mut fed = german();
    fed.set_partitioned("RUS", true);
    let corr = fed.client_poll("RUS", DN, JobId(1), DetailLevel::JobOnly);
    fed.run_until(5 * MINUTE);
    let resp = fed.take_client_response(corr).expect("verdict in bound");
    assert!(matches!(resp, Response::Error(ref m) if m.contains("unreachable")));
    assert!(fed.retry_exhaustions > 0);
    // Backoff spreads the 10 retries over minutes, not the flat 20s a
    // constant 2s timeout would produce.
    assert!(
        fed.now() > MINUTE,
        "retries ended too quickly: {}",
        fed.now()
    );
    // Retry traffic is visible on the client-tier metrics registry.
    let snapshot = fed.client_telemetry().metrics_snapshot();
    assert!(snapshot.counter("federation.retries") >= 10);
    assert_eq!(snapshot.counter("federation.retry.exhausted"), 1);
}

#[test]
fn dead_peer_is_quarantined_then_probed_back_in() {
    // The probe interval is deliberately huge: what must bring RUS back
    // is the aggregation plane's own heartbeat traffic (its pushes keep
    // flowing regardless of the circuit), not the half-open probe.
    let mut fed = Federation::german_deployment(FederationConfig {
        probe_interval: 30 * MINUTE,
        ..FederationConfig::default()
    });
    fed.register_user(DN, "alice");
    fed.enable_telemetry(9);
    fed.set_partitioned("RUS", true);

    let grid_view = |fed: &mut Federation| {
        let before = fed.now();
        let corr = fed.client_monitor("FZJ", DN, true);
        loop {
            fed.run_until(fed.now() + 5 * SEC);
            if let Some(resp) = fed.take_client_response(corr) {
                let Response::Service(ServiceOutcome::Grid { view }) = resp else {
                    panic!("not a grid view response");
                };
                break view;
            }
            // The root answers from its pre-merged caches: the dead site
            // must never cost the query a retry budget.
            assert!(fed.now() - before < 2 * MINUTE, "grid view too slow");
        }
    };

    // Two consecutive retry exhaustions against RUS open its circuit.
    for strikes in 1..=2u32 {
        let corr = fed.client_poll("RUS", DN, JobId(1), DetailLevel::JobOnly);
        fed.run_until(fed.now() + 5 * MINUTE);
        let resp = fed.take_client_response(corr).expect("verdict in bound");
        assert!(matches!(resp, Response::Error(ref m) if m.contains("unreachable")));
        if strikes == 1 {
            assert!(fed.quarantined_sites().is_empty());
        }
    }
    assert_eq!(fed.quarantined_sites(), vec!["RUS".to_string()]);

    // The grid view stays complete — six rows — with RUS marked
    // unreachable, and arrives fast from the root's cache.
    let view = grid_view(&mut fed);
    assert_eq!(view.sites.len(), 6, "all six sites accounted for");
    let rus = view.site("RUS").expect("RUS row present");
    assert!(
        rus.health.is_unreachable(),
        "RUS must be flagged: {:?}",
        rus.health
    );
    assert!(view.unreachable_count() >= 1);

    // Heal the partition. No probe fires for another ~25 minutes, yet
    // RUS's next heartbeat push reaches its tree parent, proves the
    // site alive, and closes the circuit passively. The very next
    // snapshot drops the UNREACHABLE row (the E17 stale-tombstone fix).
    fed.set_partitioned("RUS", false);
    fed.run_until(fed.now() + 3 * MINUTE);
    assert!(
        fed.quarantined_sites().is_empty(),
        "heartbeats must close the circuit without waiting for a probe"
    );
    let view = grid_view(&mut fed);
    let rus = view.site("RUS").expect("RUS row present");
    assert!(
        !rus.health.is_unreachable(),
        "rejoined site must shed its tombstone immediately: {:?}",
        rus.health
    );
    // Give the plane one more push round: the row turns fully live with
    // real Vsite content, not a synthesized placeholder.
    fed.run_until(fed.now() + 2 * MINUTE);
    let view = grid_view(&mut fed);
    let rus = view.site("RUS").expect("RUS row present");
    assert_eq!(rus.health, SiteHealth::Live);
    assert!(!rus.vsites.is_empty(), "real report, not a tombstone");
}

#[test]
fn crash_restart_recovers_jobs_from_the_journal() {
    let mut fed = german();
    fed.attach_stores();
    // The FZJ server dies 30 simulated seconds in and reboots at 3
    // minutes, recovering from its write-ahead journal.
    fed.apply_fault_plan(&FaultPlan::new(11).crash_restart("FZJ", 30 * SEC, 3 * MINUTE));

    let mut job = AbstractJob::new("survivor", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "work", "sleep 120\n"));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(20 * SEC);
    let Some(Response::Consigned { job: id }) = fed.take_client_response(corr) else {
        panic!("no consign ack before the crash");
    };

    fed.run_until(MINUTE);
    assert!(fed.is_crashed("FZJ"), "crash window is in force");
    assert!(fed.server("FZJ").is_none());

    // After the restart the recovered server finishes the job.
    let deadline = 2 * HOUR;
    let outcome = loop {
        let poll = fed.client_poll("FZJ", DN, id, DetailLevel::Tasks);
        fed.run_until((fed.now() + MINUTE).min(deadline));
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    break o.clone();
                }
            }
        }
        assert!(fed.now() < deadline, "recovered job never terminated");
    };
    assert!(outcome.status.is_success(), "{outcome:?}");
    assert!(!fed.is_crashed("FZJ"));
}

#[test]
fn duplicated_and_reordered_wire_traffic_is_absorbed() {
    // Aggressive duplicate + reorder faults on every link: sequence
    // tracking sees the anomalies, idempotent handling absorbs them, and
    // the job completes exactly as without faults.
    let mut fed = german();
    fed.apply_fault_plan(
        &FaultPlan::new(23)
            .duplicate_everywhere(0.4, 0, SimTime::MAX)
            .reorder_everywhere(0.4, 2 * SEC, 0, SimTime::MAX),
    );
    let mut job = AbstractJob::new("dup-safe", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "t", "sleep 10\n"));
    let (_, outcome, _) = fed.submit_and_wait("FZJ", job, DN, 5 * SEC, HOUR).unwrap();
    assert!(outcome.status.is_success());
    let (dups, _) = fed.seq_stats();
    assert!(dups > 0, "duplicates should have been observed");
}

// ---------------------------------------------------------------------
// The `fed_burst` shape, pinned: what a two-site burst writes may not
// depend on how its envelopes are packed into network messages.
// ---------------------------------------------------------------------

const BURST_SITES: [&str; 2] = ["S0", "S1"];
const BURST_JOBS: usize = 32;

fn chain_edges(job: &mut AbstractJob) {
    for id in 1..3 {
        job.dependencies.push(Dependency {
            from: ActionId(id),
            to: ActionId(id + 1),
            files: Vec::new(),
        });
    }
}

/// Three 30 s script tasks in a row at `home`.
fn chain3(name: &str, home: usize) -> AbstractJob {
    let mut job = AbstractJob::new(name, VsiteAddress::new(BURST_SITES[home], "V"), attrs());
    for id in 1..=3 {
        job.nodes
            .push(script_node(id, &format!("t{id}"), "sleep 30\n"));
    }
    chain_edges(&mut job);
    job
}

/// `chain3` with its middle node a job group at the other Usite.
fn subjob_chain(name: &str, home: usize) -> AbstractJob {
    let there = VsiteAddress::new(BURST_SITES[1 - home], "V");
    let mut group = AbstractJob::new(format!("{name}-group"), there, attrs());
    group.nodes.push(script_node(1, "t2", "sleep 30\n"));
    let mut job = AbstractJob::new(name, VsiteAddress::new(BURST_SITES[home], "V"), attrs());
    job.nodes.push(script_node(1, "t1", "sleep 30\n"));
    job.nodes.push((ActionId(2), GraphNode::SubJob(group)));
    job.nodes.push(script_node(3, "t3", "sleep 30\n"));
    chain_edges(&mut job);
    job
}

/// Two single-Vsite Usites, `S0` and `S1`, with the user registered.
fn two_sites(seed: u64) -> Federation {
    let specs = BURST_SITES.map(|s| SiteSpec::simple(s, "V", Architecture::Generic));
    let config = FederationConfig {
        seed,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(config, &specs);
    fed.register_user(DN, "alice");
    fed
}

struct BurstRun {
    /// Terminal outcome DER per job, in submission order.
    outcomes: Vec<Vec<u8>>,
    /// Each site's journal, decoded.
    journals: Vec<Vec<StoreEvent>>,
    retries: u64,
    seq_stats: (u64, u64),
}

/// 16 `chain3` + 16 cross-site sub-job AJOs over two journalled sites:
/// submitted up front, polled every 30 s at `DetailLevel::Tasks` until
/// terminal, then purged — the loop gridbench's `fed_burst` runs.
fn burst_run(seed: u64, plan: Option<&FaultPlan>) -> BurstRun {
    let mut fed = two_sites(seed);
    let disks: Vec<MemoryBackend> = BURST_SITES.iter().map(|_| MemoryBackend::new()).collect();
    for (site, disk) in BURST_SITES.iter().zip(&disks) {
        let store = EventStore::open(Box::new(disk.clone())).expect("open journal");
        let server = fed.server_mut(site).expect("listed site");
        server.njs_mut().attach_stores(vec![store]);
    }
    if let Some(plan) = plan {
        fed.apply_fault_plan(plan);
    }

    // The seed decides which site each job enters through.
    let jobs: Vec<(usize, AbstractJob)> = (0..BURST_JOBS)
        .map(|i| {
            let home = (i / 2 + seed as usize) % 2;
            let name = format!("burst-{seed}-{i}");
            let job = if i % 2 == 1 {
                subjob_chain(&name, home)
            } else {
                chain3(&name, home)
            };
            (home, job)
        })
        .collect();
    let deadline = 4 * HOUR;
    let mut pending: Vec<(usize, u64)> = Vec::new();
    let mut homes = Vec::new();
    for (i, (home, job)) in jobs.into_iter().enumerate() {
        pending.push((i, fed.client_submit(BURST_SITES[home], job, DN)));
        homes.push(BURST_SITES[home]);
    }
    let mut ids = vec![JobId(0); BURST_JOBS];
    while !pending.is_empty() {
        assert!(fed.now() < deadline, "consign acks never arrived");
        fed.run_until(fed.now() + 5 * SEC);
        pending.retain(|&(i, corr)| match fed.take_client_response(corr) {
            Some(Response::Consigned { job }) => {
                ids[i] = job;
                false
            }
            Some(other) => panic!("consign {i} answered {other:?}"),
            None => true,
        });
    }

    let mut outcomes = vec![Vec::new(); BURST_JOBS];
    let mut outstanding: Vec<usize> = (0..BURST_JOBS).collect();
    while !outstanding.is_empty() {
        assert!(fed.now() < deadline, "jobs still running at the deadline");
        let polls: Vec<(usize, u64)> = outstanding
            .iter()
            .map(|&i| (i, fed.client_poll(homes[i], DN, ids[i], DetailLevel::Tasks)))
            .collect();
        fed.run_until(fed.now() + 30 * SEC);
        for (i, corr) in polls {
            let Some(response) = fed.take_client_response(corr) else {
                continue;
            };
            let outcome = outcome_of(&response).expect("a poll answers with an outcome");
            if outcome.status.is_terminal() {
                assert!(outcome.status.is_success(), "job {i}: {outcome:?}");
                outcomes[i] = outcome.to_der();
                outstanding.retain(|&j| j != i);
            }
        }
    }

    let purges: Vec<u64> = (0..BURST_JOBS)
        .map(|i| fed.client_request(homes[i], DN, unicore::Request::Purge { job: ids[i] }))
        .collect();
    // A purge answer lost to the plan is retried: give the backoff room.
    fed.run_until(fed.now() + if plan.is_some() { 10 * MINUTE } else { 5 * SEC });
    for corr in purges {
        let response = fed.take_client_response(corr);
        assert!(
            matches!(response, Some(Response::Purged { .. })),
            "purge answered {response:?}"
        );
    }

    let journals = disks
        .iter()
        .map(|disk| {
            let store = EventStore::open(Box::new(disk.clone())).expect("reopen journal");
            store.replay().expect("replay journal").events
        })
        .collect();
    BurstRun {
        outcomes,
        journals,
        retries: fed.retries,
        seq_stats: fed.seq_stats(),
    }
}

/// The event without what the wire's packing decides: *when* it was
/// written, and which site-local job id the consign drew (ids go by
/// arrival order, and WAN jitter reorders separately sent consigns).
/// *What* a site writes for a job must not depend on either.
fn unplaced(event: &StoreEvent) -> StoreEvent {
    let mut event = event.clone();
    match &mut event {
        StoreEvent::JobConsigned {
            job,
            at,
            parent,
            foreign,
            idem_key,
            ..
        } => {
            (*job, *at) = (JobId(0), 0);
            if let Some((parent_job, _)) = parent {
                *parent_job = JobId(0);
            }
            if let Some(origin) = foreign {
                // A job group's key names its parent's id at the origin.
                origin.parent = JobId(0);
                idem_key.clear();
            }
        }
        StoreEvent::JobIncarnated { job, at, .. }
        | StoreEvent::TaskStateChanged { job, at, .. }
        | StoreEvent::OutcomeStored { job, at, .. }
        | StoreEvent::PlacementDecided { job, at, .. }
        | StoreEvent::JobPurged { job, at } => (*job, *at) = (JobId(0), 0),
        other => panic!("a burst writes no {other:?}"),
    }
    event
}

/// SHA-256 over every outcome, then every site's journal as the decoded
/// event sequence of each job, jobs in AJO-name order — group-commit
/// boundaries (how many events one append carried) are not part of it.
fn burst_digest(run: &BurstRun) -> String {
    let mut buf = Vec::new();
    let mut put = |bytes: &[u8]| {
        buf.extend_from_slice(&(bytes.len() as u64).to_be_bytes());
        buf.extend_from_slice(bytes);
    };
    for outcome in &run.outcomes {
        put(outcome);
    }
    for journal in &run.journals {
        let mut jobs: Vec<(String, Vec<&StoreEvent>)> = unicore_store::events_by_job(journal)
            .into_values()
            .map(|events| {
                let StoreEvent::JobConsigned { ajo_der, .. } = events[0] else {
                    panic!("a job's history starts at its consign: {:?}", events[0]);
                };
                let ajo = AbstractJob::from_der(ajo_der).expect("journalled AJO decodes");
                (ajo.name, events)
            })
            .collect();
        jobs.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            jobs.len(),
            24,
            "16 entered here + 8 job groups of the peer's"
        );
        for (name, events) in jobs {
            put(name.as_bytes());
            for event in events {
                put(&unplaced(event).to_der());
            }
        }
    }
    sha256(&buf).iter().map(|b| format!("{b:02x}")).collect()
}

/// `burst_digest` per seed, taken on the commit before envelopes were
/// coalesced into records.
const BURST_PINS: [(u64, &str); 3] = [
    (
        1,
        "5e83db48803313f28e9c97e47dae1680e179565a82d5d083f21076ce417a31e9",
    ),
    (
        7,
        "83a55782715a858bb81c6fee586e08882a6a9c54dd5e7d555d5b86d45aec38b2",
    ),
    (
        23,
        "393c1255e0b67cd7224cf3fe20cfbc1f05dc8396eb9426bf36ceb6705f114566",
    ),
];

#[test]
fn burst_outcomes_and_journals_are_pinned() {
    for (seed, pinned) in BURST_PINS {
        let run = burst_run(seed, None);
        assert_eq!(run.retries, 0, "seed {seed}: a healthy WAN retries nothing");
        // Nothing arrives twice — and nothing late: WAN jitter used to
        // let separately sent envelopes overtake each other (377, 397
        // and 384 reorders on these seeds); inside a record they cannot.
        assert_eq!(run.seq_stats, (0, 0), "seed {seed}");
        assert_eq!(burst_digest(&run), pinned, "seed {seed}");
    }
}

#[test]
fn burst_outcomes_survive_drop_duplicate_reorder() {
    for (seed, _) in BURST_PINS {
        let plan = FaultPlan::new(seed)
            .drop_everywhere(0.1, 0, SimTime::MAX)
            .duplicate_everywhere(0.2, 0, SimTime::MAX)
            .reorder_everywhere(0.2, 2 * SEC, 0, SimTime::MAX);
        let faulty = burst_run(seed, Some(&plan));
        assert!(faulty.retries > 0, "seed {seed}: the plan dropped nothing");
        assert_eq!(
            faulty.outcomes,
            burst_run(seed, None).outcomes,
            "seed {seed}"
        );
    }
}

// ---------------------------------------------------------------------
// One record per peer per tick.
// ---------------------------------------------------------------------

const POLLS: usize = 32;

/// Two sites, one job consigned at S0 and, from then on, a budget of
/// exactly [`POLLS`] user requests at every gateway that never refills:
/// request number 33 that a *server* handles is refused, so "each poll
/// was handled exactly once" can be read from outside. `wire_fault`, if
/// any, is in force on the workstation → S0 link for the next second.
fn metered(wire_fault: Option<FaultKind>) -> (Federation, JobId) {
    let mut fed = two_sites(FederationConfig::default().seed);
    fed.attach_stores();
    let corr = fed.client_submit("S0", chain3("metered", 0), DN);
    fed.run_until(5 * SEC);
    let Some(Response::Consigned { job }) = fed.take_client_response(corr) else {
        panic!("no consign ack");
    };
    fed.set_rate_limit(RateLimitConfig::new(0, POLLS as u64));
    if let Some(kind) = wire_fault {
        let (ws, gw) = (fed.workstation_node(), fed.gateway_node("S0").unwrap());
        let now = fed.now();
        fed.apply_fault_plan(&FaultPlan::new(5).on_link(ws, gw, kind, now, now + SEC));
    }
    (fed, job)
}

fn poll_burst(fed: &mut Federation, via: &str, job: JobId, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| fed.client_poll(via, DN, job, DetailLevel::Tasks))
        .collect()
}

/// Every poll was answered with the job's outcome, and the budget of
/// [`POLLS`] handled requests is exactly spent: one more is refused.
fn assert_each_handled_once(fed: &mut Federation, job: JobId, polls: &[u64]) {
    for &corr in polls {
        let response = fed.take_client_response(corr).expect("answered");
        assert!(outcome_of(&response).is_some(), "{response:?}");
    }
    let extra = fed.client_poll("S0", DN, job, DetailLevel::Tasks);
    fed.run_until(fed.now() + 5 * SEC);
    let refused = fed.take_client_response(extra);
    assert!(
        matches!(&refused, Some(Response::Error(why)) if why.contains("rate limit")),
        "the server handled fewer than {POLLS}: {refused:?}"
    );
}

#[test]
fn polls_of_one_tick_travel_as_one_record_each_way() {
    let (mut fed, job) = metered(None);
    let (records, envelopes) = (fed.messages_sent, fed.envelopes_sent);
    let polls = poll_burst(&mut fed, "S0", job, POLLS);
    // The 32 polls of one tick to one site under one DN are one sweep,
    // framed as one envelope at the flush, not one each at client_poll.
    assert_eq!(fed.messages_sent, records, "nothing leaves before the run");
    assert_eq!(fed.envelopes_sent, envelopes, "nor is anything framed");
    // They leave at the time they were asked: a run that advances
    // nothing already puts the one record on the wire.
    fed.run_until(fed.now());
    assert_eq!(fed.messages_sent, records + 1);
    assert_eq!(fed.envelopes_sent, envelopes + 1, "one sweep");
    fed.run_until(fed.now() + 5 * SEC);
    assert_eq!(fed.messages_sent, records + 2, "and one record of answers");
    assert_eq!(fed.envelopes_sent, envelopes + 2, "holding one Swept");
    assert_eq!((fed.retries, fed.seq_stats()), (0, (0, 0)));
    assert_each_handled_once(&mut fed, job, &polls);
}

#[test]
fn polls_to_two_sites_make_two_records() {
    let (mut fed, job) = metered(None);
    let records = fed.messages_sent;
    let mut polls = poll_burst(&mut fed, "S0", job, POLLS / 2);
    polls.extend(poll_burst(&mut fed, "S1", job, POLLS / 2));
    fed.run_until(fed.now());
    assert_eq!(fed.messages_sent, records + 2);
    fed.run_until(fed.now() + 5 * SEC);
    // S1 is contacted for the first time: its padding is not a message.
    assert_eq!(fed.messages_sent, records + 4);
    assert!(polls
        .iter()
        .all(|&corr| fed.take_client_response(corr).is_some()));
}

#[test]
fn a_dropped_record_is_its_envelopes_retried_and_handled_once() {
    let (mut fed, job) = metered(Some(FaultKind::Drop { probability: 1.0 }));
    let (records, envelopes) = (fed.messages_sent, fed.envelopes_sent);
    let polls = poll_burst(&mut fed, "S0", job, POLLS);
    fed.run_until(fed.now() + 10 * SEC);
    // The lost record held one envelope, the 32 polls' sweep: one timer,
    // one retry, and the sweep, its retransmission and its answer.
    assert_eq!(fed.retries, 1, "the one envelope of the lost record");
    assert_eq!(fed.envelopes_sent, envelopes + 3);
    // Their timers fired in one tick: the retransmissions share a record.
    assert_eq!(fed.messages_sent, records + 3, "lost, retried, answered");
    assert_eq!(fed.seq_stats().0, 0, "the server saw each poll once");
    assert_each_handled_once(&mut fed, job, &polls);
}

#[test]
fn a_duplicated_record_is_absorbed_per_envelope() {
    let (mut fed, job) = metered(Some(FaultKind::Duplicate { probability: 1.0 }));
    let polls = poll_burst(&mut fed, "S0", job, POLLS);
    fed.run_until(fed.now() + 5 * SEC);
    // The copied record held one envelope, the 32 polls' sweep.
    assert_eq!(
        fed.seq_stats().0,
        1,
        "each envelope of the copy is a duplicate"
    );
    assert_eq!(fed.retries, 0);
    // The copy was answered from the reply cache: 32 handled, not 64.
    assert_each_handled_once(&mut fed, job, &polls);
}

#[test]
fn a_crash_loses_nothing_already_on_the_wire() {
    let (mut fed, job) = metered(None);
    let polls = poll_burst(&mut fed, "S0", job, POLLS);
    // One WAN latency and a half: the polls have reached S0 and been
    // answered, the answers are still crossing.
    fed.run_until(fed.now() + 25 * MILLI);
    let sent = (fed.messages_sent, fed.envelopes_sent);
    let late = fed.client_poll("S0", DN, job, DetailLevel::Tasks);
    // The crash finds only the workstation's frame waiting (crash_site
    // asserts it): what S0 said left with the tick that said it.
    fed.crash_site("S0");
    fed.run_until(fed.now() + SEC);
    for corr in polls {
        assert!(fed.take_client_response(corr).is_some(), "poll {corr}");
    }
    assert_eq!(fed.messages_sent, sent.0 + 1, "the late poll still left");
    assert_eq!(fed.envelopes_sent, sent.1 + 1);
    assert!(fed.take_client_response(late).is_none(), "nobody home");
}

#[test]
fn a_duplicated_answer_is_delivered_once() {
    let (mut fed, job) = metered(None);
    let (gw, ws) = (fed.gateway_node("S0").unwrap(), fed.workstation_node());
    let now = fed.now();
    let duplicate = FaultKind::Duplicate { probability: 1.0 };
    fed.apply_fault_plan(&FaultPlan::new(5).on_link(gw, ws, duplicate, now, now + SEC));
    let poll = fed.client_poll("S0", DN, job, DetailLevel::Tasks);
    let answer = loop {
        assert!(fed.now() < now + SEC, "the poll was never answered");
        fed.run_until(fed.now() + MILLI);
        if let Some(answer) = fed.take_client_response(poll) {
            break answer;
        }
    };
    assert!(outcome_of(&answer).is_some(), "{answer:?}");
    fed.run_until(fed.now() + 5 * SEC);
    assert_eq!(fed.seq_stats().0, 1, "the copy did arrive");
    assert_eq!(fed.take_client_response(poll), None, "and was dropped");
}

#[test]
fn requests_of_one_tick_leave_in_call_order() {
    // A poll, an abort and a poll in one tick: the abort closes the
    // first poll's sweep, so the server sees the three in call order. A
    // client port holding every sweepable request until the flush would
    // answer both polls after the abort.
    let (mut fed, job) = metered(None);
    let before = fed.client_poll("S0", DN, job, DetailLevel::JobOnly);
    let abort = fed.client_control("S0", DN, job, ControlOp::Abort);
    let after = fed.client_poll("S0", DN, job, DetailLevel::JobOnly);
    fed.run_until(fed.now() + 5 * SEC);
    let status = |fed: &mut Federation, corr| {
        let response = fed.take_client_response(corr).expect("answered");
        outcome_of(&response).expect("an outcome").status
    };
    assert!(!status(&mut fed, before).is_terminal());
    assert!(matches!(
        fed.take_client_response(abort),
        Some(Response::Service(ServiceOutcome::Control {
            applied: true,
            ..
        }))
    ));
    let aborted = status(&mut fed, after);
    assert!(
        aborted.is_terminal() && !aborted.is_success(),
        "{aborted:?}"
    );
}

/// Polls `job` at FZJ once and returns what came back.
fn poll_fzj(fed: &mut Federation, job: JobId) -> Response {
    let poll = fed.client_poll("FZJ", DN, job, DetailLevel::JobOnly);
    fed.run_until(fed.now() + 5 * SEC);
    fed.take_client_response(poll).expect("answered")
}

/// A journalled German deployment with one job consigned at FZJ.
fn german_with_a_job() -> (Federation, JobId) {
    let mut fed = german();
    fed.attach_stores();
    let mut job = AbstractJob::new("kept", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script_node(1, "work", "sleep 60\n"));
    let corr = fed.client_submit("FZJ", job, DN);
    fed.run_until(5 * SEC);
    let Some(Response::Consigned { job }) = fed.take_client_response(corr) else {
        panic!("no consign ack");
    };
    (fed, job)
}

#[test]
fn a_revoked_dn_stays_revoked_across_a_crash_restart() {
    // A revocation is operator configuration, not process state: the
    // rebooted gateway refuses the DN exactly as the crashed one did.
    let (mut fed, job) = german_with_a_job();
    fed.revoke_user(DN);
    fed.crash_site("FZJ");
    fed.restart_site("FZJ");
    let refused = poll_fzj(&mut fed, job);
    assert!(
        matches!(&refused, Response::Error(why) if why.contains("certificate revoked")),
        "served a revoked DN after the restart: {refused:?}"
    );
    fed.reinstate_user(DN);
    let served = poll_fzj(&mut fed, job);
    assert!(outcome_of(&served).is_some(), "{served:?}");
}

#[test]
fn the_rate_limit_survives_a_crash_restart() {
    // The limit is configuration and comes back with the site; the
    // buckets are process state and come back full.
    const BUDGET: usize = 3;
    let (mut fed, job) = german_with_a_job();
    fed.set_rate_limit(RateLimitConfig::new(0, BUDGET as u64));
    fed.crash_site("FZJ");
    fed.restart_site("FZJ");
    for n in 1..=BUDGET {
        let served = poll_fzj(&mut fed, job);
        assert!(outcome_of(&served).is_some(), "request {n}: {served:?}");
    }
    let refused = poll_fzj(&mut fed, job);
    assert!(
        matches!(&refused, Response::Error(why) if why.contains("rate limit")),
        "request {} was served: {refused:?}",
        BUDGET + 1
    );
}
