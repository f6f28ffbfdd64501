//! Crash recovery: the write-ahead job spool brings a restarted server
//! back to exactly the jobs it had accepted, at every possible crash
//! point in the consign → incarnate → dispatch → outcome pipeline.
//!
//! The `MemoryBackend` plays the disk: it survives dropping the server
//! (the "machine" dying) and can be armed to fail at the Nth journal
//! append, leaving a torn final record for the CRC framing to catch.

use unicore::list_jobs_of;
use unicore::protocol::{outcome_of, Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::{AbstractJob, DetailLevel, JobId, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::JobPreparationAgent;
use unicore_crypto::CryptoRng;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend};
use unicore_telemetry::Telemetry;

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=phoenix";

/// A fresh FZJ server journaling to (a clone of) `mem`. Rebuilding a
/// server on the same backend models rebooting the machine with its
/// disk intact.
fn build_server(mem: &MemoryBackend) -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs.attach_stores(vec![
        EventStore::open(Box::new(mem.clone())).expect("open journal")
    ]);
    let mut uudb = Uudb::new();
    uudb.add(DN, UserEntry::new("phoenix", "users"));
    UnicoreServer::new(Gateway::new("FZJ", uudb), njs)
}

/// The scenario's jobs: a two-task pipeline with a file dependency
/// (exercising staging, dispatch order and output deposit) and an
/// independent single-task job.
fn scenario_jobs() -> Vec<AbstractJob> {
    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new());
    let mut a = jpa.new_job("pipeline", VsiteAddress::new("FZJ", "T3E"));
    let make = a.script_task(
        "make",
        "sleep 30\nproduce out.bin 4096\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let check = a.script_task(
        "check",
        "sleep 10\necho ok\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    a.after_with_files(make, check, vec!["out.bin".into()]);
    let mut b = jpa.new_job("single", VsiteAddress::new("FZJ", "T3E"));
    b.script_task(
        "solo",
        "sleep 20\nproduce result.nc 512\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    vec![a.build().unwrap(), b.build().unwrap()]
}

fn consign(server: &mut UnicoreServer, ajo: &AbstractJob, now: SimTime) -> Option<JobId> {
    match server.handle_request(DN, Request::Consign { ajo: ajo.clone() }, now) {
        Response::Consigned { job } => Some(job),
        Response::Error(_) => None,
        other => panic!("unexpected consign response: {other:?}"),
    }
}

fn fetch(server: &mut UnicoreServer, job: JobId, name: &str, now: SimTime) -> Vec<u8> {
    match server.handle_request(
        DN,
        Request::FetchFile {
            job,
            name: name.into(),
        },
        now,
    ) {
        Response::FileData(data) => data,
        other => panic!("fetch {name}: {other:?}"),
    }
}

/// Steps the server until every listed job is done or the backend
/// crashes; returns the sim time reached.
fn drive(
    server: &mut UnicoreServer,
    mem: &MemoryBackend,
    jobs: &[JobId],
    mut now: SimTime,
) -> SimTime {
    let deadline = now + 10 * HOUR;
    loop {
        server.step(now);
        if mem.is_crashed() || jobs.iter().all(|&j| server.is_done(j)) {
            return now;
        }
        assert!(now < deadline, "jobs stalled at t={now}");
        now = server.next_event_time().unwrap_or(now + SEC).max(now + SEC);
    }
}

/// Fault injection at *every* pipeline stage: the baseline run counts
/// the journal appends of the whole scenario, then the scenario is
/// re-run once per append with the machine dying exactly there (with a
/// deterministically chosen torn tail). After every crash the rebuilt
/// server must recover all consigned jobs, deduplicate the clients'
/// consign retries, finish everything, and serve correct outputs.
#[test]
fn kill_at_every_append_recovers_every_consigned_job() {
    let ajos = scenario_jobs();

    // Baseline: uncrashed, to learn the total append count.
    let mem = MemoryBackend::new();
    let mut server = build_server(&mem);
    let ids: Vec<JobId> = ajos
        .iter()
        .map(|a| consign(&mut server, a, 0).expect("baseline consign"))
        .collect();
    drive(&mut server, &mem, &ids, 0);
    assert!(ids.iter().all(|&j| server.is_done(j)), "baseline completes");
    let total = mem.append_count();
    // Group commit batches every event a step produces into one durable
    // write, so each append is now a durability *boundary* rather than a
    // single event: two strict consigns plus one group commit per
    // event-producing step. The floor checks the scenario still spans
    // consign, dispatch and outcome stages.
    assert!(
        total >= 5,
        "scenario too small to probe the pipeline: {total} appends"
    );
    drop(server);

    let mut rng = CryptoRng::from_u64(0xe9_5eed);
    for k in 0..total {
        let torn = rng.next_below(10) as usize;
        let mem = MemoryBackend::new();
        mem.crash_after_appends(k, torn);

        // Life before the crash: consign everything, run until death.
        let mut server = build_server(&mem);
        let live: Vec<Option<JobId>> = ajos.iter().map(|a| consign(&mut server, a, 0)).collect();
        let accepted: Vec<JobId> = live.iter().flatten().copied().collect();
        let now = drive(&mut server, &mem, &accepted, 0);
        assert!(mem.is_crashed(), "crash point {k} never fired");
        drop(server);

        // Reboot: same disk, fresh everything else.
        mem.reboot();
        let mut server = build_server(&mem);
        let report = server.recover(now).expect("recovery");
        if torn > 0 {
            assert!(
                report.torn_tail,
                "crash point {k}: torn record not detected"
            );
        }
        // Every job the client saw accepted was journaled first
        // (write-ahead), so it must be alive again.
        for &id in &accepted {
            assert!(
                report.jobs.contains(&id),
                "crash point {k}: job {id} accepted then lost"
            );
        }

        // The clients retry every consign whose completion they never
        // saw. Journaled ones must map to the same job (idempotency);
        // refused ones are created now, exactly once.
        let final_ids: Vec<JobId> = ajos
            .iter()
            .enumerate()
            .map(|(i, ajo)| {
                let id = consign(&mut server, ajo, now).expect("post-recovery consign");
                if let Some(pre) = live[i] {
                    assert_eq!(id, pre, "crash point {k}: consign retry not deduplicated");
                }
                id
            })
            .collect();

        let end = drive(&mut server, &mem, &final_ids, now);
        for (i, &id) in final_ids.iter().enumerate() {
            assert!(
                server.is_done(id),
                "crash point {k}: job {i} stuck after recovery"
            );
            let resp = server.handle_request(
                DN,
                Request::Poll {
                    job: id,
                    detail: DetailLevel::Tasks,
                },
                end,
            );
            let outcome = outcome_of(&resp).expect("poll returns outcome");
            assert!(
                outcome.status.is_success(),
                "crash point {k} job {i}: {outcome:?}"
            );
        }
        // The outputs really exist and have the right content.
        assert_eq!(fetch(&mut server, final_ids[0], "out.bin", end).len(), 4096);
        assert_eq!(
            fetch(&mut server, final_ids[1], "result.nc", end).len(),
            512
        );

        // No duplicates: the user sees exactly one job per AJO.
        let resp = server.handle_request(DN, Request::List, end);
        let listed = list_jobs_of(&resp).expect("list");
        assert_eq!(
            listed.len(),
            ajos.len(),
            "crash point {k}: duplicated or lost jobs: {listed:?}"
        );
    }
}

/// A job that finished before the crash is restored terminal from its
/// `OutcomeStored` record: polling works, outputs are intact, and
/// nothing is handed to the batch subsystem a second time — even when
/// the client re-delivers the original Consign.
#[test]
fn finished_job_survives_restart_without_resubmission() {
    let ajos = scenario_jobs();
    let mem = MemoryBackend::new();
    let mut server = build_server(&mem);
    let id = consign(&mut server, &ajos[0], 0).expect("consign");
    let now = drive(&mut server, &mem, &[id], 0);
    assert!(server.is_done(id));
    let pre_crash = fetch(&mut server, id, "out.bin", now);
    drop(server);

    let mut server = build_server(&mem);
    let report = server.recover(now).expect("recovery");
    assert_eq!(report.jobs, vec![id]);
    assert!(!report.torn_tail);
    assert!(server.is_done(id), "outcome restored from the journal");

    // The client's re-delivered Consign maps to the same job...
    assert_eq!(consign(&mut server, &ajos[0], now), Some(id));
    // ...and repeated stepping never re-incarnates the terminal work.
    let mut t = now;
    for _ in 0..5 {
        server.step(t);
        t += SEC;
    }
    assert_eq!(
        server.njs().incarnation_count(),
        0,
        "terminal work re-submitted to batch"
    );
    assert_eq!(fetch(&mut server, id, "out.bin", t), pre_crash);
}

/// The write-ahead contract: when the journal cannot record a consign,
/// the consign is refused — the client sees the error, nothing
/// half-created survives, and the retry after reboot succeeds.
#[test]
fn journal_failure_refuses_consignment() {
    let ajos = scenario_jobs();
    let mem = MemoryBackend::new();
    mem.crash_after_appends(0, 0);
    let mut server = build_server(&mem);
    assert!(
        consign(&mut server, &ajos[1], 0).is_none(),
        "consign must be refused while the journal is down"
    );
    drop(server);

    mem.reboot();
    let mut server = build_server(&mem);
    let report = server.recover(0).expect("recovery");
    assert!(
        report.jobs.is_empty(),
        "refused consign left residue: {report:?}"
    );
    let resp = server.handle_request(DN, Request::List, 0);
    assert_eq!(list_jobs_of(&resp).expect("list").len(), 0);

    let id = consign(&mut server, &ajos[1], 0).expect("retry succeeds");
    let end = drive(&mut server, &mem, &[id], 0);
    assert!(server.is_done(id));
    assert_eq!(fetch(&mut server, id, "result.nc", end).len(), 512);
}

/// WAL health surfaces in the metrics registry: a reboot from a torn
/// journal reports the repair through `store.wal.repairs` exactly once,
/// and subsequent appends show up in the append/byte counters.
#[test]
fn repaired_open_increments_repair_counter() {
    let ajos = scenario_jobs();
    let mem = MemoryBackend::new();
    // Die on the 4th append, leaving 7 torn bytes for the framing to
    // find on reboot (crash point 3 is past both initial consigns).
    mem.crash_after_appends(3, 7);
    let mut server = build_server(&mem);
    let accepted: Vec<JobId> = ajos
        .iter()
        .filter_map(|a| consign(&mut server, a, 0))
        .collect();
    let now = drive(&mut server, &mem, &accepted, 0);
    assert!(mem.is_crashed(), "crash point never fired");
    drop(server);

    mem.reboot();
    let mut server = build_server(&mem);
    let report = server.recover(now).expect("recovery");
    assert!(report.torn_tail, "torn record not detected");

    // Wiring telemetry after the repaired open reports it exactly once;
    // re-wiring must not count the same repair again.
    let telemetry = Telemetry::collecting(7);
    server.set_telemetry(telemetry.clone());
    assert_eq!(telemetry.metrics_snapshot().counter("store.wal.repairs"), 1);
    server.set_telemetry(telemetry.clone());
    assert_eq!(
        telemetry.metrics_snapshot().counter("store.wal.repairs"),
        1,
        "repair double-counted on re-attach"
    );

    // The journal keeps appending after recovery, and the health
    // counters see it.
    let before = telemetry.metrics_snapshot().counter("store.wal.appends");
    let id = consign(&mut server, &ajos[0], now).expect("post-recovery consign");
    drive(&mut server, &mem, &[id], now);
    assert!(server.is_done(id));
    let snap = telemetry.metrics_snapshot();
    assert!(
        snap.counter("store.wal.appends") > before,
        "appends counter stuck at {before}"
    );
    assert!(snap.counter("store.wal.bytes") > 0);
}

/// Live-path duplicate suppression (no crash involved): the same AJO
/// from the same DN re-consigned before, during or after execution maps
/// to the job it already created.
#[test]
fn duplicate_consign_is_deduplicated_live() {
    let ajos = scenario_jobs();
    let mem = MemoryBackend::new();
    let mut server = build_server(&mem);
    let first = consign(&mut server, &ajos[0], 0).expect("consign");
    // Retry straight away (client timeout re-send, §5.3).
    assert_eq!(consign(&mut server, &ajos[0], 0), Some(first));
    let now = drive(&mut server, &mem, &[first], 0);
    // Retry after completion.
    assert_eq!(consign(&mut server, &ajos[0], now), Some(first));
    let resp = server.handle_request(DN, Request::List, now);
    assert_eq!(list_jobs_of(&resp).expect("list").len(), 1);
}
