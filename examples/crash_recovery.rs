//! Crash recovery: the server dies mid-job and comes back with nothing
//! lost.
//!
//! The NJS journals every job-state transition to a write-ahead spool
//! (`unicore-store`) before acting on it. This demo consigns two jobs,
//! pulls the plug while one is still in the batch queue, reboots the
//! machine (same disk, fresh process), replays the journal, and lets
//! the survivors finish — while the user's retried Consign is quietly
//! deduplicated instead of running the job twice.
//!
//! Run with: `cargo run -p unicore-examples --bin crash_recovery`

use unicore::protocol::{outcome_of, Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::{DetailLevel, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::JobPreparationAgent;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{format_time, SimTime, SEC};
use unicore_store::{EventStore, MemoryBackend};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=Alice Example";

/// Builds the FZJ server against (a handle to) the persistent journal.
/// Rebuilding on the same backend is "rebooting with the disk intact".
fn boot_server(disk: &MemoryBackend) -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs.attach_stores(vec![
        EventStore::open(Box::new(disk.clone())).expect("journal opens")
    ]);
    let mut uudb = Uudb::new();
    uudb.add(DN, UserEntry::new("alice1", "users"));
    UnicoreServer::new(Gateway::new("FZJ", uudb), njs)
}

fn main() {
    let disk = MemoryBackend::new();
    let mut server = boot_server(&disk);

    // ---- Two jobs: a quick one and a longer pipeline --------------------
    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new());
    let mut quick = jpa.new_job("quick", VsiteAddress::new("FZJ", "T3E"));
    quick.script_task(
        "summarise",
        "sleep 20\nproduce summary.txt 256\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let quick = quick.build().unwrap();
    let mut long = jpa.new_job("pipeline", VsiteAddress::new("FZJ", "T3E"));
    let make = long.script_task(
        "make fields",
        "sleep 120\nproduce fields.grb 8192\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    let check = long.script_task(
        "verify fields",
        "sleep 30\necho verified\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    long.after_with_files(make, check, vec!["fields.grb".into()]);
    let long = long.build().unwrap();

    let consign = |server: &mut UnicoreServer, ajo, now| match server.handle_request(
        DN,
        Request::Consign { ajo },
        now,
    ) {
        Response::Consigned { job } => job,
        other => panic!("consign failed: {other:?}"),
    };
    let quick_id = consign(&mut server, quick, 0);
    let long_id = consign(&mut server, long.clone(), 0);
    println!("consigned {quick_id} (quick) and {long_id} (pipeline); both journaled");

    // ---- Run until the quick job is done, the pipeline still going ------
    let mut now: SimTime = 0;
    while !server.is_done(quick_id) {
        now = server.next_event_time().unwrap_or(now + SEC);
        server.step(now);
    }
    println!(
        "t={}: {quick_id} finished, {long_id} still in the batch queue",
        format_time(now)
    );

    // ---- The machine dies -----------------------------------------------
    drop(server);
    println!(
        "t={}: power failure — server process gone",
        format_time(now)
    );

    // ---- Reboot: same disk, fresh process -------------------------------
    let mut server = boot_server(&disk);
    let report = server.recover(now).expect("journal replays");
    println!(
        "rebooted: recovered {} job(s) from the journal{}",
        report.jobs.len(),
        if report.torn_tail {
            " (torn tail repaired)"
        } else {
            ""
        },
    );

    // The user never saw the pipeline finish, so their client re-sends
    // the Consign. The journaled idempotency key maps it to the same
    // job — it is not submitted to batch a second time.
    let retry = consign(&mut server, long, now);
    assert_eq!(retry, long_id);
    println!("client retried the pipeline Consign → same {long_id}, no duplicate");

    // The finished job's outcome survived too.
    let data = match server.handle_request(
        DN,
        Request::FetchFile {
            job: quick_id,
            name: "summary.txt".into(),
        },
        now,
    ) {
        Response::FileData(d) => d,
        other => panic!("fetch failed: {other:?}"),
    };
    println!(
        "{quick_id}'s output survived the crash: summary.txt, {} bytes",
        data.len()
    );

    // ---- The pipeline resumes and completes -----------------------------
    while !server.is_done(long_id) {
        now = server.next_event_time().unwrap_or(now + SEC);
        server.step(now);
    }
    let resp = server.handle_request(
        DN,
        Request::Poll {
            job: long_id,
            detail: DetailLevel::Tasks,
        },
        now,
    );
    let outcome = outcome_of(&resp).expect("outcome");
    assert!(outcome.status.is_success());
    println!(
        "t={}: pipeline finished after the crash — status {:?}",
        format_time(now),
        outcome.status
    );
}
