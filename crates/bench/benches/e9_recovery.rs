//! E9 — the job spool at scale: replay time and compaction payoff
//! against log size, and full server recovery time against the number
//! of in-flight jobs.
//!
//! Recovery after a crash must stay cheap even for long-lived servers,
//! which is what compaction buys. gridbench's `crash_recover` measures
//! one journal size (`store.replay_us_per_event`, `core.recover_us`);
//! this bench shows how those costs grow with the journal.

use unicore::protocol::{Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::{ActionId, JobId};
use unicore_bench::{chain_job, fmt_bytes, BENCH_DN};
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_store::{EventStore, ManifestEntry, MemoryBackend, OwnerRecord, StoreEvent};

/// A representative consign record: a small AJO plus one staged input.
fn consign_event(job: u64) -> StoreEvent {
    StoreEvent::JobConsigned {
        job: JobId(job),
        ajo_der: vec![0x30; 256],
        user: OwnerRecord {
            dn: BENCH_DN.into(),
            login: "bench".into(),
            account_group: "users".into(),
        },
        staged: vec![("input.dat".into(), vec![7u8; 1024])],
        idem_key: job.to_be_bytes().to_vec(),
        parent: None,
        foreign: None,
        at: job,
    }
}

/// A task record; the first task of a job deposits its output file.
fn task_event(job: u64, node: u64) -> StoreEvent {
    StoreEvent::TaskStateChanged {
        job: JobId(job),
        node: ActionId(node),
        outcome_der: vec![0x30; 128],
        files: if node == 1 {
            vec![("out.bin".into(), vec![3u8; 512])]
        } else {
            Vec::new()
        },
        at: job,
    }
}

fn outcome_event(job: u64) -> StoreEvent {
    StoreEvent::OutcomeStored {
        job: JobId(job),
        outcome_der: vec![0x30; 192],
        manifest: vec![ManifestEntry::Stored {
            name: "out.bin".into(),
            len: 512,
        }],
        at: job,
    }
}

/// A log of `jobs` finished jobs (consign + 2 task records + outcome).
fn build_log(jobs: u64) -> MemoryBackend {
    let shared = MemoryBackend::new();
    let mut store = EventStore::open(Box::new(shared.clone())).unwrap();
    for j in 1..=jobs {
        store.append(&consign_event(j)).unwrap();
        store.append(&task_event(j, 1)).unwrap();
        store.append(&task_event(j, 2)).unwrap();
        store.append(&outcome_event(j)).unwrap();
    }
    shared
}

fn recovery_server(mem: &MemoryBackend) -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    njs.attach_stores(vec![
        EventStore::open(Box::new(mem.clone())).expect("open journal")
    ]);
    let mut uudb = Uudb::new();
    uudb.add(BENCH_DN, UserEntry::new("bench", "users"));
    UnicoreServer::new(Gateway::new("FZJ", uudb), njs)
}

fn main() {
    println!("\n=== E9: job spool — replay and recovery against journal size ===\n");

    // Replay time vs log size, and what compaction buys.
    println!("replay time vs log size (finished jobs, 4 records each):");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "jobs", "log bytes", "replay", "compacted to", "replay'"
    );
    for jobs in [100u64, 1_000, 5_000] {
        let shared = build_log(jobs);
        let store = EventStore::open(Box::new(shared.clone())).unwrap();
        let before = store.total_bytes().unwrap();
        let t = std::time::Instant::now();
        let replay = store.replay().unwrap();
        let replay_dt = t.elapsed();
        assert_eq!(replay.events.len() as u64, jobs * 4);
        let mut store = store;
        let stats = store.compact().unwrap();
        let t = std::time::Instant::now();
        let folded = store.replay().unwrap();
        let replay2_dt = t.elapsed();
        // Consign, the file-carrying task record, outcome.
        assert_eq!(folded.events.len() as u64, jobs * 3);
        println!(
            "{jobs:>10} {:>12} {replay_dt:>12.2?} {:>14} {replay2_dt:>12.2?}",
            fmt_bytes(before),
            fmt_bytes(stats.bytes_after),
        );
    }

    // Full server recovery: journal → live job table.
    println!("\nserver recovery time (jobs consigned, then the machine dies):");
    for jobs in [10u64, 100, 500] {
        let mem = MemoryBackend::new();
        let mut server = recovery_server(&mem);
        for i in 0..jobs {
            let mut ajo = chain_job("FZJ", "T3E", 2, 30);
            ajo.name = format!("job-{i}");
            let resp = server.handle_request(BENCH_DN, Request::Consign { ajo }, 0);
            assert!(matches!(resp, Response::Consigned { .. }), "{resp:?}");
        }
        drop(server);
        let mut server = recovery_server(&mem);
        let t = std::time::Instant::now();
        let report = server.recover(0).unwrap();
        let dt = t.elapsed();
        assert_eq!(report.jobs.len() as u64, jobs);
        println!("  {jobs:>5} in-flight jobs recovered in {dt:?}");
    }
    println!();
}
