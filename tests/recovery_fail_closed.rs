//! Recovery reads the whole journal before it rebuilds anything.
//!
//! A record whose frame checks out but whose DER does not decode, in a
//! segment other than the newest, is corruption: `recover` must refuse
//! it before the first record is applied, so the server is left exactly
//! as a fresh one — not holding the jobs that happened to come before
//! the damage. A torn *newest* segment, by contrast, is crash residue:
//! its verified prefix recovers and the report says the tail was torn.

use unicore::protocol::{Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::{AbstractJob, JobId, ResourceRequest, UserAttributes, VsiteAddress};
use unicore_client::JobPreparationAgent;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{NjsError, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{SimTime, SEC};
use unicore_store::{encode_record, EventStore, MemoryBackend, StorageBackend, StoreError};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=phoenix";

/// Segments rotate at this many bytes, so every consign starts a new
/// one and the journal has older segments to damage.
const ROTATE_AT: usize = 256;

/// A fresh FZJ server journalling to (a clone of) `mem`.
fn build_server(mem: &MemoryBackend) -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let store = EventStore::open_with_rotation(Box::new(mem.clone()), ROTATE_AT);
    njs.attach_stores(vec![store.expect("open journal")]);
    let mut uudb = Uudb::new();
    uudb.add(DN, UserEntry::new("phoenix", "users"));
    UnicoreServer::new(Gateway::new("FZJ", uudb), njs)
}

fn job(name: &str) -> AbstractJob {
    let jpa = JobPreparationAgent::new(UserAttributes::new(DN, "users"), ResourceDirectory::new());
    let mut ajo = jpa.new_job(name, VsiteAddress::new("FZJ", "T3E"));
    ajo.script_task(
        "make",
        "sleep 30\nproduce out.bin 64\n",
        ResourceRequest::minimal().with_run_time(600),
    );
    ajo.build().unwrap()
}

/// Three jobs consigned and stepped for a while, journalled over several
/// segments; returns the sim time reached.
fn journal_three_jobs(mem: &MemoryBackend) -> (Vec<JobId>, SimTime) {
    let mut server = build_server(mem);
    let mut ids = Vec::new();
    let mut now = 0;
    for name in ["one", "two", "three"] {
        match server.handle_request(DN, Request::Consign { ajo: job(name) }, now) {
            Response::Consigned { job } => ids.push(job),
            other => panic!("unexpected consign response: {other:?}"),
        }
        for _ in 0..20 {
            server.step(now);
            now += SEC;
        }
    }
    (ids, now)
}

/// Log segment names, oldest first.
fn segments(mem: &MemoryBackend) -> Vec<String> {
    let mut names: Vec<String> = mem
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    names.sort();
    names
}

#[test]
fn an_undecodable_record_in_an_older_segment_fails_recovery_before_anything_is_applied() {
    let mem = MemoryBackend::new();
    let (_, now) = journal_three_jobs(&mem);
    let segs = segments(&mem);
    assert!(segs.len() > 2, "want older segments, got {segs:?}");
    // An empty SEQUENCE: a frame whose CRC holds over DER that is no
    // store event. The segment's first record — a consign — comes
    // before it, so a reader that applied as it decoded would already
    // hold that job.
    mem.clone()
        .append(&segs[0], &encode_record(&[0x30, 0x00]))
        .unwrap();

    let fresh = build_server(&MemoryBackend::new());
    let mut server = build_server(&mem);
    match server.recover(now) {
        Err(NjsError::Store(StoreError::Codec(_))) => {}
        other => panic!("expected a store codec error, got {other:?}"),
    }
    assert_eq!(
        server.njs().durable_state(),
        fresh.njs().durable_state(),
        "a failed recovery applied records before the damaged one"
    );
}

#[test]
fn a_torn_newest_segment_recovers_its_verified_prefix() {
    let mem = MemoryBackend::new();
    let (ids, now) = journal_three_jobs(&mem);
    let mut intact = build_server(&mem);
    let expected = intact.recover(now).expect("recovery");
    assert!(!expected.torn_tail);
    assert_eq!(expected.jobs, ids);

    // The store is opened (and its open-time repair done) before the
    // tail is torn, so it is recovery's own read that meets the damage.
    let mut server = build_server(&mem);
    let newest = segments(&mem).pop().unwrap();
    let torn = encode_record(&[0x30, 0x00]);
    mem.clone().append(&newest, &torn[..5]).unwrap();
    let report = server.recover(now).expect("a torn tail is not corruption");
    assert!(report.torn_tail, "torn tail not reported");
    assert_eq!(report.jobs, ids);
    assert_eq!(server.njs().durable_state(), intact.njs().durable_state());
}
