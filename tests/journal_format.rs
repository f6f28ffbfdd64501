//! Journal format: `OutcomeStored` manifests go by reference, journals
//! written before that still open, and every payload byte stays
//! recoverable from exactly the records that carry it.
//!
//! * a journal written by commit 9b3c799 (inline manifests; a snapshot
//!   and a live segment, checked in below) recovers to the Uspaces and
//!   outcomes that commit reported, stays writable, and compacts;
//! * compaction never changes what replay rebuilds for finished jobs
//!   whose files were staged, overwritten or imported across shards;
//! * a crash at every journal append across a file-carrying job recovers
//!   to the same final Uspace;
//! * a by-reference entry whose file is missing or has another length is
//!   an error at recovery, never a silently empty file.

use unicore_ajo::*;
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_gateway::MappedUser;
use unicore_njs::{NjsError, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{
    EventStore, ManifestEntry, MemoryBackend, OwnerRecord, StorageBackend, StoreError, StoreEvent,
};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=v1";

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "v1user".into(),
        account_group: "zam".into(),
    }
}

fn t3e() -> VsiteAddress {
    VsiteAddress::new("FZJ", "T3E")
}

/// FZJ with a T3E and an SP2 Vsite over one journal per shard (T3E on
/// shard 0; SP2 on shard 1 when there are two). Rebuilding it on the same
/// backends is a reboot with the disks intact.
fn site(mems: &[MemoryBackend]) -> ShardedNjs {
    let mut njs = ShardedNjs::new("FZJ", mems.len(), mems.len());
    for (vsite, arch) in [
        ("T3E", Architecture::CrayT3e),
        ("SP2", Architecture::IbmSp2),
    ] {
        njs.add_vsite(
            deployment_page("FZJ", vsite, arch),
            TranslationTable::for_architecture(arch),
        );
    }
    njs.attach_stores(
        mems.iter()
            .map(|m| EventStore::open(Box::new(m.clone())).expect("open journal"))
            .collect(),
    );
    njs
}

fn script(id: u64, name: &str, body: &str) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: body.into(),
            }),
        }),
    )
}

/// A peer-consigned job: `in.dat` arrives staged, task 1 deposits
/// `out.bin`, task 2 overwrites the staged `in.dat`.
fn staged_job(name: &str) -> AbstractJob {
    let mut job = AbstractJob::new(name, t3e(), UserAttributes::new(DN, "zam"));
    job.portfolio.push(PortfolioFile {
        name: "in.dat".into(),
        data: vec![0x5a; 24].into(),
    });
    job.nodes
        .push(script(1, "make", "sleep 5\nproduce out.bin 40\n"));
    job.nodes
        .push(script(2, "redo", "sleep 5\nproduce in.dat 16\n"));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    job
}

fn run_until_done(njs: &mut ShardedNjs, jobs: &[JobId], mut now: SimTime) -> SimTime {
    njs.step(now);
    while !jobs.iter().all(|&j| njs.is_done(j)) {
        assert!(now < HOUR, "jobs {jobs:?} stalled");
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
        njs.step(now);
    }
    now
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// What a client can observe of a finished job: every Uspace file with
/// its contents, and the outcome DER.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Observed {
    files: Vec<(String, Vec<u8>)>,
    outcome_der: Vec<u8>,
}

impl Observed {
    /// The digests the fixture generator printed: SHA-256 over each file
    /// framed by name and length, and over the outcome DER.
    fn digests(&self) -> (String, String) {
        let mut buf = Vec::new();
        for (name, data) in &self.files {
            buf.extend_from_slice(name.as_bytes());
            buf.extend_from_slice(&(data.len() as u64).to_be_bytes());
            buf.extend_from_slice(data);
        }
        (hex(&sha256(&buf)), hex(&sha256(&self.outcome_der)))
    }
}

fn observe(njs: &ShardedNjs, job: JobId) -> Observed {
    assert!(njs.is_done(job), "job {job} not restored as finished");
    let files = njs
        .list_uspace_files(job, DN)
        .expect("list uspace")
        .into_iter()
        .map(|name| {
            let data = njs.fetch_uspace_file(job, &name, DN).expect("fetch");
            (name, data)
        })
        .collect();
    Observed {
        files,
        outcome_der: njs.outcome(job).expect("outcome").to_der(),
    }
}

// ---- A journal written before manifests went by reference ---------------

/// `snap-00000001.der` as commit 9b3c799 wrote it: `staged_job("v1-a")`
/// run to completion, then `compact()` — `JobConsigned` plus an
/// `OutcomeStored` whose manifest carries both files inline (that
/// commit's compaction dropped the `TaskStateChanged` records).
const V1_SNAPSHOT: &str = concat!(
    "0000012bc3697041a0820127308201230201010481c73081c40c0476312d61300a0c03465a4a0c0354334530",
    "210c1a433d44452c204f3d465a4a2c204f553d5a414d2c20434e3d76310c037a616d307f303e020101a03930",
    "370c046d616b65301002010102020258020140020100020110a11d0c1b736c65657020350a70726f64756365",
    "206f75742e62696e2034300a303d020102a03830360c047265646f3010020101020202580201400201000201",
    "10a11c0c1a736c65657020350a70726f6475636520696e2e6461742031360a300a3008020101020102300030",
    "0030290c1a433d44452c204f3d465a4a2c204f553d5a414d2c20434e3d76310c067631757365720c037a616d",
    "302430220c06696e2e64617404185a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a040002010000",
    "00009fe7d30991a3819c308199020101043b30390a010530343018020101a01330110a010504000400020100",
    "0c00a0030201003018020102a01330110a0105040004000201000c00a0030201003051301a0c06696e2e6461",
    "740410e7492eac765991dd24d4af1af485012430330c076f75742e62696e0428e463943351000f2ed11338eb",
    "8b00f37e691116bf4ff8a772abd3559fa43a79bee562953250010e2f020400b71b00"
);

/// `wal-00000001.seg` from the same run: `staged_job("v1-b")` consigned
/// after the compaction and run to completion — six records, the last an
/// `OutcomeStored` with an inline manifest.
const V1_SEGMENT: &str = concat!(
    "0000012ee8f1c84da082012a308201260201020481c73081c40c0476312d62300a0c03465a4a0c0354334530",
    "210c1a433d44452c204f3d465a4a2c204f553d5a414d2c20434e3d76310c037a616d307f303e020101a03930",
    "370c046d616b65301002010102020258020140020100020110a11d0c1b736c65657020350a70726f64756365",
    "206f75742e62696e2034300a303d020102a03830360c047265646f3010020101020202580201400201000201",
    "10a11c0c1a736c65657020350a70726f6475636520696e2e6461742031360a300a3008020101020102300030",
    "0030290c1a433d44452c204f3d465a4a2c204f553d5a414d2c20434e3d76310c067631757365720c037a616d",
    "302430220c06696e2e64617404185a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a0400020400c6",
    "5d400000001d697c1397a11b30190201020201010c0b5433453a65787072657373020400c65d400000005e0b",
    "4d3003a25c305a0201020201010415a01330110a0105040004000201000c00a003020100303530330c076f75",
    "742e62696e0428e463943351000f2ed11338eb8b00f37e691116bf4ff8a772abd3559fa43a79bee562953250",
    "010e2f02040121eac00000001d94f84442a11b30190201020201020c0b5433453a6578707265737302040121",
    "eac00000004530129352a24330410201020201020415a01330110a0105040004000201000c00a00302010030",
    "1c301a0c06696e2e6461740410e7492eac765991dd24d4af1af48501240204017d78400000009f8a7262c6a3",
    "819c308199020102043b30390a010530343018020101a01330110a0105040004000201000c00a00302010030",
    "18020102a01330110a0105040004000201000c00a0030201003051301a0c06696e2e6461740410e7492eac76",
    "5991dd24d4af1af485012430330c076f75742e62696e0428e463943351000f2ed11338eb8b00f37e691116bf",
    "4ff8a772abd3559fa43a79bee562953250010e2f0204017d7840"
);

/// Uspace and outcome digests of either job as 9b3c799 reported them
/// live, before the journal was ever replayed.
const V1_USPACE_SHA: &str = "1a1b573ac5365b1f8003cbc4c85012eaab301f909e8ba84cacfd3f4f6c30e18e";
const V1_OUTCOME_SHA: &str = "23e66d411f54290f5e79898fe9e6a046515ac190320fcf971943bd5f8996a285";

fn v1_disk() -> MemoryBackend {
    let mut mem = MemoryBackend::new();
    mem.write_atomic("snap-00000001.der", &unhex(V1_SNAPSHOT))
        .unwrap();
    mem.write_atomic("wal-00000001.seg", &unhex(V1_SEGMENT))
        .unwrap();
    mem
}

#[test]
fn v1_journal_recovers_stays_writable_and_compacts() {
    let mem = v1_disk();
    let manifests_inline = |mem: &MemoryBackend| -> Vec<bool> {
        let store = EventStore::open(Box::new(mem.clone())).unwrap();
        let events = store.replay().unwrap().events;
        events
            .iter()
            .filter_map(|ev| match ev {
                StoreEvent::OutcomeStored { manifest, .. } => Some(
                    manifest
                        .iter()
                        .all(|e| matches!(e, ManifestEntry::Inline { .. })),
                ),
                _ => None,
            })
            .collect()
    };
    assert_eq!(
        manifests_inline(&mem),
        [true, true],
        "the fixture holds two inline manifests"
    );

    // Recover: both jobs finished, files and outcomes as they were.
    let mut njs = site(std::slice::from_ref(&mem));
    let report = njs.recover(30 * SEC).expect("v1 journal recovers");
    assert_eq!(report.jobs, [JobId(1), JobId(2)]);
    assert!(!report.torn_tail);
    for job in report.jobs {
        let seen = observe(&njs, job);
        assert_eq!(
            seen.digests(),
            (V1_USPACE_SHA.to_owned(), V1_OUTCOME_SHA.to_owned()),
            "job {job}"
        );
        assert_eq!(seen.files[0].0, "in.dat");
        assert_eq!(
            seen.files[0].1.len(),
            16,
            "the overwrite, not the staged 24"
        );
        assert_eq!(seen.files[1].1.len(), 40);
    }
    let before: Vec<Observed> = [JobId(1), JobId(2)].map(|j| observe(&njs, j)).to_vec();

    // Read-write: a new job appends by-reference records to the segment
    // the old code left open, and finishes.
    let c = njs
        .consign_from_peer(staged_job("v2-c"), user(), 30 * SEC)
        .expect("consign on a v1 journal");
    assert_eq!(c, JobId(3));
    let now = run_until_done(&mut njs, &[c], 30 * SEC);
    assert_eq!(
        observe(&njs, c).files,
        before[0].files,
        "same job, same files"
    );
    assert_eq!(manifests_inline(&mem), [true, true, false]);

    // Compact the mixed journal, reboot, recover: nothing moved.
    let stats = njs.store_mut().unwrap().compact().expect("compact");
    // a: consign + outcome (its task records were gone already); b and
    // c: consign + two file-carrying task records + outcome.
    assert_eq!(stats.events_after, 2 + 4 + 4);
    drop(njs);
    let mut njs = site(std::slice::from_ref(&mem));
    njs.recover(now).expect("compacted v1 journal recovers");
    let after: Vec<Observed> = [JobId(1), JobId(2)].map(|j| observe(&njs, j)).to_vec();
    assert_eq!(after, before);
    assert_eq!(observe(&njs, c).files, before[0].files);
    assert_eq!(manifests_inline(&mem), [true, true, false]);
}

// ---- compact() then replay == replay ---------------------------------------

/// A T3E job whose first task imports from the SP2 Vsite's Xspace — a
/// read on the other shard — and whose second overwrites the import.
fn cross_shard_import_job() -> AbstractJob {
    let mut job = AbstractJob::new("import", t3e(), UserAttributes::new(DN, "zam"));
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "fetch".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Import {
                source: DataLocation::Xspace {
                    vsite: VsiteAddress::new("FZJ", "SP2"),
                    path: "/data/input.dat".into(),
                },
                uspace_name: "input.dat".into(),
            }),
        }),
    ));
    job.nodes.push(script(
        2,
        "use",
        "sleep 5\nproduce result.nc 300\nproduce input.dat 20\n",
    ));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    job
}

#[test]
fn compaction_does_not_change_what_replay_rebuilds() {
    let mems = [MemoryBackend::new(), MemoryBackend::new()];
    let mut njs = site(&mems);
    njs.vsite_mut("SP2")
        .unwrap()
        .vspace
        .xspace()
        .write("/data/input.dat", vec![7u8; 1536], "v1user")
        .unwrap();
    let mut sp2_job = staged_job("staged-on-sp2");
    sp2_job.vsite = VsiteAddress::new("FZJ", "SP2");
    let jobs = [
        njs.consign_from_peer(staged_job("staged"), user(), 0)
            .unwrap(),
        njs.consign(cross_shard_import_job(), user(), 0).unwrap(),
        njs.consign_from_peer(sp2_job, user(), 0).unwrap(),
    ];
    let now = run_until_done(&mut njs, &jobs, 0);
    let observe_all = |njs: &ShardedNjs| jobs.map(|j| observe(njs, j));
    let live = observe_all(&njs);
    // The scenario holds what it claims to: an overwritten staged file,
    // an overwritten cross-shard import, a plain deposit.
    assert_eq!(
        live[0].files[0],
        ("in.dat".to_owned(), live[2].files[0].1.clone())
    );
    assert_eq!(live[0].files[0].1.len(), 16);
    let names: Vec<&str> = live[1].files.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["input.dat", "result.nc"]);
    assert_eq!(
        live[1].files[0].1.len(),
        20,
        "the overwrite, not the 1536 imported"
    );
    drop(njs);

    // Replay of the full history.
    let mut njs = site(&mems);
    njs.recover(now).expect("recover full history");
    assert_eq!(observe_all(&njs), live);

    // Compact every shard (twice: a snapshot must fold like a segment),
    // reboot, replay the snapshots.
    for round in 0..2 {
        for shard in 0..2 {
            let stats = njs.shard_store_mut(shard).unwrap().compact().unwrap();
            assert!(stats.events_after <= stats.events_before, "round {round}");
        }
        drop(njs);
        njs = site(&mems);
        njs.recover(now).expect("recover compacted history");
        assert_eq!(observe_all(&njs), live, "round {round}");
    }
}

// ---- Kill at every append ---------------------------------------------------

/// The staged-and-overwritten job, with the machine dying at every
/// journal append in turn (and a varying torn tail): the rebooted site
/// recovers, finishes the job, and ends with the Uspace the uncrashed
/// run had — and a second reboot, now replaying the by-reference
/// `OutcomeStored`, agrees.
#[test]
fn kill_at_every_append_across_a_file_carrying_job() {
    let mem = MemoryBackend::new();
    let mut njs = site(std::slice::from_ref(&mem));
    let id = njs
        .consign_from_peer(staged_job("victim"), user(), 0)
        .unwrap();
    run_until_done(&mut njs, &[id], 0);
    let baseline = observe(&njs, id);
    let total = mem.append_count();
    assert!(total >= 4, "consign, two task commits, outcome: {total}");
    drop(njs);

    for k in 0..=total {
        let torn = (k as usize * 5) % 11;
        let mem = MemoryBackend::new();
        mem.crash_after_appends(k, torn);
        let mut njs = site(std::slice::from_ref(&mem));
        let consigned = njs.consign_from_peer(staged_job("victim"), user(), 0).ok();
        let mut now: SimTime = 0;
        if let Some(id) = consigned {
            // Run until the journal dies under it (or, at k == total,
            // to the end: the crash then hits an idle machine).
            njs.step(now);
            while !mem.is_crashed() && !njs.is_done(id) {
                now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
                njs.step(now);
            }
        }
        drop(njs);

        mem.reboot();
        let mut njs = site(std::slice::from_ref(&mem));
        let report = njs.recover(now).expect("recovery");
        // Write-ahead: an accepted consign is never lost; a refused one
        // left nothing behind and is simply sent again.
        let id = match consigned {
            Some(id) => {
                assert_eq!(report.jobs, [id], "crash point {k}");
                id
            }
            None => {
                assert!(report.jobs.is_empty(), "crash point {k}");
                njs.consign_from_peer(staged_job("victim"), user(), now)
                    .expect("retry after reboot")
            }
        };
        let end = run_until_done(&mut njs, &[id], now);
        assert_eq!(observe(&njs, id).files, baseline.files, "crash point {k}");
        assert!(
            njs.outcome(id).unwrap().status.is_success(),
            "crash point {k}"
        );
        let finished = observe(&njs, id);
        drop(njs);

        // Reboot once more: now the whole job comes back from its
        // records, the manifest checked against the rebuilt Uspace.
        let mut njs = site(std::slice::from_ref(&mem));
        njs.recover(end).expect("second recovery");
        assert_eq!(
            observe(&njs, id),
            finished,
            "crash point {k}, second reboot"
        );
    }
}

// ---- A manifest that refers to bytes the journal does not hold --------------

fn owner_record() -> OwnerRecord {
    OwnerRecord {
        dn: DN.into(),
        login: "v1user".into(),
        account_group: "zam".into(),
    }
}

/// Recovers a hand-written journal for one finished job whose single
/// task record carries `files` and whose manifest is `manifest`.
fn recover_with(
    files: Vec<(String, Vec<u8>)>,
    manifest: Vec<ManifestEntry>,
) -> Result<ShardedNjs, NjsError> {
    let mut plain = staged_job("hand-written");
    plain.portfolio.clear();
    let mem = MemoryBackend::new();
    let mut store = EventStore::open(Box::new(mem.clone())).unwrap();
    store
        .append_batch(&[
            StoreEvent::JobConsigned {
                job: JobId(1),
                ajo_der: plain.to_der(),
                user: owner_record(),
                staged: vec![],
                idem_key: vec![],
                parent: None,
                foreign: None,
                at: 0,
            },
            StoreEvent::TaskStateChanged {
                job: JobId(1),
                node: ActionId(1),
                outcome_der: OutcomeNode::Task(TaskOutcome::pending()).to_der(),
                files,
                at: 1,
            },
            StoreEvent::OutcomeStored {
                job: JobId(1),
                outcome_der: JobOutcome {
                    status: ActionStatus::Successful,
                    children: Vec::new(),
                }
                .to_der(),
                manifest,
                at: 2,
            },
        ])
        .unwrap();
    drop(store);
    let mut njs = site(std::slice::from_ref(&mem));
    njs.recover(3).map(|_| njs)
}

fn stored(name: &str, len: u64) -> ManifestEntry {
    ManifestEntry::Stored {
        name: name.into(),
        len,
    }
}

#[test]
fn a_manifest_entry_without_its_bytes_fails_recovery() {
    let out = || vec![("out.bin".to_owned(), vec![1u8, 2, 3, 4])];

    // The well-formed journal recovers and serves the file.
    let njs = recover_with(out(), vec![stored("out.bin", 4)]).expect("consistent journal");
    assert_eq!(
        njs.fetch_uspace_file(JobId(1), "out.bin", DN).unwrap(),
        [1, 2, 3, 4]
    );

    // The record that carried the bytes is gone (what compaction did
    // before it kept file-carrying task records).
    match recover_with(vec![], vec![stored("out.bin", 4)]) {
        Err(NjsError::Store(StoreError::ManifestMismatch {
            job: JobId(1),
            name,
            expected: 4,
            found: None,
        })) => assert_eq!(name, "out.bin"),
        other => panic!("missing file: {:?}", other.map(|_| "recovered")),
    }

    // The file is there with another length.
    match recover_with(out(), vec![stored("out.bin", 3)]) {
        Err(NjsError::Store(StoreError::ManifestMismatch {
            expected: 3,
            found: Some(4),
            ..
        })) => {}
        other => panic!("wrong length: {:?}", other.map(|_| "recovered")),
    }

    // An empty file is a file: its absence is caught too.
    match recover_with(out(), vec![stored("out.bin", 4), stored("empty", 0)]) {
        Err(NjsError::Store(StoreError::ManifestMismatch {
            expected: 0,
            found: None,
            ..
        })) => {}
        other => panic!("missing empty file: {:?}", other.map(|_| "recovered")),
    }

    // The same bytes inline (a v1 record) need no earlier record.
    let njs = recover_with(
        vec![],
        vec![ManifestEntry::Inline {
            name: "out.bin".into(),
            data: vec![1, 2, 3, 4],
        }],
    )
    .expect("inline manifest is self-contained");
    assert_eq!(
        njs.fetch_uspace_file(JobId(1), "out.bin", DN).unwrap(),
        [1, 2, 3, 4]
    );
}
