//! Bulk identity: who owns a file's bytes may change, the bytes may not.
//!
//! A produced file travels oracle → Uspace → Transfer task → chunk sender
//! → receiver partial → Xspace, and sideways through Import, Export and
//! same-Usite deliveries. This suite pins what those paths write — the
//! terminal outcome, the delivered file, both sites' journals, the number
//! and size of the store appends — and that bytes in flight are a
//! snapshot: overwriting or purging the source does not reach them.

use std::sync::Arc;
use unicore::protocol::{Request, Response};
use unicore::server::UnicoreServer;
use unicore_ajo::*;
use unicore_codec::DerCodec;
use unicore_crypto::sha256;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{synthetic_content, ShardedNjs, TranslationTable, INCOMING_PREFIX};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend, StorageBackend};

const DN: &str = "C=DE, O=FZJ, OU=ZAM, CN=bulk";
const LOGIN: &str = "bulk";
const FZJ_DN: &str = "C=DE, O=FZJ, CN=unicore-server";
const DWD_DN: &str = "C=DE, O=DWD, CN=unicore-server";

/// 16 full 64 KiB chunks and a 5-byte tail.
const LEN: usize = (1 << 20) + 5;

/// What [`two_site_transfer`] produced on the commit before file contents
/// became shared: outcome DER, delivered file, FZJ journal, DWD journal
/// (SHA-256 each), then `(append calls, bytes)` of each journal.
const PINNED_DIGESTS: [&str; 4] = [
    "7ce2a8b861c4a85215075d7e865d41d83d5215360f7606be62329afd122475f1",
    "7537fe8562ad86fbbb57094c5f73787e447b1ba76823eebb256b8149bd85db4f",
    "db330a5938d53210b878923a1017270c3ae03fe559e5d27668a84ac68754739c",
    "5d55ec4c1405ba8c7ed5de9a3b48681bc8028eca0b27d8fdbeea3336e9dcaabf",
];
const PINNED_APPENDS: [(u64, u64); 2] = [(5, 1_049_165), (18, 1_050_041)];

/// The oracle's content rule, spelled out independently of the product.
fn expected_content(name: &str, len: usize) -> Vec<u8> {
    let seed = sha256(name.as_bytes());
    (0..len).map(|i| seed[i % 32] ^ (i / 32) as u8).collect()
}

fn attrs() -> UserAttributes {
    UserAttributes::new(DN, "users")
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

fn file_task(id: u64, name: &str, kind: FileKind) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(kind),
        }),
    )
}

fn edge(from: u64, to: u64, files: &[&str]) -> Dependency {
    Dependency {
        from: ActionId(from),
        to: ActionId(to),
        files: files.iter().map(|f| f.to_string()).collect(),
    }
}

fn build_server(
    usite: &str,
    vsites: &[(&str, Architecture)],
    peer_dn: &str,
) -> (UnicoreServer, MemoryBackend) {
    let mut njs = ShardedNjs::new(usite, 1, 1);
    for (vsite, arch) in vsites {
        njs.add_vsite(
            deployment_page(usite, vsite, *arch),
            TranslationTable::for_architecture(*arch),
        );
    }
    let mem = MemoryBackend::new();
    njs.attach_stores(vec![
        EventStore::open(Box::new(mem.clone())).expect("open journal")
    ]);
    let mut uudb = Uudb::new();
    uudb.add(DN, UserEntry::new(LOGIN, "users"));
    let mut server = UnicoreServer::new(Gateway::new(usite, uudb), njs);
    server.add_peer_server(peer_dn);
    (server, mem)
}

fn consign(server: &mut UnicoreServer, ajo: AbstractJob) -> JobId {
    match server.handle_request(DN, Request::Consign { ajo }, 0) {
        Response::Consigned { job } => job,
        other => panic!("consign: {other:?}"),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// SHA-256 over a journal: every file the backend holds, in name order,
/// each framed by its name and length.
fn segment_digest(mem: &MemoryBackend) -> String {
    let mut names = mem.list().expect("list segment");
    names.sort();
    let mut buf = Vec::new();
    for name in names {
        let data = mem.read(&name).expect("read segment file");
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_be_bytes());
        buf.extend_from_slice(&data);
    }
    hex(&sha256(&buf))
}

/// `produce big.dat` at FZJ/T3E, then stream it to DWD/SX4's incoming area.
fn transfer_job() -> AbstractJob {
    let mut job = AbstractJob::new("streamer", VsiteAddress::new("FZJ", "T3E"), attrs());
    job.nodes.push(script(
        1,
        "make",
        &format!("sleep 10\nproduce big.dat {LEN}\n"),
    ));
    job.nodes.push(file_task(
        2,
        "ship",
        FileKind::Transfer {
            uspace_name: "big.dat".into(),
            to_vsite: VsiteAddress::new("DWD", "SX4"),
            dest_name: "big.dat".into(),
        },
    ));
    job.dependencies.push(edge(1, 2, &["big.dat"]));
    job
}

/// What the source site does to the job once two chunks have been
/// acknowledged — while the other fifteen are still to be sent.
#[derive(Clone, Copy, PartialEq)]
enum Meddle {
    Nothing,
    /// Replace `big.dat` in the Uspace with other bytes of the same length.
    Overwrite,
    /// Abort the job, then (once it is done) purge it, Uspace and all.
    AbortAndPurge,
}

struct TwoSites {
    outcome_der: Vec<u8>,
    delivered: Vec<u8>,
    fzj: MemoryBackend,
    dwd: MemoryBackend,
}

/// Runs [`transfer_job`] over two directly wired servers, each request
/// carried to its peer synchronously, until the file is visible at DWD.
fn two_site_transfer(meddle: Meddle) -> TwoSites {
    let (mut fzj, fzj_mem) = build_server("FZJ", &[("T3E", Architecture::CrayT3e)], DWD_DN);
    let (mut dwd, dwd_mem) = build_server("DWD", &[("SX4", Architecture::NecSx4)], FZJ_DN);
    let job = consign(&mut fzj, transfer_job());
    let landed = format!("{INCOMING_PREFIX}big.dat");
    let visible = |dwd: &UnicoreServer| {
        let xspace = dwd.njs().vsite("SX4").unwrap().vspace.xspace_ref();
        xspace.exists(&landed)
    };

    let (mut now, mut chunks, mut meddled, mut purged): (SimTime, u32, bool, bool) =
        (0, 0, false, false);
    while !visible(&dwd) {
        if meddle == Meddle::AbortAndPurge && meddled && !purged && fzj.is_done(job) {
            assert!(
                chunks < 17,
                "the purge must land while chunks are in flight"
            );
            match fzj.handle_request(DN, Request::Purge { job }, now) {
                Response::Purged { .. } => purged = true,
                other => panic!("purge: {other:?}"),
            }
        }
        for req in fzj.step(now) {
            assert_eq!(req.dest, "DWD");
            let is_chunk = matches!(req.request, Request::TransferChunk { .. });
            let resp = dwd.handle_request(FZJ_DN, req.request, now);
            fzj.handle_response(req.corr, resp);
            chunks += u32::from(is_chunk);
            if is_chunk && chunks == 2 && !meddled {
                meddled = true;
                match meddle {
                    Meddle::Nothing => {}
                    Meddle::Overwrite => fzj
                        .njs_mut()
                        .vsite_mut("T3E")
                        .unwrap()
                        .vspace
                        .write_uspace_file(job, "big.dat", vec![0xAA; LEN], LOGIN)
                        .expect("overwrite"),
                    Meddle::AbortAndPurge => {
                        let op = ControlOp::Abort;
                        match fzj.handle_request(DN, Request::Control { job, op }, now) {
                            Response::Service(ServiceOutcome::Control {
                                applied: true, ..
                            }) => {}
                            other => panic!("abort: {other:?}"),
                        }
                    }
                }
            }
        }
        for req in dwd.step(now) {
            let resp = fzj.handle_request(DWD_DN, req.request, now);
            dwd.handle_response(req.corr, resp);
        }
        assert!(now < HOUR, "transfer stalled at t={now}");
        let next = [fzj.next_event_time(), dwd.next_event_time()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(now + SEC);
        now = next.clamp(now + SEC, now + 5 * SEC);
    }
    assert_eq!(chunks, 17, "16 full chunks and the tail, none resent");
    assert!(meddled);
    assert_eq!(purged, meddle == Meddle::AbortAndPurge);
    // One more exchange lets the last ack finish the Transfer node.
    for req in fzj.step(now) {
        let resp = dwd.handle_request(FZJ_DN, req.request, now);
        fzj.handle_response(req.corr, resp);
    }

    let outcome_der = match fzj.njs().outcome(job) {
        Some(outcome) => outcome.to_der(),
        None => Vec::new(),
    };
    let xspace = dwd.njs().vsite("SX4").unwrap().vspace.xspace_ref();
    let delivered = xspace.read_raw(&landed).unwrap().data[..].to_vec();
    TwoSites {
        outcome_der,
        delivered,
        fzj: fzj_mem,
        dwd: dwd_mem,
    }
}

#[test]
fn two_site_transfer_writes_the_pinned_bytes() {
    let run = two_site_transfer(Meddle::Nothing);
    assert!(run.delivered == expected_content("big.dat", LEN));
    let outcome = JobOutcome::from_der(&run.outcome_der).expect("terminal outcome");
    assert_eq!(outcome.status, ActionStatus::Successful);
    let ship = outcome.child(ActionId(2)).expect("transfer node");
    assert_eq!(ship.status(), ActionStatus::Successful);
    let digests = [
        hex(&sha256(&run.outcome_der)),
        hex(&sha256(&run.delivered)),
        segment_digest(&run.fzj),
        segment_digest(&run.dwd),
    ];
    let appends = [&run.fzj, &run.dwd].map(|m| (m.append_count(), m.total_bytes()));
    assert_eq!(
        (digests.each_ref().map(String::as_str), appends),
        (PINNED_DIGESTS, PINNED_APPENDS),
        "outcome, delivered file, journal bytes or append counts moved"
    );
}

/// The bytes a Transfer task read are what arrives, whatever happens to
/// the Uspace file afterwards.
#[test]
fn bytes_in_flight_do_not_see_an_overwrite_or_a_purge() {
    let original = expected_content("big.dat", LEN);
    for meddle in [Meddle::Overwrite, Meddle::AbortAndPurge] {
        let run = two_site_transfer(meddle);
        assert!(run.delivered == original);
        // The receiving journal holds the same chunks either way.
        assert_eq!(segment_digest(&run.dwd), PINNED_DIGESTS[3]);
    }
}

/// One FZJ site with two Vsites (so the bytes also cross the merge
/// phase): a same-Usite Transfer, an Import from the portfolio, Exports
/// to the home and to the sibling Xspace and an Import from the sibling
/// Xspace all read back byte-equal.
#[test]
fn local_copies_read_back_byte_equal() {
    let home = || VsiteAddress::new("FZJ", "T3E");
    let sibling = || VsiteAddress::new("FZJ", "SP2");
    let carried: Arc<[u8]> = expected_content("carried", 70_001).into();
    let archived = expected_content("archived", 3 * 65_536);
    let vsites = [
        ("T3E", Architecture::CrayT3e),
        ("SP2", Architecture::IbmSp2),
    ];
    let (mut fzj, _) = build_server("FZJ", &vsites, DWD_DN);
    fzj.njs_mut()
        .vsite_mut("SP2")
        .unwrap()
        .vspace
        .xspace()
        .write("/archive/old.dat", archived.clone(), LOGIN)
        .unwrap();

    let mut job = AbstractJob::new("copies", home(), attrs());
    job.portfolio.push(PortfolioFile {
        name: "carried.dat".into(),
        data: carried.clone(),
    });
    job.nodes
        .push(script(1, "make", "sleep 5\nproduce made.dat 200003\n"));
    job.nodes.push(file_task(
        2,
        "to sibling incoming",
        FileKind::Transfer {
            uspace_name: "made.dat".into(),
            to_vsite: sibling(),
            dest_name: "made.dat".into(),
        },
    ));
    job.nodes.push(file_task(
        3,
        "from workstation",
        FileKind::Import {
            source: DataLocation::Workstation {
                path: "carried.dat".into(),
            },
            uspace_name: "carried.dat".into(),
        },
    ));
    job.nodes.push(file_task(
        4,
        "to home xspace",
        FileKind::Export {
            uspace_name: "made.dat".into(),
            destination: DataLocation::Xspace {
                vsite: home(),
                path: "/results/made.dat".into(),
            },
        },
    ));
    job.nodes.push(file_task(
        5,
        "to sibling xspace",
        FileKind::Export {
            uspace_name: "carried.dat".into(),
            destination: DataLocation::Xspace {
                vsite: sibling(),
                path: "/results/carried.dat".into(),
            },
        },
    ));
    job.nodes.push(file_task(
        6,
        "from sibling xspace",
        FileKind::Import {
            source: DataLocation::Xspace {
                vsite: sibling(),
                path: "/archive/old.dat".into(),
            },
            uspace_name: "old.dat".into(),
        },
    ));
    job.dependencies.push(edge(1, 2, &["made.dat"]));
    job.dependencies.push(edge(1, 4, &["made.dat"]));
    job.dependencies.push(edge(3, 5, &["carried.dat"]));
    let id = consign(&mut fzj, job);

    let mut now: SimTime = 0;
    while !fzj.is_done(id) {
        assert!(fzj.step(now).is_empty(), "nothing leaves the Usite");
        assert!(now < HOUR, "job stalled at t={now}");
        now = fzj
            .next_event_time()
            .unwrap_or(now + SEC)
            .clamp(now + SEC, now + 5 * SEC);
    }
    let outcome = fzj.njs().outcome(id).expect("terminal");
    assert_eq!(outcome.status, ActionStatus::Successful, "{outcome:?}");

    let made = expected_content("made.dat", 200_003);
    let njs = fzj.njs();
    let uspace = |name: &str| {
        let fs = njs.vsite("T3E").unwrap().vspace.uspace(id).unwrap();
        fs.read(name, LOGIN).unwrap().data[..].to_vec()
    };
    let xspace = |vsite: &str, path: &str| {
        let fs = njs.vsite(vsite).unwrap().vspace.xspace_ref();
        fs.read_raw(path).unwrap().data[..].to_vec()
    };
    assert!(uspace("made.dat") == made);
    assert!(uspace("carried.dat") == carried[..]);
    assert!(uspace("old.dat") == archived);
    let landed = format!("{INCOMING_PREFIX}made.dat");
    assert!(xspace("SP2", &landed) == made);
    assert!(xspace("T3E", "/results/made.dat") == made);
    assert!(xspace("SP2", "/results/carried.dat") == carried[..]);
    // The source of the sibling import is still what it was.
    assert!(xspace("SP2", "/archive/old.dat") == archived);
}

/// `synthetic_content` is `seed[i % 32] ^ (i / 32) as u8` with `seed` the
/// SHA-256 of the name — across row boundaries, the `u8` wrap of the row
/// number at 8 KiB, and a length that is not a whole number of rows.
#[test]
fn synthetic_content_is_the_byte_rule() {
    let lengths = (0..=200).chain([65_535, 65_536, 65_537, (4 << 20) + 5]);
    for len in lengths {
        for name in ["big.dat", "a", "", "räksmörgås.nc", "x/y/z.o"] {
            let got = synthetic_content(name, len);
            assert_eq!(got.len(), len, "{name:?} {len}");
            assert!(got[..] == expected_content(name, len)[..], "{name:?} {len}");
        }
    }
}
