//! Property tests for the WAL: record framing round-trips, corruption
//! and truncation are always detected, durable prefixes survive
//! crashes exactly, and compaction preserves the replayed state.

use proptest::prelude::*;
use std::collections::BTreeMap;
use unicore_ajo::{ActionId, JobId};
use unicore_codec::DerCodec;
use unicore_store::{
    decode_record, encode_record, Decoded, EventStore, ForeignOrigin, ManifestEntry, MemoryBackend,
    OwnerRecord, StoreEvent, RECORD_HEADER_LEN,
};

fn bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max)
}

/// Ids and timestamps: the DER codec carries them as INTEGER, so stay
/// within the non-negative i64 range real counters live in.
fn id() -> impl Strategy<Value = u64> {
    0u64..(1 << 62)
}

/// Named files with their contents, as carried by consign and task events.
type Files = Vec<(String, Vec<u8>)>;

fn files() -> impl Strategy<Value = Files> {
    proptest::collection::vec(("[a-z0-9._-]{1,12}", bytes(24)), 0..4)
}

/// An outcome manifest in either spelling: by reference (what is written
/// today) or inline (what older journals hold).
fn manifest() -> impl Strategy<Value = Vec<ManifestEntry>> {
    let entry = prop_oneof![
        ("[a-z0-9._-]{1,12}", id()).prop_map(|(name, len)| ManifestEntry::Stored { name, len }),
        ("[a-z0-9._-]{1,12}", bytes(24))
            .prop_map(|(name, data)| ManifestEntry::Inline { name, data }),
    ];
    proptest::collection::vec(entry, 0..4)
}

fn owner() -> impl Strategy<Value = OwnerRecord> {
    ("[A-Za-z ,=]{0,24}", "[a-z]{1,8}", "[a-z]{1,8}").prop_map(|(dn, login, account_group)| {
        OwnerRecord {
            dn,
            login,
            account_group,
        }
    })
}

fn foreign() -> impl Strategy<Value = ForeignOrigin> {
    (
        "[A-Z]{1,6}",
        id(),
        id(),
        proptest::collection::vec("[a-z0-9.]{1,10}", 0..3),
    )
        .prop_map(|(origin, parent, node, return_files)| ForeignOrigin {
            origin,
            parent: JobId(parent),
            node: ActionId(node),
            return_files,
        })
}

/// Any single event with arbitrary field values (DER round-trip).
fn event() -> impl Strategy<Value = StoreEvent> {
    prop_oneof![
        (
            id(),
            bytes(40),
            owner(),
            files(),
            bytes(32),
            proptest::option::of((id(), id())),
            proptest::option::of(foreign()),
            id(),
        )
            .prop_map(
                |(job, ajo_der, user, staged, idem_key, parent, foreign, at)| {
                    StoreEvent::JobConsigned {
                        job: JobId(job),
                        ajo_der,
                        user,
                        staged,
                        idem_key,
                        parent: parent.map(|(j, n)| (JobId(j), ActionId(n))),
                        foreign,
                        at,
                    }
                }
            ),
        (id(), id(), "[a-zA-Z0-9:._-]{0,20}", id()).prop_map(|(job, node, target, at)| {
            StoreEvent::JobIncarnated {
                job: JobId(job),
                node: ActionId(node),
                target,
                at,
            }
        }),
        (id(), id(), bytes(40), files(), id()).prop_map(|(job, node, outcome_der, files, at)| {
            StoreEvent::TaskStateChanged {
                job: JobId(job),
                node: ActionId(node),
                outcome_der,
                files,
                at,
            }
        }),
        (id(), bytes(40), manifest(), id()).prop_map(|(job, outcome_der, manifest, at)| {
            StoreEvent::OutcomeStored {
                job: JobId(job),
                outcome_der,
                manifest,
                at,
            }
        }),
        (id(), id()).prop_map(|(job, at)| StoreEvent::JobPurged {
            job: JobId(job),
            at,
        }),
    ]
}

proptest! {
    #[test]
    fn record_framing_round_trips(payload in bytes(200)) {
        let frame = encode_record(&payload);
        prop_assert_eq!(frame.len(), RECORD_HEADER_LEN + payload.len());
        match decode_record(&frame) {
            Decoded::Record { payload: got, consumed } => {
                prop_assert_eq!(got, &payload[..]);
                prop_assert_eq!(consumed, frame.len());
            }
            other => prop_assert!(false, "expected record, got {other:?}"),
        }
    }

    #[test]
    fn concatenated_records_decode_in_order(payloads in proptest::collection::vec(bytes(50), 1..6)) {
        let mut buf = Vec::new();
        for p in &payloads {
            buf.extend(encode_record(p));
        }
        let mut off = 0;
        for p in &payloads {
            match decode_record(&buf[off..]) {
                Decoded::Record { payload, consumed } => {
                    prop_assert_eq!(payload, &p[..]);
                    off += consumed;
                }
                other => prop_assert!(false, "expected record, got {other:?}"),
            }
        }
        prop_assert_eq!(off, buf.len());
    }

    /// Any strict prefix of a frame is incomplete, never a bogus record.
    #[test]
    fn truncated_frame_is_incomplete(payload in bytes(100), cut in id()) {
        let frame = encode_record(&payload);
        let cut = (cut as usize) % frame.len();
        prop_assert!(matches!(decode_record(&frame[..cut]), Decoded::Incomplete));
    }

    /// Flipping any byte of the CRC or payload is always caught (CRC32
    /// detects every single-byte error).
    #[test]
    fn corruption_is_detected(payload in proptest::collection::vec(any::<u8>(), 1..100), pos in id(), flip in 1u8..=255) {
        let mut frame = encode_record(&payload);
        let idx = 4 + (pos as usize) % (frame.len() - 4);
        frame[idx] ^= flip;
        prop_assert!(matches!(decode_record(&frame), Decoded::BadCrc { .. }));
    }

    #[test]
    fn store_event_der_round_trips(ev in event()) {
        let der = ev.to_der();
        prop_assert_eq!(StoreEvent::from_der(&der).unwrap(), ev);
    }

    /// Durability round trip: whatever was appended is replayed intact
    /// after a drop + re-open, across any rotation threshold.
    #[test]
    fn replay_survives_reopen_and_rotation(
        events in proptest::collection::vec(event(), 0..16),
        rotate in 64usize..512,
    ) {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), rotate).unwrap();
        for ev in &events {
            store.append(ev).unwrap();
        }
        drop(store);
        let store = EventStore::open_with_rotation(Box::new(shared), rotate).unwrap();
        let replay = store.replay().unwrap();
        prop_assert!(!replay.torn_tail);
        prop_assert_eq!(replay.events, events);
    }

    /// A crash at the k-th append (with an arbitrary torn tail) loses
    /// exactly the suffix: replay returns the first k events, no more,
    /// no less, no corruption.
    #[test]
    fn crash_preserves_exact_durable_prefix(
        events in proptest::collection::vec(event(), 1..16),
        k in id(),
        torn in 0usize..12,
        rotate in 64usize..512,
    ) {
        let k = (k % events.len() as u64) as usize;
        let shared = MemoryBackend::new();
        shared.crash_after_appends(k as u64, torn);
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), rotate).unwrap();
        let mut accepted = 0;
        for ev in &events {
            if store.append(ev).is_err() {
                break;
            }
            accepted += 1;
        }
        prop_assert_eq!(accepted, k);
        drop(store);
        shared.reboot();
        let store = EventStore::open_with_rotation(Box::new(shared), rotate).unwrap();
        let replay = store.replay().unwrap();
        prop_assert_eq!(replay.events, events[..k].to_vec());
    }
}

// ---- Compaction preserves recovered state --------------------------------

/// A well-formed per-job history, job id assigned at materialisation:
/// consign, then mid-flight events, then optionally an outcome, then
/// (only once done) optionally a purge — the orders the NJS writes.
#[derive(Debug, Clone)]
struct Spec {
    ajo: Vec<u8>,
    mids: Vec<Mid>,
    outcome: Option<(Vec<u8>, Vec<ManifestEntry>)>,
    purge: bool,
}

#[derive(Debug, Clone)]
enum Mid {
    Incarnated(String),
    Task(u64, Vec<u8>, Files),
}

fn mid() -> impl Strategy<Value = Mid> {
    prop_oneof![
        "[a-zA-Z0-9:]{1,12}".prop_map(Mid::Incarnated),
        (1u64..8, bytes(24), files()).prop_map(|(n, o, f)| Mid::Task(n, o, f)),
    ]
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        bytes(32),
        proptest::collection::vec(mid(), 0..5),
        proptest::option::of((bytes(24), manifest())),
        any::<bool>(),
    )
        .prop_map(|(ajo, mids, outcome, purge)| Spec {
            ajo,
            mids,
            outcome,
            purge,
        })
}

fn materialise(job: u64, spec: &Spec) -> Vec<StoreEvent> {
    let id = JobId(job);
    let mut events = vec![StoreEvent::JobConsigned {
        job: id,
        ajo_der: spec.ajo.clone(),
        user: OwnerRecord {
            dn: format!("CN=user{job}"),
            login: format!("u{job}"),
            account_group: "users".into(),
        },
        staged: vec![],
        idem_key: job.to_be_bytes().to_vec(),
        parent: None,
        foreign: None,
        at: job,
    }];
    for m in &spec.mids {
        events.push(match m {
            Mid::Incarnated(target) => StoreEvent::JobIncarnated {
                job: id,
                node: ActionId(1),
                target: target.clone(),
                at: job,
            },
            Mid::Task(node, outcome_der, fs) => StoreEvent::TaskStateChanged {
                job: id,
                node: ActionId(*node),
                outcome_der: outcome_der.clone(),
                files: fs.clone(),
                at: job,
            },
        });
    }
    if let Some((outcome_der, manifest)) = &spec.outcome {
        events.push(StoreEvent::OutcomeStored {
            job: id,
            outcome_der: outcome_der.clone(),
            manifest: manifest.clone(),
            at: job,
        });
        if spec.purge {
            events.push(StoreEvent::JobPurged { job: id, at: job });
        }
    }
    events
}

/// What recovery rebuilds per job from a replayed history.
#[derive(Debug, Default, Clone, PartialEq)]
struct Fold {
    ajo: Option<Vec<u8>>,
    outcome: Option<Vec<u8>>,
    /// The Uspace: staged files, task deposits and inline manifest
    /// entries applied in log order, the last writer of a name winning.
    uspace: BTreeMap<String, Vec<u8>>,
    /// What the manifest's by-reference entries claim is in the Uspace.
    claimed: Vec<(String, u64)>,
    nodes: BTreeMap<u64, Vec<u8>>,
    done: bool,
}

fn fold(events: &[StoreEvent]) -> BTreeMap<u64, Fold> {
    let mut map: BTreeMap<u64, Fold> = BTreeMap::new();
    for ev in events {
        match ev {
            StoreEvent::JobConsigned {
                job,
                ajo_der,
                staged,
                ..
            } => {
                let f = map.entry(job.0).or_default();
                f.ajo = Some(ajo_der.clone());
                f.uspace.extend(staged.iter().cloned());
            }
            // Incarnations and placements are informational at replay.
            StoreEvent::JobIncarnated { .. } | StoreEvent::PlacementDecided { .. } => {}
            StoreEvent::TaskStateChanged {
                job,
                node,
                outcome_der,
                files,
                ..
            } => {
                let f = map.entry(job.0).or_default();
                f.nodes.insert(node.0, outcome_der.clone());
                f.uspace.extend(files.iter().cloned());
            }
            StoreEvent::OutcomeStored {
                job,
                outcome_der,
                manifest,
                ..
            } => {
                let f = map.entry(job.0).or_default();
                f.outcome = Some(outcome_der.clone());
                for entry in manifest {
                    match entry {
                        ManifestEntry::Stored { name, len } => f.claimed.push((name.clone(), *len)),
                        ManifestEntry::Inline { name, data } => {
                            f.uspace.insert(name.clone(), data.clone());
                        }
                    }
                }
                f.done = true;
            }
            StoreEvent::JobPurged { job, .. } => {
                map.remove(&job.0);
            }
            // Transfer events are site-scoped, not part of the job fold.
            StoreEvent::TransferOpened { .. } | StoreEvent::TransferChunkStored { .. } => {}
        }
    }
    // A finished job's outcome tree is restored wholly from its stored
    // outcome; the per-node outcomes are superseded. Its files are not.
    for f in map.values_mut() {
        if f.done {
            f.nodes.clear();
        }
    }
    map
}

proptest! {
    /// Snapshot + replay equivalence: compacting the log (and re-opening
    /// on the snapshot) recovers exactly the same state as replaying the
    /// full history.
    #[test]
    fn compaction_preserves_folded_state(specs in proptest::collection::vec(spec(), 0..5)) {
        // Round-robin interleave the jobs' histories, as concurrent jobs
        // would interleave in a real log.
        let mut queues: Vec<Vec<StoreEvent>> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| materialise(i as u64 + 1, s))
            .collect();
        let mut events = Vec::new();
        while queues.iter().any(|q| !q.is_empty()) {
            for q in &mut queues {
                if !q.is_empty() {
                    events.push(q.remove(0));
                }
            }
        }

        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 256).unwrap();
        for ev in &events {
            store.append(ev).unwrap();
        }
        let before = fold(&store.replay().unwrap().events);
        let stats = store.compact().unwrap();
        prop_assert!(stats.events_after <= stats.events_before);
        prop_assert_eq!(fold(&store.replay().unwrap().events), before.clone());

        // The equivalence survives dropping everything and re-opening on
        // the snapshot, and a second compaction is a no-op state-wise.
        drop(store);
        let mut store = EventStore::open_with_rotation(Box::new(shared), 256).unwrap();
        prop_assert_eq!(fold(&store.replay().unwrap().events), before.clone());
        store.compact().unwrap();
        prop_assert_eq!(fold(&store.replay().unwrap().events), before);
    }
}
