//! The typed events the NJS and server journal to the WAL.
//!
//! Each event is one DER SEQUENCE wrapped in a context tag carrying the
//! event discriminant, so the log format is self-describing and new
//! event kinds can be added without renumbering.

use unicore_ajo::{ActionId, JobId};
use unicore_codec::{tag, CodecError, DerCodec, DerReader, DerWriter};

/// The authenticated owner of a consigned job, as resolved by the UUDB at
/// consign time. Persisted so recovery does not need to re-consult the
/// user database (whose mappings may have changed since).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnerRecord {
    /// Certificate distinguished name (the UNICORE identity).
    pub dn: String,
    /// Xlogin the job runs under at this Vsite.
    pub login: String,
    /// Account group billed for the job.
    pub account_group: String,
}

impl DerCodec for OwnerRecord {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.dn);
            w.str(&self.login);
            w.str(&self.account_group);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("OwnerRecord", |f| {
            Ok(OwnerRecord {
                dn: f.next_string()?,
                login: f.next_string()?,
                account_group: f.next_string()?,
            })
        })
    }
}

/// Where a job consigned from a peer NJS came from, so the recovered
/// server can still route its outcome back (paper §4.1 sub-jobs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignOrigin {
    /// Address of the consigning peer server.
    pub origin: String,
    /// The parent job at the peer.
    pub parent: JobId,
    /// The sub-job node within the parent's AJO.
    pub node: ActionId,
    /// Uspace files the peer expects back with the outcome.
    pub return_files: Vec<String>,
}

impl DerCodec for ForeignOrigin {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.origin);
            w.u64(self.parent.0);
            w.u64(self.node.0);
            w.sequence_of(&self.return_files, |w, f| w.str(f));
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("ForeignOrigin", |f| {
            Ok(ForeignOrigin {
                origin: f.next_string()?,
                parent: JobId(f.next_u64()?),
                node: ActionId(f.next_u64()?),
                return_files: f.sequence_of("return files", |n| n.next_string())?,
            })
        })
    }
}

/// SEQUENCE OF `(name, contents)`; the contents are written straight from
/// wherever the caller holds them (an owned event, or the Uspace itself).
///
/// Room for the whole list is made before its first entry is written: a
/// record carrying megabytes of file contents is then allocated at its
/// final size. Per entry that is its bytes, under 32 octets of TLV
/// headers, and a share of what a record writes after the list (a
/// timestamp, the long-form lengths owed by the enclosing levels).
pub(crate) fn write_files<'a>(
    w: &mut DerWriter,
    files: impl IntoIterator<Item = (&'a str, &'a [u8]), IntoIter: Clone>,
) {
    let files = files.into_iter();
    w.reserve(files.clone().map(|(n, d)| n.len() + d.len() + 96).sum());
    w.sequence_of(files, |w, (name, data)| write_file_entry(w, name, data));
}

/// `SEQUENCE { name, contents }`.
fn write_file_entry(w: &mut DerWriter, name: &str, data: &[u8]) {
    w.sequence(|w| {
        w.str(name);
        w.bytes(data);
    });
}

fn owned_files(files: &[(String, Vec<u8>)]) -> impl Iterator<Item = (&str, &[u8])> + Clone {
    files.iter().map(|(n, d)| (n.as_str(), d.as_slice()))
}

fn read_files(r: &mut DerReader<'_>) -> Result<Vec<(String, Vec<u8>)>, CodecError> {
    r.sequence_of("file list", |e| {
        e.sequence("file entry", |f| {
            Ok((f.next_string()?, f.next_bytes()?.to_vec()))
        })
    })
}

/// One file of an [`StoreEvent::OutcomeStored`] manifest.
///
/// On the wire both forms are `SEQUENCE { name, x }`; the second element's
/// type — INTEGER or OCTET STRING — tells them apart, so journals written
/// before and after the by-reference form need no version marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestEntry {
    /// The file by reference: its bytes are in the same job's earlier
    /// `JobConsigned.staged` / `TaskStateChanged.files` records, which
    /// replay has already put back into the Uspace; the manifest only
    /// states what must be there. The form every new record uses.
    Stored {
        /// File name within the job's Uspace.
        name: String,
        /// Length in bytes.
        len: u64,
    },
    /// The file's contents inline, as journals written before the
    /// by-reference form carry them. Decoded (and kept as it is by
    /// compaction), never produced for a new record.
    Inline {
        /// File name within the job's Uspace.
        name: String,
        /// The contents.
        data: Vec<u8>,
    },
}

/// A by-reference manifest entry.
pub(crate) fn write_stored_entry(w: &mut DerWriter, name: &str, len: u64) {
    w.sequence(|w| {
        w.str(name);
        w.u64(len);
    });
}

impl DerCodec for ManifestEntry {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            ManifestEntry::Stored { name, len } => write_stored_entry(w, name, *len),
            ManifestEntry::Inline { name, data } => write_file_entry(w, name, data),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("manifest entry", |f| {
            let name = f.next_string()?;
            if f.peek_tag() == Some(tag::INTEGER) {
                let len = f.next_u64()?;
                Ok(ManifestEntry::Stored { name, len })
            } else {
                let data = f.next_bytes()?.to_vec();
                Ok(ManifestEntry::Inline { name, data })
            }
        })
    }
}

/// One durable fact about a job's lifecycle.
///
/// The WAL is the sequence of these events; replaying them rebuilds the
/// NJS job table and the server's idempotency index exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreEvent {
    /// A job was accepted (consign path): the full AJO, the resolved
    /// owner, the staged input files, and the idempotency key the server
    /// uses to deduplicate re-delivered Consigns.
    JobConsigned {
        /// The job id assigned at consign time.
        job: JobId,
        /// Canonical DER of the consigned AJO.
        ajo_der: Vec<u8>,
        /// Resolved owner (UUDB mapping at consign time).
        user: OwnerRecord,
        /// Input files staged into the job's uspace at consign.
        staged: Vec<(String, Vec<u8>)>,
        /// Idempotency key (hash of consigner identity + AJO bytes).
        idem_key: Vec<u8>,
        /// Set when the job is a local child of another job here (the
        /// parent job and the sub-job node it fills).
        parent: Option<(JobId, ActionId)>,
        /// Set when the job is a sub-job consigned by a peer server.
        foreign: Option<ForeignOrigin>,
        /// Simulation timestamp (microseconds).
        at: u64,
    },
    /// A node of the job was incarnated and handed to a concrete target
    /// (batch queue, peer Vsite, ...).
    JobIncarnated {
        /// The owning job.
        job: JobId,
        /// The incarnated node.
        node: ActionId,
        /// Human-readable target description (queue or peer address).
        target: String,
        /// Simulation timestamp.
        at: u64,
    },
    /// A node reached a terminal state; its per-node outcome (DER of the
    /// `OutcomeNode`) and any files it deposited in the uspace.
    TaskStateChanged {
        /// The owning job.
        job: JobId,
        /// The node that finished.
        node: ActionId,
        /// Canonical DER of the node's `OutcomeNode`.
        outcome_der: Vec<u8>,
        /// Files the task wrote into the uspace (name, contents).
        files: Vec<(String, Vec<u8>)>,
        /// Simulation timestamp.
        at: u64,
    },
    /// The whole job finished: its assembled `JobOutcome` and a manifest
    /// of the uspace files the client may still fetch.
    OutcomeStored {
        /// The finished job.
        job: JobId,
        /// Canonical DER of the assembled `JobOutcome` tree.
        outcome_der: Vec<u8>,
        /// Every Uspace file at completion, by reference (see
        /// [`ManifestEntry`]): replay checks the Uspace it rebuilt from
        /// the job's earlier records against this list.
        manifest: Vec<ManifestEntry>,
        /// Simulation timestamp.
        at: u64,
    },
    /// The job's outcome was retrieved and its uspace reclaimed; all of
    /// its history may be dropped at the next compaction.
    JobPurged {
        /// The purged job.
        job: JobId,
        /// Simulation timestamp.
        at: u64,
    },
    /// An inbound streamed transfer (data plane) was accepted by this
    /// receiving NJS: the full manifest and the local login it maps to.
    /// Replay re-opens the receiver state, so a rebooted Usite answers a
    /// re-offer with its resume point instead of starting over.
    TransferOpened {
        /// The sending Usite.
        origin: String,
        /// The sending job.
        origin_job: JobId,
        /// The sending Transfer task node.
        origin_node: ActionId,
        /// Canonical DER of the `TransferManifest`.
        manifest_der: Vec<u8>,
        /// Local login the sender's DN mapped to at offer time.
        login: String,
        /// Simulation timestamp.
        at: u64,
    },
    /// The broker (re)targeted a sub-job node: the Vsite it chose and
    /// the Usites excluded at decision time (already tried, quarantined,
    /// or dark). Journaled *before* the forward leaves, so a replay of
    /// the same seed must produce a byte-identical sequence of these
    /// events — the E16 determinism contract.
    PlacementDecided {
        /// The parent job at this origin.
        job: JobId,
        /// The sub-job node being placed.
        node: ActionId,
        /// The chosen Vsite, as "USITE/VSITE".
        chosen: String,
        /// Usites excluded from this decision, in ranking-input order.
        excluded: Vec<String>,
        /// Retarget attempt: 0 for the initial placement, 1.. after.
        attempt: u32,
        /// Simulation timestamp.
        at: u64,
    },
    /// A verified chunk of an open transfer was durably stored. These
    /// events double as the delivered file's durability: Xspace contents
    /// are not otherwise journaled, so replay republishes the file.
    TransferChunkStored {
        /// The sending Usite.
        origin: String,
        /// The sending job.
        origin_job: JobId,
        /// The sending Transfer task node.
        origin_node: ActionId,
        /// Chunk index within the manifest.
        index: u64,
        /// The chunk's bytes (already checksum-verified).
        data: Vec<u8>,
        /// Simulation timestamp.
        at: u64,
    },
}

impl StoreEvent {
    /// The job this event belongs to. Transfer events are site-scoped,
    /// not job-scoped: they report the sentinel `JobId(0)` (real job ids
    /// start at 1), which compaction never classifies as done or purged —
    /// exactly right, since chunk events are the delivered file's only
    /// durable copy.
    pub fn job(&self) -> JobId {
        match self {
            StoreEvent::JobConsigned { job, .. }
            | StoreEvent::JobIncarnated { job, .. }
            | StoreEvent::TaskStateChanged { job, .. }
            | StoreEvent::OutcomeStored { job, .. }
            | StoreEvent::PlacementDecided { job, .. }
            | StoreEvent::JobPurged { job, .. } => *job,
            StoreEvent::TransferOpened { .. } | StoreEvent::TransferChunkStored { .. } => JobId(0),
        }
    }
}

const TAG_CONSIGNED: u8 = 0;
const TAG_INCARNATED: u8 = 1;
const TAG_TASK_STATE: u8 = 2;
const TAG_OUTCOME: u8 = 3;
const TAG_PURGED: u8 = 4;
const TAG_TRANSFER_OPENED: u8 = 5;
const TAG_TRANSFER_CHUNK: u8 = 6;
const TAG_PLACEMENT: u8 = 7;

/// Body of a `TaskStateChanged` record; `outcome` writes the OCTET STRING
/// holding the node's outcome DER.
pub(crate) fn write_task_state<'a>(
    w: &mut DerWriter,
    job: JobId,
    node: ActionId,
    outcome: impl FnOnce(&mut DerWriter),
    files: impl IntoIterator<Item = (&'a str, &'a [u8]), IntoIter: Clone>,
    at: u64,
) {
    w.tagged(TAG_TASK_STATE, |w| {
        w.sequence(|w| {
            w.u64(job.0);
            w.u64(node.0);
            outcome(w);
            write_files(w, files);
            w.u64(at);
        })
    });
}

/// Body of an `OutcomeStored` record; `outcome` writes the OCTET STRING
/// holding the job outcome DER, `entry` one manifest entry.
pub(crate) fn write_outcome_stored<T>(
    w: &mut DerWriter,
    job: JobId,
    outcome: impl FnOnce(&mut DerWriter),
    manifest: impl IntoIterator<Item = T>,
    entry: impl FnMut(&mut DerWriter, T),
    at: u64,
) {
    w.tagged(TAG_OUTCOME, |w| {
        w.sequence(|w| {
            w.u64(job.0);
            outcome(w);
            w.sequence_of(manifest, entry);
            w.u64(at);
        })
    });
}

/// Body of a `TransferChunkStored` record.
pub(crate) fn write_transfer_chunk(
    w: &mut DerWriter,
    origin: &str,
    origin_job: JobId,
    origin_node: ActionId,
    index: u64,
    data: &[u8],
    at: u64,
) {
    w.tagged(TAG_TRANSFER_CHUNK, |w| {
        w.sequence(|w| {
            w.str(origin);
            w.u64(origin_job.0);
            w.u64(origin_node.0);
            w.u64(index);
            w.reserve(data.len() + 64);
            w.bytes(data);
            w.u64(at);
        })
    });
}

impl DerCodec for StoreEvent {
    fn write_der(&self, w: &mut DerWriter) {
        match self {
            StoreEvent::JobConsigned {
                job,
                ajo_der,
                user,
                staged,
                idem_key,
                parent,
                foreign,
                at,
            } => w.tagged(TAG_CONSIGNED, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.bytes(ajo_der);
                    user.write_der(w);
                    write_files(w, owned_files(staged));
                    w.bytes(idem_key);
                    w.u64(*at);
                    if let Some((pjob, pnode)) = parent {
                        w.tagged(1, |w| {
                            w.sequence(|w| {
                                w.u64(pjob.0);
                                w.u64(pnode.0);
                            })
                        });
                    }
                    if let Some(origin) = foreign {
                        w.tagged(0, |w| origin.write_der(w));
                    }
                })
            }),
            StoreEvent::JobIncarnated {
                job,
                node,
                target,
                at,
            } => w.tagged(TAG_INCARNATED, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.u64(node.0);
                    w.str(target);
                    w.u64(*at);
                })
            }),
            StoreEvent::TaskStateChanged {
                job,
                node,
                outcome_der,
                files,
                at,
            } => write_task_state(
                w,
                *job,
                *node,
                |w| w.bytes(outcome_der),
                owned_files(files),
                *at,
            ),
            StoreEvent::OutcomeStored {
                job,
                outcome_der,
                manifest,
                at,
            } => write_outcome_stored(
                w,
                *job,
                |w| w.bytes(outcome_der),
                manifest,
                |w, e| e.write_der(w),
                *at,
            ),
            StoreEvent::JobPurged { job, at } => w.tagged(TAG_PURGED, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.u64(*at);
                })
            }),
            StoreEvent::TransferOpened {
                origin,
                origin_job,
                origin_node,
                manifest_der,
                login,
                at,
            } => w.tagged(TAG_TRANSFER_OPENED, |w| {
                w.sequence(|w| {
                    w.str(origin);
                    w.u64(origin_job.0);
                    w.u64(origin_node.0);
                    w.bytes(manifest_der);
                    w.str(login);
                    w.u64(*at);
                })
            }),
            StoreEvent::PlacementDecided {
                job,
                node,
                chosen,
                excluded,
                attempt,
                at,
            } => w.tagged(TAG_PLACEMENT, |w| {
                w.sequence(|w| {
                    w.u64(job.0);
                    w.u64(node.0);
                    w.str(chosen);
                    w.sequence_of(excluded, |w, u| w.str(u));
                    w.u64(*attempt as u64);
                    w.u64(*at);
                })
            }),
            StoreEvent::TransferChunkStored {
                origin,
                origin_job,
                origin_node,
                index,
                data,
                at,
            } => write_transfer_chunk(w, origin, *origin_job, *origin_node, *index, data, *at),
        }
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.tagged(|tag, t| match tag {
            TAG_CONSIGNED => t.sequence("JobConsigned", |f| {
                Ok(StoreEvent::JobConsigned {
                    job: JobId(f.next_u64()?),
                    ajo_der: f.next_bytes()?.to_vec(),
                    user: OwnerRecord::read_der(f)?,
                    staged: read_files(f)?,
                    idem_key: f.next_bytes()?.to_vec(),
                    at: f.next_u64()?,
                    parent: f.optional_tagged(1, |p| {
                        p.sequence("JobConsigned.parent", |pf| {
                            Ok((JobId(pf.next_u64()?), ActionId(pf.next_u64()?)))
                        })
                    })?,
                    foreign: f.optional_tagged(0, ForeignOrigin::read_der)?,
                })
            }),
            TAG_INCARNATED => t.sequence("JobIncarnated", |f| {
                Ok(StoreEvent::JobIncarnated {
                    job: JobId(f.next_u64()?),
                    node: ActionId(f.next_u64()?),
                    target: f.next_string()?,
                    at: f.next_u64()?,
                })
            }),
            TAG_TASK_STATE => t.sequence("TaskStateChanged", |f| {
                Ok(StoreEvent::TaskStateChanged {
                    job: JobId(f.next_u64()?),
                    node: ActionId(f.next_u64()?),
                    outcome_der: f.next_bytes()?.to_vec(),
                    files: read_files(f)?,
                    at: f.next_u64()?,
                })
            }),
            TAG_OUTCOME => t.sequence("OutcomeStored", |f| {
                Ok(StoreEvent::OutcomeStored {
                    job: JobId(f.next_u64()?),
                    outcome_der: f.next_bytes()?.to_vec(),
                    manifest: f.sequence_of("manifest", ManifestEntry::read_der)?,
                    at: f.next_u64()?,
                })
            }),
            TAG_PURGED => t.sequence("JobPurged", |f| {
                Ok(StoreEvent::JobPurged {
                    job: JobId(f.next_u64()?),
                    at: f.next_u64()?,
                })
            }),
            TAG_TRANSFER_OPENED => t.sequence("TransferOpened", |f| {
                Ok(StoreEvent::TransferOpened {
                    origin: f.next_string()?,
                    origin_job: JobId(f.next_u64()?),
                    origin_node: ActionId(f.next_u64()?),
                    manifest_der: f.next_bytes()?.to_vec(),
                    login: f.next_string()?,
                    at: f.next_u64()?,
                })
            }),
            TAG_PLACEMENT => t.sequence("PlacementDecided", |f| {
                Ok(StoreEvent::PlacementDecided {
                    job: JobId(f.next_u64()?),
                    node: ActionId(f.next_u64()?),
                    chosen: f.next_string()?,
                    excluded: f.sequence_of("excluded Usites", |u| u.next_string())?,
                    attempt: f.next_u32()?,
                    at: f.next_u64()?,
                })
            }),
            TAG_TRANSFER_CHUNK => t.sequence("TransferChunkStored", |f| {
                Ok(StoreEvent::TransferChunkStored {
                    origin: f.next_string()?,
                    origin_job: JobId(f.next_u64()?),
                    origin_node: ActionId(f.next_u64()?),
                    index: f.next_u64()?,
                    data: f.next_bytes()?.to_vec(),
                    at: f.next_u64()?,
                })
            }),
            _ => Err(CodecError::BadValue("store event: unknown tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_codec::Value;

    fn sample_owner() -> OwnerRecord {
        OwnerRecord {
            dn: "C=DE, O=FZJ, CN=alice".into(),
            login: "alice1".into(),
            account_group: "proj42".into(),
        }
    }

    #[test]
    fn every_variant_round_trips() {
        let events = vec![
            StoreEvent::JobConsigned {
                job: JobId(7),
                ajo_der: vec![0x30, 0x00],
                user: sample_owner(),
                staged: vec![("input.dat".into(), vec![1, 2, 3])],
                idem_key: vec![0xaa; 32],
                parent: Some((JobId(2), ActionId(9))),
                foreign: Some(ForeignOrigin {
                    origin: "FZJ/T3E".into(),
                    parent: JobId(3),
                    node: ActionId(5),
                    return_files: vec!["result.dat".into()],
                }),
                at: 1_000_000,
            },
            StoreEvent::JobConsigned {
                job: JobId(8),
                ajo_der: vec![0x30, 0x00],
                user: sample_owner(),
                staged: vec![],
                idem_key: vec![0xbb; 32],
                parent: None,
                foreign: None,
                at: 2_000_000,
            },
            StoreEvent::JobIncarnated {
                job: JobId(7),
                node: ActionId(1),
                target: "batch:express".into(),
                at: 3,
            },
            StoreEvent::TaskStateChanged {
                job: JobId(7),
                node: ActionId(1),
                outcome_der: vec![0x30, 0x00],
                files: vec![("stdout".into(), b"hello".to_vec())],
                at: 4,
            },
            StoreEvent::OutcomeStored {
                job: JobId(7),
                outcome_der: vec![0x30, 0x00],
                manifest: vec![
                    ManifestEntry::Stored {
                        name: "stdout".into(),
                        len: 5,
                    },
                    ManifestEntry::Inline {
                        name: "old.dat".into(),
                        data: b"hello".to_vec(),
                    },
                    // An empty file stays distinguishable in both forms.
                    ManifestEntry::Stored {
                        name: "empty".into(),
                        len: 0,
                    },
                    ManifestEntry::Inline {
                        name: "empty-old".into(),
                        data: Vec::new(),
                    },
                ],
                at: 5,
            },
            StoreEvent::JobPurged {
                job: JobId(7),
                at: 6,
            },
            StoreEvent::PlacementDecided {
                job: JobId(7),
                node: ActionId(4),
                chosen: "ZIB/T3E".into(),
                excluded: vec!["FZJ".into(), "RUS".into()],
                attempt: 1,
                at: 9,
            },
            StoreEvent::TransferOpened {
                origin: "FZJ".into(),
                origin_job: JobId(7),
                origin_node: ActionId(2),
                manifest_der: vec![0x30, 0x00],
                login: "alice1".into(),
                at: 7,
            },
            StoreEvent::TransferChunkStored {
                origin: "FZJ".into(),
                origin_job: JobId(7),
                origin_node: ActionId(2),
                index: 3,
                data: vec![0xcd; 17],
                at: 8,
            },
        ];
        for ev in events {
            let back = StoreEvent::from_der(&ev.to_der()).unwrap();
            assert_eq!(back, ev);
            assert_eq!(back.job(), ev.job());
        }
    }

    /// The inline manifest form is byte for byte what `OutcomeStored`
    /// carried before entries went by reference: a `(name, contents)`
    /// file list, as `TaskStateChanged.files` still is.
    #[test]
    fn inline_manifest_entries_encode_as_the_old_file_list() {
        let files = vec![
            ("a".to_owned(), vec![1u8, 2, 3]),
            ("b".to_owned(), Vec::new()),
        ];
        let mut old = DerWriter::new();
        write_files(&mut old, owned_files(&files));
        let mut new = DerWriter::new();
        new.sequence_of(&files, |w, (name, data)| {
            ManifestEntry::Inline {
                name: name.clone(),
                data: data.clone(),
            }
            .write_der(w)
        });
        assert_eq!(old.into_vec(), new.into_vec());
    }

    #[test]
    fn manifest_entry_with_any_other_second_element_is_rejected() {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.str("name");
            w.bool(true);
        });
        assert!(ManifestEntry::from_der(&w.into_vec()).is_err());
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.str("name");
            w.int(-1);
        });
        assert!(ManifestEntry::from_der(&w.into_vec()).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let bogus = Value::tagged(9, Value::Sequence(vec![]));
        assert!(StoreEvent::from_der(&unicore_codec::encode(&bogus)).is_err());
    }
}
