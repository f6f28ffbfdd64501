//! The typed event store: append, replay, rotate, compact.

use crate::backend::StorageBackend;
use crate::error::StoreError;
use crate::events::{
    write_outcome_stored, write_stored_entry, write_task_state, write_transfer_chunk, StoreEvent,
};
use crate::wal::{
    encode_record, encode_record_with, parse_segment_name, parse_snapshot_name, scan_segment,
    segment_name, snapshot_name,
};
use std::collections::{HashMap, HashSet};
use unicore_ajo::{ActionId, JobId};
use unicore_codec::{DerCodec, DerWriter};
use unicore_telemetry::{Counter, Telemetry};

/// Default segment rotation threshold (bytes).
pub const DEFAULT_ROTATE_AT: usize = 64 * 1024;

/// Everything replayed from the log at startup.
#[derive(Debug)]
pub struct Replay {
    /// All surviving events, oldest first (snapshot, then segments).
    pub events: Vec<StoreEvent>,
    /// Whether the newest segment ended in a torn record (crash residue).
    pub torn_tail: bool,
}

/// What one [`EventStore::compact`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Events in the log before folding.
    pub events_before: usize,
    /// Events surviving into the snapshot.
    pub events_after: usize,
    /// Log bytes (segments + snapshot) before compaction.
    pub bytes_before: u64,
    /// Snapshot bytes after compaction.
    pub bytes_after: u64,
    /// Log segments deleted.
    pub segments_removed: usize,
}

/// A group commit being assembled: the framed records of every event
/// pushed so far, each encoded in place behind its record header.
/// [`EventStore::commit`] hands them to the backend in one write.
#[derive(Debug, Default)]
pub struct EventBatch {
    frames: Vec<u8>,
    events: u64,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no event has been pushed since the last commit.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Frames `event` as the next record.
    pub fn push(&mut self, event: &StoreEvent) {
        self.push_with(|w| event.write_der(w));
    }

    /// Frames a [`StoreEvent::TaskStateChanged`] record with the outcome
    /// encoded in place and each file's contents written from where the
    /// caller holds them — the same bytes as pushing the event built with
    /// `outcome_der: outcome.to_der()` and owned copies of `files`,
    /// without those buffers.
    pub fn push_task_state_changed<'a>(
        &mut self,
        job: JobId,
        node: ActionId,
        outcome: &impl DerCodec,
        files: impl IntoIterator<Item = (&'a str, &'a [u8]), IntoIter: Clone>,
        at: u64,
    ) {
        let outcome = |w: &mut DerWriter| w.octets_of(|w| outcome.write_der(w));
        self.push_with(|w| write_task_state(w, job, node, outcome, files, at));
    }

    /// Frames a [`StoreEvent::OutcomeStored`] record with the outcome
    /// encoded in place (see [`Self::push_task_state_changed`]) and every
    /// manifest entry by reference: `(name, length)` of a file the job's
    /// earlier records already carry.
    pub fn push_outcome_stored<'a>(
        &mut self,
        job: JobId,
        outcome: &impl DerCodec,
        manifest: impl IntoIterator<Item = (&'a str, u64)>,
        at: u64,
    ) {
        let outcome = |w: &mut DerWriter| w.octets_of(|w| outcome.write_der(w));
        let entry = |w: &mut DerWriter, (name, len)| write_stored_entry(w, name, len);
        self.push_with(|w| write_outcome_stored(w, job, outcome, manifest, entry, at));
    }

    /// Frames a [`StoreEvent::TransferChunkStored`] record straight from
    /// the borrowed chunk — the same bytes as pushing the event built
    /// with `data: data.to_vec()`, without that copy.
    pub fn push_transfer_chunk_stored(
        &mut self,
        origin: &str,
        origin_job: JobId,
        origin_node: ActionId,
        index: u64,
        data: &[u8],
        at: u64,
    ) {
        self.push_with(|w| {
            write_transfer_chunk(w, origin, origin_job, origin_node, index, data, at)
        });
    }

    /// Frames the next record from the one event TLV `write` emits.
    fn push_with(&mut self, write: impl FnOnce(&mut DerWriter)) {
        encode_record_with(&mut self.frames, |out| DerWriter::append_to(out, write));
        self.events += 1;
    }
}

/// A write-ahead event log over a [`StorageBackend`].
///
/// The on-disk layout is at most one snapshot `snap-K.der` (the folded
/// history of everything before segment `K`) plus log segments
/// `wal-N.seg` with `N >= K`. Appends go to the highest-numbered
/// segment; once it exceeds the rotation threshold a new one is started.
pub struct EventStore {
    backend: Box<dyn StorageBackend>,
    /// Sequence number of the open (append) segment.
    current_seq: u64,
    /// Bytes already in the open segment.
    current_bytes: usize,
    rotate_at: usize,
    /// Sequence of the live snapshot, if any.
    snapshot_seq: Option<u64>,
    /// Whether `open` found (and repaired) a torn tail.
    recovered_torn: bool,
    metrics: WalMetrics,
}

/// WAL health counters, fetched once from the telemetry registry.
struct WalMetrics {
    appends: Counter,
    bytes: Counter,
    rotations: Counter,
    repairs: Counter,
    /// Whether this store's own open-time repair was already counted
    /// (`set_telemetry` may be called more than once).
    repair_reported: bool,
}

impl Default for WalMetrics {
    fn default() -> Self {
        WalMetrics {
            appends: Counter::detached(),
            bytes: Counter::detached(),
            rotations: Counter::detached(),
            repairs: Counter::detached(),
            repair_reported: false,
        }
    }
}

impl EventStore {
    /// Opens the store with the default rotation threshold.
    pub fn open(backend: Box<dyn StorageBackend>) -> Result<Self, StoreError> {
        Self::open_with_rotation(backend, DEFAULT_ROTATE_AT)
    }

    /// Opens the store, rotating segments at `rotate_at` bytes.
    ///
    /// If the newest segment ends in a torn or corrupt record (the
    /// residue of a crash mid-append), the segment is repaired in place:
    /// its verified prefix is rewritten atomically and the damaged tail
    /// discarded. All older segments must be fully intact.
    pub fn open_with_rotation(
        backend: Box<dyn StorageBackend>,
        rotate_at: usize,
    ) -> Result<Self, StoreError> {
        let mut store = EventStore {
            backend,
            current_seq: 0,
            current_bytes: 0,
            rotate_at,
            snapshot_seq: None,
            recovered_torn: false,
            metrics: WalMetrics::default(),
        };
        let names = store.backend.list()?;
        store.snapshot_seq = names.iter().filter_map(|n| parse_snapshot_name(n)).max();
        let live_floor = store.snapshot_seq.unwrap_or(0);
        // Segments below the snapshot floor are leftovers of a compaction
        // that crashed between writing the snapshot and deleting them.
        let mut segments: Vec<u64> = Vec::new();
        for name in &names {
            if let Some(seq) = parse_segment_name(name) {
                if seq < live_floor {
                    store.backend.remove(name)?;
                } else {
                    segments.push(seq);
                }
            }
            if let Some(seq) = parse_snapshot_name(name) {
                if seq < live_floor {
                    store.backend.remove(name)?;
                }
            }
        }
        segments.sort_unstable();
        if let Some(&newest) = segments.last() {
            let name = segment_name(newest);
            let data = store.backend.read(&name)?;
            let scan = scan_segment(&name, &data, true)?;
            if scan.torn {
                let mut repaired = Vec::new();
                for payload in &scan.payloads {
                    repaired.extend(encode_record(payload));
                }
                store.backend.write_atomic(&name, &repaired)?;
                store.recovered_torn = true;
                store.current_bytes = repaired.len();
            } else {
                store.current_bytes = data.len();
            }
            store.current_seq = newest;
        } else {
            store.current_seq = live_floor;
            store.current_bytes = 0;
        }
        Ok(store)
    }

    /// Whether `open` had to discard a torn record tail.
    pub fn recovered_torn(&self) -> bool {
        self.recovered_torn
    }

    /// Publishes this store's WAL health counters into `telemetry`'s
    /// registry (`store.wal.appends`, `store.wal.bytes`,
    /// `store.wal.rotations`, `store.wal.repairs`). A torn tail repaired
    /// by `open` — which necessarily ran before telemetry could be
    /// attached — is counted now, once.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let reported = self.metrics.repair_reported;
        self.metrics = WalMetrics {
            appends: telemetry.counter("store.wal.appends"),
            bytes: telemetry.counter("store.wal.bytes"),
            rotations: telemetry.counter("store.wal.rotations"),
            repairs: telemetry.counter("store.wal.repairs"),
            repair_reported: reported,
        };
        if self.recovered_torn && !self.metrics.repair_reported {
            self.metrics.repairs.inc();
            self.metrics.repair_reported = true;
        }
    }

    /// Appends one event durably. Returns only once the record is on
    /// storage; rotates to a fresh segment past the size threshold.
    pub fn append(&mut self, event: &StoreEvent) -> Result<(), StoreError> {
        self.append_batch(std::slice::from_ref(event))
    }

    /// Appends a batch of events with **one** durable backend write
    /// (group commit): see [`EventStore::commit`].
    pub fn append_batch(&mut self, events: &[StoreEvent]) -> Result<(), StoreError> {
        let mut batch = EventBatch::new();
        for event in events {
            batch.push(event);
        }
        self.commit(&mut batch)
    }

    /// Writes a batch with **one** durable backend write (group commit):
    /// every event was framed into a single buffer as it was pushed, so a
    /// burst of events on the consign path pays one fsync instead of one
    /// per event. The batch is left empty whether or not the write
    /// succeeded.
    ///
    /// Crash semantics are unchanged from frame-at-a-time appends: the
    /// durable unit is the backend write, so a crash mid-batch leaves an
    /// all-or-prefix torn tail that replay repairs at open — exactly the
    /// residue `scan_segment` already expects.
    pub fn commit(&mut self, batch: &mut EventBatch) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        // The buffer is given back either way: a batch may have carried
        // megabytes of file content.
        let EventBatch { frames, events } = std::mem::take(batch);
        let bytes = frames.len();
        // One rotation decision for the whole batch keeps it in one
        // segment — the single-write guarantee above.
        if self.current_bytes > 0 && self.current_bytes + bytes > self.rotate_at {
            self.current_seq += 1;
            self.current_bytes = 0;
            self.metrics.rotations.inc();
        }
        self.backend
            .append(&segment_name(self.current_seq), &frames)?;
        self.current_bytes += bytes;
        self.metrics.appends.add(events);
        self.metrics.bytes.add(bytes as u64);
        Ok(())
    }

    fn live_segments(&self) -> Result<Vec<u64>, StoreError> {
        let mut segments: Vec<u64> = self
            .backend
            .list()?
            .iter()
            .filter_map(|n| parse_segment_name(n))
            .collect();
        segments.sort_unstable();
        Ok(segments)
    }

    /// Replays the whole surviving history: snapshot first, then every
    /// segment in order. Only the newest segment may end torn.
    pub fn replay(&self) -> Result<Replay, StoreError> {
        let mut events = Vec::new();
        if let Some(snap) = self.snapshot_seq {
            let name = snapshot_name(snap);
            let data = self.backend.read(&name)?;
            for payload in scan_segment(&name, &data, false)?.payloads {
                events.push(StoreEvent::from_der(payload)?);
            }
        }
        let segments = self.live_segments()?;
        let mut torn_tail = false;
        for (i, &seq) in segments.iter().enumerate() {
            let newest = i + 1 == segments.len();
            let name = segment_name(seq);
            let data = self.backend.read(&name)?;
            let scan = scan_segment(&name, &data, newest)?;
            for payload in scan.payloads {
                events.push(StoreEvent::from_der(payload)?);
            }
            torn_tail |= scan.torn;
        }
        Ok(Replay { events, torn_tail })
    }

    /// Folds the history into a snapshot and deletes the covered
    /// segments.
    ///
    /// The fold keeps the minimal event sequence that replays to the same
    /// state: purged jobs vanish entirely; finished jobs collapse to
    /// their `JobConsigned`, the `TaskStateChanged` records that carry
    /// files (the only copy of those bytes: the manifest refers to them)
    /// and their `OutcomeStored`; jobs still in flight keep their full
    /// history.
    pub fn compact(&mut self) -> Result<CompactionStats, StoreError> {
        let replay = self.replay()?;
        let bytes_before = self.total_bytes()?;
        let events_before = replay.events.len();

        // Classify each job from its full history.
        let mut purged: HashSet<u64> = HashSet::new();
        let mut done: HashSet<u64> = HashSet::new();
        for ev in &replay.events {
            match ev {
                StoreEvent::JobPurged { job, .. } => {
                    purged.insert(job.0);
                }
                StoreEvent::OutcomeStored { job, .. } => {
                    done.insert(job.0);
                }
                _ => {}
            }
        }
        let kept: Vec<&StoreEvent> = replay
            .events
            .iter()
            .filter(|ev| {
                let id = ev.job().0;
                if purged.contains(&id) {
                    false
                } else if done.contains(&id) {
                    match ev {
                        StoreEvent::JobConsigned { .. } | StoreEvent::OutcomeStored { .. } => true,
                        StoreEvent::TaskStateChanged { files, .. } => !files.is_empty(),
                        _ => false,
                    }
                } else {
                    true
                }
            })
            .collect();

        let mut snapshot = EventBatch::new();
        for ev in &kept {
            snapshot.push(ev);
        }
        let snapshot = snapshot.frames;
        let new_seq = self.current_seq + 1;
        self.backend
            .write_atomic(&snapshot_name(new_seq), &snapshot)?;
        // The snapshot is durable; everything it covers can go.
        let mut segments_removed = 0;
        for seq in self.live_segments()? {
            if seq < new_seq {
                self.backend.remove(&segment_name(seq))?;
                segments_removed += 1;
            }
        }
        if let Some(old) = self.snapshot_seq {
            self.backend.remove(&snapshot_name(old))?;
        }
        self.snapshot_seq = Some(new_seq);
        self.current_seq = new_seq;
        self.current_bytes = 0;
        Ok(CompactionStats {
            events_before,
            events_after: kept.len(),
            bytes_before,
            bytes_after: snapshot.len() as u64,
            segments_removed,
        })
    }

    /// Number of live log segments (excluding the snapshot).
    pub fn segment_count(&self) -> Result<usize, StoreError> {
        Ok(self.live_segments()?.len())
    }

    /// Total bytes across segments and snapshot.
    pub fn total_bytes(&self) -> Result<u64, StoreError> {
        let mut total = 0;
        for name in self.backend.list()? {
            if parse_segment_name(&name).is_some() || parse_snapshot_name(&name).is_some() {
                total += self.backend.read(&name)?.len() as u64;
            }
        }
        Ok(total)
    }
}

/// Derived per-job summary used by tests and callers that want a quick
/// view of replayed history without re-implementing the fold.
pub fn events_by_job(events: &[StoreEvent]) -> HashMap<u64, Vec<&StoreEvent>> {
    let mut map: HashMap<u64, Vec<&StoreEvent>> = HashMap::new();
    for ev in events {
        map.entry(ev.job().0).or_default().push(ev);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;
    use crate::events::{ManifestEntry, OwnerRecord};

    fn owner() -> OwnerRecord {
        OwnerRecord {
            dn: "CN=test".into(),
            login: "t".into(),
            account_group: "g".into(),
        }
    }

    fn consigned(job: u64) -> StoreEvent {
        StoreEvent::JobConsigned {
            job: JobId(job),
            ajo_der: vec![0x30, 0x00],
            user: owner(),
            staged: vec![],
            idem_key: job.to_be_bytes().to_vec(),
            parent: None,
            foreign: None,
            at: job,
        }
    }

    #[test]
    fn in_place_outcome_pushes_frame_the_owned_events() {
        let outcome = owner(); // any DerCodec value stands in for an outcome
        let files = vec![("stdout".to_owned(), b"hello".to_vec())];
        let mut in_place = EventBatch::new();
        in_place.push_task_state_changed(
            JobId(7),
            ActionId(1),
            &outcome,
            [("stdout", &b"hello"[..])],
            4,
        );
        in_place.push_outcome_stored(JobId(7), &outcome, [("stdout", 5)], 5);
        in_place.push_transfer_chunk_stored("FZJ", JobId(7), ActionId(2), 3, &[0xcd; 17], 6);
        let mut owned = EventBatch::new();
        owned.push(&StoreEvent::TaskStateChanged {
            job: JobId(7),
            node: ActionId(1),
            outcome_der: outcome.to_der(),
            files,
            at: 4,
        });
        owned.push(&StoreEvent::OutcomeStored {
            job: JobId(7),
            outcome_der: outcome.to_der(),
            manifest: vec![ManifestEntry::Stored {
                name: "stdout".into(),
                len: 5,
            }],
            at: 5,
        });
        owned.push(&StoreEvent::TransferChunkStored {
            origin: "FZJ".into(),
            origin_job: JobId(7),
            origin_node: ActionId(2),
            index: 3,
            data: vec![0xcd; 17],
            at: 6,
        });
        assert_eq!(in_place.frames, owned.frames);
        assert_eq!(in_place.events, 3);
    }

    fn incarnated(job: u64) -> StoreEvent {
        StoreEvent::JobIncarnated {
            job: JobId(job),
            node: ActionId(1),
            target: "batch:q".into(),
            at: job + 1,
        }
    }

    fn outcome(job: u64) -> StoreEvent {
        StoreEvent::OutcomeStored {
            job: JobId(job),
            outcome_der: vec![0x30, 0x00],
            manifest: vec![],
            at: job + 2,
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open(Box::new(shared.clone())).unwrap();
        let events = vec![consigned(1), incarnated(1), consigned(2)];
        for ev in &events {
            store.append(ev).unwrap();
        }
        drop(store);
        let store = EventStore::open(Box::new(shared)).unwrap();
        let replay = store.replay().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.events, events);
    }

    #[test]
    fn rotation_produces_multiple_segments() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 128).unwrap();
        for j in 0..20 {
            store.append(&consigned(j)).unwrap();
        }
        assert!(store.segment_count().unwrap() > 1);
        let replay = store.replay().unwrap();
        assert_eq!(replay.events.len(), 20);
        // Re-open continues into the newest segment.
        drop(store);
        let mut store = EventStore::open_with_rotation(Box::new(shared), 128).unwrap();
        store.append(&consigned(20)).unwrap();
        assert_eq!(store.replay().unwrap().events.len(), 21);
    }

    #[test]
    fn torn_tail_repaired_on_open() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open(Box::new(shared.clone())).unwrap();
        store.append(&consigned(1)).unwrap();
        // Crash in the middle of the next append: 3 bytes reach disk.
        shared.crash_after_appends(0, 3);
        assert!(store.append(&consigned(2)).is_err());
        drop(store);
        shared.reboot();
        let store = EventStore::open(Box::new(shared.clone())).unwrap();
        assert!(store.recovered_torn());
        let replay = store.replay().unwrap();
        assert!(!replay.torn_tail, "tail was repaired at open");
        assert_eq!(replay.events, vec![consigned(1)]);
        // The store keeps working after repair.
        let mut store = store;
        store.append(&consigned(3)).unwrap();
        assert_eq!(store.replay().unwrap().events.len(), 2);
    }

    #[test]
    fn append_batch_is_one_backend_write_and_replays_in_order() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open(Box::new(shared.clone())).unwrap();
        let batch = vec![consigned(1), incarnated(1), consigned(2), incarnated(2)];
        store.append_batch(&batch).unwrap();
        assert_eq!(shared.append_count(), 1, "group commit = one durable write");
        assert_eq!(store.replay().unwrap().events, batch);
        // Batched and single appends interleave on the same segment.
        store.append(&consigned(3)).unwrap();
        assert_eq!(store.replay().unwrap().events.len(), 5);
        // Empty batches write nothing.
        store.append_batch(&[]).unwrap();
        assert_eq!(shared.append_count(), 2);
    }

    #[test]
    fn append_batch_bytes_match_frame_at_a_time_appends() {
        let batch = vec![consigned(1), incarnated(1), consigned(2)];
        let one = MemoryBackend::new();
        EventStore::open(Box::new(one.clone()))
            .unwrap()
            .append_batch(&batch)
            .unwrap();
        let many = MemoryBackend::new();
        let mut store = EventStore::open(Box::new(many.clone())).unwrap();
        for ev in &batch {
            store.append(ev).unwrap();
        }
        assert_eq!(
            one.read(&segment_name(0)).unwrap(),
            many.read(&segment_name(0)).unwrap()
        );
    }

    /// Kill the machine at **every** byte boundary inside a group-committed
    /// batch — on each frame edge and mid-frame — and verify replay always
    /// sees an exact prefix of the batch (never a hole, never an error).
    #[test]
    fn group_commit_crash_at_every_boundary_replays_a_prefix() {
        let batch = vec![consigned(1), incarnated(1), consigned(2), incarnated(2)];
        let frame_lens: Vec<usize> = batch
            .iter()
            .map(|ev| encode_record(&ev.to_der()).len())
            .collect();
        let total: usize = frame_lens.iter().sum();
        for cut in 0..=total {
            let shared = MemoryBackend::new();
            let mut store = EventStore::open(Box::new(shared.clone())).unwrap();
            shared.crash_after_appends(0, cut);
            if cut == total {
                // The whole batch reaches storage; the crash hits later.
                shared.reboot();
                store.append_batch(&batch).unwrap();
            } else {
                assert!(store.append_batch(&batch).is_err());
                shared.reboot();
            }
            drop(store);
            let store = EventStore::open(Box::new(shared.clone())).unwrap();
            let replay = store.replay().unwrap();
            assert!(!replay.torn_tail, "cut={cut}: tail repaired at open");
            // Survivors must be the longest whole-frame prefix of the batch.
            let mut expect = 0;
            let mut acc = 0;
            for &len in &frame_lens {
                if acc + len <= cut {
                    acc += len;
                    expect += 1;
                } else {
                    break;
                }
            }
            assert_eq!(replay.events, batch[..expect], "cut={cut}");
            // And the repaired store accepts new work.
            let mut store = store;
            store.append(&consigned(9)).unwrap();
            assert_eq!(
                store.replay().unwrap().events.len(),
                expect + 1,
                "cut={cut}"
            );
        }
    }

    #[test]
    fn append_batch_rotates_once_for_the_whole_batch() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 96).unwrap();
        store.append(&consigned(1)).unwrap();
        let batch = vec![consigned(2), incarnated(2), consigned(3)];
        store.append_batch(&batch).unwrap();
        // The batch crossed the rotation threshold, so it landed intact on
        // a fresh segment — never split across two.
        let seg1 = shared.read(&segment_name(1)).unwrap();
        let scan = scan_segment(&segment_name(1), &seg1, true).unwrap();
        assert_eq!(scan.payloads.len(), 3);
        assert_eq!(store.replay().unwrap().events.len(), 4);
    }

    #[test]
    fn wal_metrics_track_appends_rotations_and_repairs() {
        let telemetry = Telemetry::disabled();
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 128).unwrap();
        store.set_telemetry(&telemetry);
        for j in 0..20 {
            store.append(&consigned(j)).unwrap();
        }
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("store.wal.appends"), 20);
        assert!(snap.counter("store.wal.bytes") > 0);
        assert_eq!(
            snap.counter("store.wal.rotations") as usize,
            store.segment_count().unwrap() - 1
        );
        assert_eq!(snap.counter("store.wal.repairs"), 0);

        // Crash mid-append, reboot: the open-time repair is counted once
        // when telemetry attaches, even if it attaches twice.
        shared.crash_after_appends(0, 3);
        assert!(store.append(&consigned(99)).is_err());
        drop(store);
        shared.reboot();
        let mut store = EventStore::open_with_rotation(Box::new(shared), 128).unwrap();
        assert!(store.recovered_torn());
        store.set_telemetry(&telemetry);
        store.set_telemetry(&telemetry);
        assert_eq!(telemetry.metrics_snapshot().counter("store.wal.repairs"), 1);
    }

    #[test]
    fn corruption_in_old_segment_is_an_error() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 64).unwrap();
        for j in 0..10 {
            store.append(&consigned(j)).unwrap();
        }
        assert!(store.segment_count().unwrap() > 1);
        drop(store);
        // Flip a byte inside the oldest segment's first record payload.
        let mut w = shared.clone();
        let name = segment_name(0);
        let mut data = shared.read(&name).unwrap();
        use crate::backend::StorageBackend as _;
        data[10] ^= 0xff;
        w.write_atomic(&name, &data).unwrap();
        let store = EventStore::open(Box::new(shared)).unwrap();
        assert!(matches!(
            store.replay().unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn compaction_folds_history() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open_with_rotation(Box::new(shared.clone()), 256).unwrap();
        // Job 1: done. Job 2: purged. Job 3: in flight.
        store.append(&consigned(1)).unwrap();
        store.append(&incarnated(1)).unwrap();
        store.append(&outcome(1)).unwrap();
        store.append(&consigned(2)).unwrap();
        store.append(&incarnated(2)).unwrap();
        store.append(&outcome(2)).unwrap();
        store
            .append(&StoreEvent::JobPurged {
                job: JobId(2),
                at: 99,
            })
            .unwrap();
        store.append(&consigned(3)).unwrap();
        store.append(&incarnated(3)).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.events_before, 9);
        // Job 1 → consign+outcome, job 2 → nothing, job 3 → both events.
        assert_eq!(stats.events_after, 4);
        assert!(stats.bytes_after < stats.bytes_before);
        let replay = store.replay().unwrap();
        assert_eq!(
            replay.events,
            vec![consigned(1), outcome(1), consigned(3), incarnated(3)]
        );
        // Appends after compaction land in a fresh segment and survive
        // re-open alongside the snapshot.
        store.append(&outcome(3)).unwrap();
        drop(store);
        let store = EventStore::open(Box::new(shared)).unwrap();
        let replay = store.replay().unwrap();
        assert_eq!(replay.events.len(), 5);
        assert_eq!(replay.events[4], outcome(3));
    }

    /// A finished job's manifest names its files; their bytes live in the
    /// `TaskStateChanged` records that deposited them, which compaction
    /// must therefore keep (and only those).
    #[test]
    fn compaction_keeps_the_records_a_manifest_refers_to() {
        let task = |node: u64, files: Vec<(String, Vec<u8>)>| StoreEvent::TaskStateChanged {
            job: JobId(1),
            node: ActionId(node),
            outcome_der: vec![0x30, 0x00],
            files,
            at: node,
        };
        let done = StoreEvent::OutcomeStored {
            job: JobId(1),
            outcome_der: vec![0x30, 0x00],
            manifest: vec![ManifestEntry::Stored {
                name: "out".into(),
                len: 3,
            }],
            at: 9,
        };
        let events = vec![
            consigned(1),
            incarnated(1),
            task(1, vec![("out".into(), vec![1, 2, 3, 4])]),
            task(2, vec![]),
            task(3, vec![("out".into(), vec![5, 6, 7])]),
            done,
        ];
        let mut store = EventStore::open(Box::new(MemoryBackend::new())).unwrap();
        store.append_batch(&events).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(stats.events_after, 4);
        let kept = store.replay().unwrap().events;
        // Both writers of `out` survive, in order: the last one wins at
        // replay exactly as it did live.
        assert_eq!(
            kept,
            vec![
                events[0].clone(),
                events[2].clone(),
                events[4].clone(),
                events[5].clone()
            ]
        );
    }

    #[test]
    fn double_compaction_is_stable() {
        let shared = MemoryBackend::new();
        let mut store = EventStore::open(Box::new(shared)).unwrap();
        store.append(&consigned(1)).unwrap();
        store.append(&outcome(1)).unwrap();
        let first = store.compact().unwrap();
        assert_eq!(first.events_after, 2);
        let second = store.compact().unwrap();
        assert_eq!(second.events_before, 2);
        assert_eq!(second.events_after, 2);
        assert_eq!(store.replay().unwrap().events.len(), 2);
    }

    #[test]
    fn events_by_job_groups() {
        let events = vec![consigned(1), consigned(2), incarnated(1)];
        let map = events_by_job(&events);
        assert_eq!(map[&1].len(), 2);
        assert_eq!(map[&2].len(), 1);
    }
}
