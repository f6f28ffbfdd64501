//! `crash_recover` — a site with a journal runs a 256-job batch to the
//! half-way point and is dropped; a new `UnicoreServer` over the same
//! backend runs `recover()` and finishes the batch. Repeated.
//!
//! Every other workload exercises the store's write side; this one pays
//! for its *read* side (open, replay, link rebuild), so a group-commit
//! or record-format change that speeds appends but slows replay shows.

use super::core_step::NJS_COUNTERS;
use super::site::{self, build_server, ARCH, USITE, VSITE};
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs;
use crate::probes::{self, CounterWatch};
use crate::timed_store::{StoreCounters, TimedBackend};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use unicore::protocol::outcome_of;
use unicore::{Request, Response, UnicoreServer};
use unicore_ajo::{AbstractJob, DetailLevel, JobId, VsiteAddress};
use unicore_client::jpa::JobPreparationAgent;
use unicore_codec::DerCodec;
use unicore_resources::{deployment_page, ResourceDirectory};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_telemetry::Telemetry;

const BATCH_JOBS: usize = 256;
/// Seeded task lengths spread the completions, so "half-way" is a state
/// with jobs finished, running and not yet started.
const SLEEP_RANGE: (u64, u64) = (10, 60);

pub struct CrashRecover {
    seed: u64,
    dn: String,
    jpa: JobPreparationAgent,
    store: Arc<StoreCounters>,
    telemetry: Telemetry,
    prepared: Vec<AbstractJob>,
    /// Batch 0's jobs and post-recovery outcomes, compared against an
    /// uncrashed run once the batch timer has stopped.
    to_check: Option<(Vec<AbstractJob>, Vec<Vec<u8>>)>,
}

/// A site stopped mid-batch: what survives is the disk.
struct Crashed {
    disk: TimedBackend,
    ids: Vec<JobId>,
    now: SimTime,
}

impl CrashRecover {
    fn consign_all(
        &self,
        server: &mut UnicoreServer,
        jobs: Vec<AbstractJob>,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Vec<JobId> {
        let mut ids = Vec::with_capacity(jobs.len());
        for (i, ajo) in jobs.into_iter().enumerate() {
            let before = self.store.snapshot();
            let g = t.enter("core.handle_consign", i as u64);
            let response = server.handle_request(&self.dn, Request::Consign { ajo }, 0);
            let journal = self.store.snapshot().since(&before);
            t.child("store.append", journal.appends, journal.append_ns);
            t.exit(g);
            match response {
                Response::Consigned { job } => ids.push(job),
                other => out.verify(false, &format!("consign answered {other:?}")),
            }
        }
        ids
    }

    /// Steps `server` from `now` until `enough` of `ids` are done.
    fn drive(
        &self,
        server: &mut UnicoreServer,
        ids: &[JobId],
        enough: usize,
        mut now: SimTime,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> SimTime {
        let deadline = now + 4 * HOUR;
        loop {
            let before = self.store.snapshot();
            let g = t.enter("core.server_step", 0);
            server.step(now);
            let journal = self.store.snapshot().since(&before);
            t.child("store.append", journal.appends, journal.append_ns);
            t.exit(g);
            if ids.iter().filter(|&&j| server.is_done(j)).count() >= enough {
                return now;
            }
            if now >= deadline {
                out.verify(false, "jobs stalled before the deadline");
                return now;
            }
            now = server.next_event_time().unwrap_or(now + SEC).max(now + SEC);
        }
    }

    /// Runs `jobs` on a fresh site up to the half-way point, then drops
    /// the server: every byte of in-RAM state is lost.
    fn run_to_crash(&self, jobs: Vec<AbstractJob>, t: &mut Tracer, out: &mut BatchOut) -> Crashed {
        let disk = TimedBackend::new(self.store.clone());
        let mut server = build_server(&self.dn, disk.open_store(), &self.telemetry);
        let ids = self.consign_all(&mut server, jobs, t, out);
        let now = self.drive(&mut server, &ids, ids.len() / 2, 0, t, out);
        Crashed { disk, ids, now }
    }

    /// Polls every job to its terminal outcome DER.
    fn collect(
        &self,
        server: &mut UnicoreServer,
        ids: &[JobId],
        now: SimTime,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Vec<Vec<u8>> {
        let mut ders = Vec::with_capacity(ids.len());
        for &job in ids {
            let g = t.enter("core.handle_poll", job.0);
            let detail = DetailLevel::Tasks;
            let response = server.handle_request(&self.dn, Request::Poll { job, detail }, now);
            t.exit(g);
            match outcome_of(&response) {
                Some(o) => {
                    out.verify(
                        o.status.is_terminal() && o.status.is_success(),
                        &format!("job {} ended {:?}", job.0, o.status),
                    );
                    ders.push(o.to_der());
                }
                None => out.verify(false, &format!("poll answered {response:?}")),
            }
        }
        ders
    }
}

impl Workload for CrashRecover {
    const NAME: &'static str = "crash_recover";
    /// Every batch is a whole site life on a fresh disk.
    const EPOCH_BATCHES: u64 = u64::MAX;

    fn threads() -> usize {
        1
    }

    fn setup(seed: u64, collect: bool) -> Self {
        let dn = inputs::user_dn(seed, 0);
        let mut pages = ResourceDirectory::new();
        pages.publish(deployment_page(USITE, VSITE, ARCH));
        CrashRecover {
            seed,
            jpa: JobPreparationAgent::new(inputs::user_attrs(&dn), pages),
            dn,
            store: Arc::new(StoreCounters::default()),
            telemetry: site::telemetry(seed, collect),
            prepared: Vec::new(),
            to_check: None,
        }
    }

    fn renew(&mut self) {}

    fn prepare(&mut self, index: u64) {
        let mut rng = inputs::batch_rng(self.seed, Self::NAME, index);
        let (lo, hi) = SLEEP_RANGE;
        self.prepared = (0..BATCH_JOBS)
            .map(|i| {
                let sleeps: Vec<u64> = (0..3).map(|_| lo + rng.next_below(hi - lo + 1)).collect();
                inputs::chain_job(
                    &self.jpa,
                    format!("cr-{:x}-{index}-{i}", self.seed),
                    VsiteAddress::new(USITE, VSITE),
                    &sleeps,
                )
            })
            .collect();
    }

    fn batch(&mut self, _index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        let jobs = std::mem::take(&mut self.prepared);
        let reference_jobs = keep.then(|| jobs.clone());
        let before = self.store.snapshot();
        let watch = CounterWatch::begin(NJS_COUNTERS, probes::reader(&self.telemetry));
        out.ops += BATCH_JOBS as u64;

        let crashed = self.run_to_crash(jobs, t, out);

        // Reboot: a new server over the same disk.
        let g = t.enter("store.open", 0);
        let journal = crashed.disk.open_store();
        t.exit(g);
        let mut server = build_server(&self.dn, journal, &self.telemetry);
        let started = Instant::now();
        let g = t.enter("core.recover", 0);
        let report = server.recover(crashed.now);
        t.exit(g);
        out.request_ns.push(started.elapsed().as_nanos() as u64);
        match report {
            Ok(r) => out.verify(
                r.jobs.len() == crashed.ids.len(),
                &format!("{} of {} jobs recovered", r.jobs.len(), crashed.ids.len()),
            ),
            Err(e) => out.verify(false, &format!("recover failed: {e}")),
        }
        let now = self.drive(
            &mut server,
            &crashed.ids,
            crashed.ids.len(),
            crashed.now,
            t,
            out,
        );
        let outcomes = self.collect(&mut server, &crashed.ids, now, t, out);

        self.store.snapshot().since(&before).count_into(out);
        watch.end(probes::reader(&self.telemetry), out);
        if let Some(jobs) = reference_jobs {
            out.outcomes = outcomes.clone();
            self.to_check = Some((jobs, outcomes));
        }
    }

    fn check(&mut self, out: &mut BatchOut) {
        // Post-`recover()` outcomes must be byte-identical to an
        // uncrashed run of the same batch.
        let Some((jobs, mut recovered)) = self.to_check.take() else {
            return;
        };
        let mut off = Tracer::off();
        let disk = TimedBackend::new(Arc::new(StoreCounters::default()));
        let mut server = build_server(&self.dn, disk.open_store(), &Telemetry::disabled());
        let ids = self.consign_all(&mut server, jobs, &mut off, out);
        let now = self.drive(&mut server, &ids, ids.len(), 0, &mut off, out);
        let mut uncrashed = self.collect(&mut server, &ids, now, &mut off, out);
        uncrashed.sort();
        recovered.sort();
        out.verify(
            uncrashed == recovered,
            "outcomes after recover() differ from an uncrashed run",
        );
    }

    fn layer_metrics(&mut self, _totals: &WindowTotals, t: &Tracer, m: &mut Metrics) {
        // The replay inside `recover()` cannot be timed from outside, so
        // it is probed on its own: the same journal a crashed site leaves
        // behind, replayed through the public `EventStore::replay`.
        self.prepare(0);
        let jobs = std::mem::take(&mut self.prepared);
        let crashed = self.run_to_crash(jobs, &mut Tracer::off(), &mut BatchOut::default());
        let journal = crashed.disk.open_store();
        let mut events = 0;
        let secs = probes::median_secs(|| {
            events = journal
                .replay()
                .expect("replay a healthy journal")
                .events
                .len();
        });
        m.put("store.replay_events", events as f64, "count");
        m.put(
            "store.replay_us_per_event",
            secs * 1e6 / events.max(1) as f64,
            "us",
        );
        let recover_s =
            t.get("core.recover").total_ns as f64 / 1e9 / t.get("core.recover").count.max(1) as f64;
        if recover_s > 0.0 {
            m.put(
                "store.recover_events_per_s",
                events as f64 / recover_s,
                "1/s",
            );
            m.put(
                "share.store_replay_of_recover_pct",
                secs / recover_s * 100.0,
                "%",
            );
        }
    }
}
