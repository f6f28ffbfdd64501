//! `core_step` — the sharded NJS driven directly: 8 Vsites on 8 shards,
//! per-shard WAL segments, `min(nproc, 2)` step workers. Batches of 512
//! `chain3` jobs are consigned, stepped to terminal, queried and purged.
//!
//! Transport, gateway and federation do no work here, so a win in any of
//! them must not move this workload; the step loop, the batch simulation
//! and the WAL group commit decide it.

use crate::env;
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs;
use crate::probes::{self, CounterWatch};
use crate::timed_store::{StoreCounters, TimedBackend};
use crate::trace::Tracer;
use std::sync::Arc;
use unicore_ajo::{AbstractJob, DetailLevel, VsiteAddress};
use unicore_client::jpa::JobPreparationAgent;
use unicore_codec::DerCodec;
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_telemetry::Telemetry;

pub const USITE: &str = "HUB";
pub const VSITES: usize = 8;
pub const BATCH_JOBS: usize = 512;
/// The `chain3` shape shared with `fed_burst` (the overhead ratio
/// compares the two on identical jobs).
pub const CHAIN3_SLEEPS: [u64; 3] = [30, 30, 30];

/// Product counters every NJS-bearing workload reads back per batch.
pub const NJS_COUNTERS: &[(&str, &str)] = &[
    ("batch.submitted", "batch.submitted"),
    ("batch.completed", "batch.completed"),
    ("store.wal.appends", "store.events"),
];

pub struct CoreStep {
    seed: u64,
    dn: String,
    jpa: JobPreparationAgent,
    shards: usize,
    workers: usize,
    njs: ShardedNjs,
    store: Arc<StoreCounters>,
    telemetry: Telemetry,
    now: SimTime,
    prepared: Vec<AbstractJob>,
}

fn pages() -> ResourceDirectory {
    let mut dir = ResourceDirectory::new();
    for i in 0..VSITES {
        dir.publish(deployment_page(
            USITE,
            &format!("V{i}"),
            Architecture::Generic,
        ));
    }
    dir
}

fn build_njs(
    shards: usize,
    workers: usize,
    store: &Arc<StoreCounters>,
    telemetry: &Telemetry,
) -> ShardedNjs {
    let mut njs = ShardedNjs::new(USITE, shards, workers);
    for i in 0..VSITES {
        njs.add_vsite(
            deployment_page(USITE, &format!("V{i}"), Architecture::Generic),
            TranslationTable::for_architecture(Architecture::Generic),
        );
    }
    let stores = (0..njs.shard_count())
        .map(|_| TimedBackend::new(store.clone()).open_store())
        .collect();
    njs.attach_stores(stores);
    if telemetry.is_enabled() {
        njs.set_telemetry(telemetry.clone());
    }
    njs
}

impl CoreStep {
    /// A fixture with an explicit shard/worker shape (the scaling probes
    /// reuse the workload on 1 shard / 1 worker and 8 shards / 1 worker).
    pub fn with_shape(seed: u64, shards: usize, workers: usize, collect: bool) -> Self {
        let dn = inputs::user_dn(seed, 0);
        let telemetry = super::site::telemetry(seed, collect);
        let store = Arc::new(StoreCounters::default());
        CoreStep {
            seed,
            jpa: JobPreparationAgent::new(inputs::user_attrs(&dn), pages()),
            njs: build_njs(shards, workers, &store, &telemetry),
            dn,
            shards,
            workers,
            store,
            telemetry,
            now: 0,
            prepared: Vec::new(),
        }
    }

    fn jobs(&self, index: u64) -> Vec<AbstractJob> {
        // The seed orders the Vsites the batch's jobs land on.
        let mut rng = inputs::batch_rng(self.seed, Self::NAME, index);
        let mut targets: Vec<usize> = (0..BATCH_JOBS).map(|i| i % VSITES).collect();
        inputs::shuffle(&mut targets, &mut rng);
        targets
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                inputs::chain_job(
                    &self.jpa,
                    format!("cs-{:x}-{index}-{i}", self.seed),
                    VsiteAddress::new(USITE, format!("V{v}")),
                    &CHAIN3_SLEEPS,
                )
            })
            .collect()
    }
}

impl Workload for CoreStep {
    const NAME: &'static str = "core_step";
    const EPOCH_BATCHES: u64 = 16;

    fn threads() -> usize {
        env::nproc().min(2)
    }

    fn setup(seed: u64, collect: bool) -> Self {
        CoreStep::with_shape(seed, VSITES, Self::threads(), collect)
    }

    fn renew(&mut self) {
        self.njs = build_njs(self.shards, self.workers, &self.store, &self.telemetry);
        self.now = 0;
    }

    fn prepare(&mut self, index: u64) {
        self.prepared = self.jobs(index);
    }

    fn batch(&mut self, index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        let jobs = std::mem::take(&mut self.prepared);
        let user = inputs::mapped_user(&self.dn);
        let store0 = self.store.snapshot();
        let watch = CounterWatch::begin(NJS_COUNTERS, probes::reader(&self.telemetry));

        let mut ids = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.into_iter().enumerate() {
            let start = std::time::Instant::now();
            let g = t.enter("njs.consign", i as u64);
            let id = self.njs.consign(job, user.clone(), self.now);
            t.exit(g);
            out.request_ns.push(start.elapsed().as_nanos() as u64);
            match id {
                Ok(id) => ids.push(id),
                Err(e) => out.verify(false, &format!("consign refused: {e}")),
            }
        }
        out.ops += BATCH_JOBS as u64;

        let deadline = self.now + 4 * HOUR;
        loop {
            let before = if t.is_on() {
                self.store.snapshot().appends
            } else {
                0
            };
            let g = t.enter("njs.step", index);
            self.njs.step(self.now);
            t.exit(g);
            if t.is_on() && self.store.snapshot().appends == before {
                out.count("njs.idle_steps", 1.0);
            }
            if ids.iter().all(|&j| self.njs.is_done(j)) || self.now >= deadline {
                break;
            }
            self.now = self
                .njs
                .next_event_time()
                .unwrap_or(self.now + SEC)
                .max(self.now + SEC);
        }

        for &id in &ids {
            let g = t.enter("njs.query", id.0);
            let outcome = self.njs.query(id, &self.dn, DetailLevel::Tasks);
            t.exit(g);
            match outcome {
                Ok(o) => {
                    out.verify(
                        o.status.is_terminal() && o.status.is_success(),
                        &format!("job {} ended {:?}", id.0, o.status),
                    );
                    if keep {
                        out.outcomes.push(o.to_der());
                    }
                }
                Err(e) => out.verify(false, &format!("query failed: {e}")),
            }
            if let Some(turnaround) = self.njs.turnaround(id) {
                out.sample("sim.grid_time_s", turnaround as f64 / SEC as f64);
            }
            let g = t.enter("njs.purge", id.0);
            let purged = self.njs.purge(id, &self.dn);
            t.exit(g);
            out.verify(purged.is_ok(), "purge refused");
        }

        self.store.snapshot().since(&store0).count_into(out);
        watch.end(probes::reader(&self.telemetry), out);
    }

    fn layer_metrics(&mut self, _totals: &WindowTotals, _t: &Tracer, m: &mut Metrics) {
        // Scaling probes on the identical batch: one shard on one thread,
        // then 8 shards with one worker against 8 shards with all cores.
        let rate = |shards, workers| {
            let mut probe = CoreStep::with_shape(self.seed, shards, workers, false);
            probes::batch_rate(&mut probe, 6)
        };
        m.put("njs.single_jobs_per_s", rate(1, 1), "1/s");
        let one = rate(VSITES, 1);
        let all = rate(VSITES, env::nproc().max(1));
        m.put("njs.worker_speedup", all / one, "ratio");
        m.put("batch.sim_us_per_job", probes::batch_sim_us_per_job(), "us");
    }
}
