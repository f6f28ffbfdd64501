//! `fed_burst` — a two-site `Federation` over the simulated WAN with
//! journals attached. Batches of 32 jobs, half plain `chain3`, half
//! carrying a sub-job for the *other* Usite (peer consign plus
//! `DeliverOutcome`), submitted up front and polled to terminal.
//!
//! The federation's framing/seq/ack/`advance()` path dominates (the
//! ROADMAP's unattributed 28× gap to the bare NJS); transport crypto and
//! the front door do no work here.

use super::core_step::{CoreStep, CHAIN3_SLEEPS};
use super::fed;
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs;
use crate::probes::{self, CounterWatch};
use crate::timed_store::StoreCounters;
use crate::trace::Tracer;
use std::sync::Arc;
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_ajo::{AbstractJob, VsiteAddress};
use unicore_client::jpa::JobPreparationAgent;
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{SimTime, SEC};

const SITES: [&str; 2] = ["S0", "S1"];
const VSITE: &str = "V";
const BATCH_JOBS: usize = 32;
const POLL_PERIOD: SimTime = 30 * SEC;

pub struct FedBurst {
    seed: u64,
    collect: bool,
    dn: String,
    jpa: JobPreparationAgent,
    fed: Federation,
    store: Arc<StoreCounters>,
    prepared: Vec<(&'static str, AbstractJob)>,
}

fn build_fed(seed: u64, collect: bool, dn: &str, store: &Arc<StoreCounters>) -> Federation {
    let specs = SITES.map(|s| SiteSpec::simple(s, VSITE, Architecture::Generic));
    let config = FederationConfig {
        seed,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(config, &specs);
    if collect {
        fed.enable_telemetry(seed);
    }
    fed::equip(&mut fed, dn, store);
    fed
}

impl Workload for FedBurst {
    const NAME: &'static str = "fed_burst";
    /// The federation keeps every answered request in its at-most-once
    /// reply cache; an epoch bounds it to 512 jobs' worth.
    const EPOCH_BATCHES: u64 = 16;

    fn threads() -> usize {
        1
    }

    fn setup(seed: u64, collect: bool) -> Self {
        let dn = inputs::user_dn(seed, 0);
        let store = Arc::new(StoreCounters::default());
        let mut pages = ResourceDirectory::new();
        for site in SITES {
            pages.publish(deployment_page(site, VSITE, Architecture::Generic));
        }
        FedBurst {
            seed,
            collect,
            jpa: JobPreparationAgent::new(inputs::user_attrs(&dn), pages),
            fed: build_fed(seed, collect, &dn, &store),
            dn,
            store,
            prepared: Vec::new(),
        }
    }

    fn renew(&mut self) {
        self.fed = build_fed(self.seed, self.collect, &self.dn, &self.store);
    }

    fn prepare(&mut self, index: u64) {
        // The seed decides which jobs of the burst carry the sub-job and
        // which site each one enters through.
        let mut rng = inputs::batch_rng(self.seed, Self::NAME, index);
        let mut shape: Vec<(bool, usize)> =
            (0..BATCH_JOBS).map(|i| (i % 2 == 1, (i / 2) % 2)).collect();
        inputs::shuffle(&mut shape, &mut rng);
        self.prepared = shape
            .into_iter()
            .enumerate()
            .map(|(i, (cross_site, home))| {
                let name = format!("fb-{:x}-{index}-{i}", self.seed);
                let here = VsiteAddress::new(SITES[home], VSITE);
                let job = if cross_site {
                    let there = VsiteAddress::new(SITES[1 - home], VSITE);
                    inputs::subjob_chain(&self.jpa, name, here, there, CHAIN3_SLEEPS[0])
                } else {
                    inputs::chain_job(&self.jpa, name, here, &CHAIN3_SLEEPS)
                };
                (SITES[home], job)
            })
            .collect();
    }

    fn batch(&mut self, _index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        let journal = self.store.snapshot();
        let watch = CounterWatch::begin(fed::FED_COUNTERS, fed::reader(&self.fed));
        let jobs = std::mem::take(&mut self.prepared);
        fed::run_jobs(
            &mut self.fed,
            &self.dn,
            jobs,
            POLL_PERIOD,
            keep,
            t,
            out,
            |_, _| None,
        );
        self.store.snapshot().since(&journal).count_into(out);
        watch.end(fed::reader(&self.fed), out);
    }

    fn layer_metrics(&mut self, totals: &WindowTotals, _t: &Tracer, m: &mut Metrics) {
        // The ROADMAP's 28× as a tracked number: this workload's µs/job
        // over `core_step`'s, both on the chain3 shape.
        let core_rate = probes::batch_rate(&mut CoreStep::setup(self.seed, false), 6);
        m.put(
            "core.fed_overhead_ratio",
            totals.us_per_op() * core_rate / 1e6,
            "ratio",
        );
    }
}
