//! `transfer_stream` — the E15 job (produce a file at FZJ, `Transfer` it
//! to DWD) with a 4 MiB seeded payload per job, over the German
//! deployment, repeated for the window.
//!
//! Large messages: per-byte cost (SHA-256 manifests, chunk DER,
//! `TransferChunkStored` WAL records, `Arc<[u8]>` sharing) dominates
//! where every other workload is bound per message.

use super::fed;
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs;
use crate::probes::{self, CounterWatch};
use crate::timed_store::StoreCounters;
use crate::trace::Tracer;
use std::sync::Arc;
use unicore::{Federation, FederationConfig};
use unicore_ajo::{AbstractJob, ActionId, VsiteAddress};
use unicore_client::jpa::JobPreparationAgent;
use unicore_crypto::sha256;
use unicore_dataplane::DEFAULT_CHUNK_SIZE;
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{SimTime, SEC};

const FROM: (&str, &str) = ("FZJ", "T3E");
const TO: (&str, &str) = ("DWD", "SX4");
const PAYLOAD: usize = 4 << 20;
/// The wan_1999 link the stream crosses.
const LINK_BYTES_PER_SEC: f64 = 4e6;
const POLL_PERIOD: SimTime = 5 * SEC;
/// While the stream is in flight the JMC watches it this closely.
const WATCH_STEP: SimTime = SEC / 5;
/// Transfer node of the generated job (the `make` task is node 1).
const SHIP_NODE: ActionId = ActionId(2);
/// Seeded file names cycle through a small pool, so the destination's
/// incoming area is overwritten rather than grown.
const FILE_POOL: u64 = 4;

pub struct TransferStream {
    seed: u64,
    collect: bool,
    dn: String,
    jpa: JobPreparationAgent,
    fed: Federation,
    store: Arc<StoreCounters>,
    prepared: Option<(String, AbstractJob)>,
    /// The file the last batch delivered, checksummed once the batch
    /// timer has stopped.
    to_check: Option<String>,
}

fn build_fed(seed: u64, collect: bool, dn: &str, store: &Arc<StoreCounters>) -> Federation {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        ..FederationConfig::default()
    });
    if collect {
        fed.enable_telemetry(seed);
    }
    fed::equip(&mut fed, dn, store);
    fed
}

/// The bytes the NJS's deterministic oracle writes for `produce <name>
/// <len>`, recomputed independently of the program under test: the first
/// 32 bytes are SHA-256 of the name, byte `i` is `seed[i % 32] ^ (i/32)`.
fn expected_content(name: &str, len: usize) -> Vec<u8> {
    let seed = sha256(name.as_bytes());
    (0..len).map(|i| seed[i % 32] ^ (i / 32) as u8).collect()
}

impl Workload for TransferStream {
    const NAME: &'static str = "transfer_stream";
    /// Each job leaves its 4 MiB in two journals; a real site compacts.
    const EPOCH_BATCHES: u64 = 4;

    fn threads() -> usize {
        1
    }

    fn setup(seed: u64, collect: bool) -> Self {
        let dn = inputs::user_dn(seed, 0);
        let store = Arc::new(StoreCounters::default());
        let mut pages = ResourceDirectory::new();
        pages.publish(deployment_page(FROM.0, FROM.1, Architecture::CrayT3e));
        pages.publish(deployment_page(TO.0, TO.1, Architecture::NecSx4));
        TransferStream {
            seed,
            collect,
            jpa: JobPreparationAgent::new(inputs::user_attrs(&dn), pages),
            fed: build_fed(seed, collect, &dn, &store),
            dn,
            store,
            prepared: None,
            to_check: None,
        }
    }

    fn renew(&mut self) {
        self.fed = build_fed(self.seed, self.collect, &self.dn, &self.store);
    }

    fn prepare(&mut self, index: u64) {
        let file = format!("big-{:x}-{}.dat", self.seed, index % FILE_POOL);
        let job = inputs::transfer_job(
            &self.jpa,
            format!("ts-{:x}-{index}", self.seed),
            VsiteAddress::new(FROM.0, FROM.1),
            VsiteAddress::new(TO.0, TO.1),
            &file,
            PAYLOAD,
        );
        self.prepared = Some((file, job));
    }

    fn batch(&mut self, _index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        let (file, job) = self.prepared.take().expect("prepared batch");
        let journal = self.store.snapshot();
        let watch = CounterWatch::begin(fed::FED_COUNTERS, fed::reader(&self.fed));
        let submitted_at = self.fed.now();

        // Watch the stream land at the destination: first chunk, last
        // chunk, in simulated time.
        let (mut first_chunk, mut last_chunk) = (None, None);
        fed::run_jobs(
            &mut self.fed,
            &self.dn,
            vec![(FROM.0, job)],
            POLL_PERIOD,
            keep,
            t,
            out,
            |fed, ids| {
                if last_chunk.is_some() {
                    return None;
                }
                let id = ids[0]?;
                let progress = fed
                    .server(TO.0)?
                    .njs()
                    .incoming_progress(FROM.0, id, SHIP_NODE);
                if let Some((bytes, total)) = progress {
                    first_chunk.get_or_insert(fed.now());
                    if bytes == total {
                        last_chunk = Some(fed.now());
                        return None;
                    }
                }
                Some(WATCH_STEP)
            },
        );

        self.to_check = Some(file);

        if let (Some(first), Some(last)) = (first_chunk, last_chunk) {
            let stream_s = (last - first).max(1) as f64 / SEC as f64;
            out.sample(
                "dataplane.first_chunk_sim_s",
                (first - submitted_at) as f64 / SEC as f64,
            );
            out.sample(
                "dataplane.sim_goodput_ratio",
                PAYLOAD as f64 / stream_s / LINK_BYTES_PER_SEC,
            );
        } else {
            out.verify(false, "the stream was never seen at the destination");
        }
        out.count(
            "dataplane.chunks_needed",
            (PAYLOAD / DEFAULT_CHUNK_SIZE as usize) as f64,
        );

        self.store.snapshot().since(&journal).count_into(out);
        watch.end(fed::reader(&self.fed), out);
    }

    fn check(&mut self, out: &mut BatchOut) {
        // The delivered file must be the whole payload, checksum-equal
        // to what the harness computes for itself.
        let Some(file) = self.to_check.take() else {
            return;
        };
        let delivered = self.fed.server(TO.0).and_then(|s| {
            let xspace = s.njs().vsite(TO.1)?.vspace.xspace_ref();
            let name = format!("{}{file}", unicore_njs::INCOMING_PREFIX);
            xspace.read_raw(&name).ok().map(|f| sha256(&f.data))
        });
        let expected = sha256(&expected_content(&file, PAYLOAD));
        out.verify(
            delivered == Some(expected),
            "delivered file does not match its whole-file checksum",
        );
    }

    fn layer_metrics(&mut self, totals: &WindowTotals, _t: &Tracer, m: &mut Metrics) {
        m.put(
            "dataplane.first_chunk_sim_s",
            totals.sample_median("dataplane.first_chunk_sim_s"),
            "s",
        );
        m.put(
            "dataplane.sim_goodput_ratio",
            totals.sample_median("dataplane.sim_goodput_ratio"),
            "ratio",
        );
        m.put(
            "dataplane.chunks_sent",
            totals.per_op("dataplane.chunks_sent"),
            "count",
        );
        let needed = totals.count("dataplane.chunks_needed");
        if needed > 0.0 {
            m.put(
                "dataplane.resend_ratio",
                totals.count("dataplane.chunks_sent") / needed,
                "ratio",
            );
        }
        m.put(
            "dataplane.payload_mb_per_s",
            PAYLOAD as f64 / totals.us_per_op(),
            "MB/s",
        );
        probes::dataplane(PAYLOAD, m);
        probes::crypto_symmetric(DEFAULT_CHUNK_SIZE as usize, m);
    }
}
