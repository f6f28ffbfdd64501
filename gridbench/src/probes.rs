//! Isolated probes: a layer's public functions timed on their own, on
//! the input sizes the workload that runs the probe actually uses. They
//! run after the traced window and feed per-layer metrics only.

use crate::harness::{BatchOut, Metrics, Workload};
use crate::inputs::Pki;
use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unicore_ajo::{ActionId, JobId, VsiteAddress};
use unicore_batch::{BatchJobSpec, BatchSystem, QueueClass, WorkModel};
use unicore_certs::RequiredUsage;
use unicore_crypto::{hmac_sha256, sha256, ChaCha20, CryptoRng, DhEphemeral, DhGroup};
use unicore_dataplane::{
    ReceiverState, SenderState, TransferManifest, DEFAULT_CHUNK_SIZE, DEFAULT_WINDOW,
};
use unicore_resources::Architecture;
use unicore_sim::SEC;
use unicore_telemetry::Telemetry;

/// How long each probe repeats its call before reporting the median.
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Set by the smoke run: every probe makes its call once, so the API
/// usage is exercised without the measuring time.
static ONCE: AtomicBool = AtomicBool::new(false);

pub fn probe_once_only() {
    ONCE.store(true, Ordering::Relaxed);
}

/// Median seconds per call of `f`, repeated for [`PROBE_BUDGET`] (at
/// least five calls).
pub fn median_secs(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    let once = ONCE.load(Ordering::Relaxed);
    while samples.is_empty() || (!once && (samples.len() < 5 || start.elapsed() < PROBE_BUDGET)) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// Median batch rate of `n` untraced batches on a fresh fixture.
pub fn batch_rate<W: Workload>(fixture: &mut W, n: u64) -> f64 {
    let mut rates = Vec::new();
    let mut off = Tracer::off();
    let n = if ONCE.load(Ordering::Relaxed) { 1 } else { n };
    for index in 0..n {
        let mut out = BatchOut::default();
        fixture.prepare(index);
        let t = Instant::now();
        fixture.batch(index, false, &mut off, &mut out);
        rates.push(out.ops as f64 / t.elapsed().as_secs_f64());
        fixture.check(&mut out);
    }
    stats::median(&rates)
}

/// Symmetric primitives on `bytes`-sized inputs (the workload's typical
/// record, or chunk).
pub fn crypto_symmetric(bytes: usize, m: &mut Metrics) {
    let data = vec![0xA5u8; bytes.max(64)];
    let mb = data.len() as f64 / 1e6;
    let s = median_secs(|| {
        black_box(sha256(black_box(&data)));
    });
    m.put("crypto.sha256_mb_per_s", mb / s, "MB/s");
    let mut buf = data.clone();
    let s = median_secs(|| {
        let mut c = ChaCha20::new(&[7u8; 32], &[9u8; 12], 0);
        c.apply(black_box(&mut buf));
    });
    m.put("crypto.chacha20_mb_per_s", mb / s, "MB/s");
    let s = median_secs(|| {
        black_box(hmac_sha256(b"gridbench probe key", black_box(&data)));
    });
    m.put(
        "crypto.hmac_us_per_kb",
        s * 1e6 / (data.len() as f64 / 1024.0),
        "us",
    );
}

/// The public-key operations one full handshake pays, on the fixture's
/// own keys, and the chain validation both ends run.
pub fn crypto_handshake(pki: &Pki, m: &mut Metrics) {
    let user = &pki.users[0];
    let msg = [0x42u8; 64];
    let mut sig = Vec::new();
    let s = median_secs(|| {
        sig = user.keypair.private.sign(black_box(&msg)).expect("sign");
    });
    m.put("crypto.rsa_sign_us", s * 1e6, "us");
    let s = median_secs(|| {
        user.keypair
            .public
            .verify(black_box(&msg), &sig)
            .expect("verify");
    });
    m.put("crypto.rsa_verify_us", s * 1e6, "us");
    let mut rng = CryptoRng::from_u64(1).fork("dh-probe");
    let peer = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
    let s = median_secs(|| {
        let mine = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
        black_box(mine.agree(&peer.public).expect("agree"));
    });
    m.put("crypto.dh_us", s * 1e6, "us");
    let chain = [user.cert.clone()];
    let s = median_secs(|| {
        pki.trust
            .validate(black_box(&chain), 100, RequiredUsage::ClientAuth)
            .expect("chain validates");
    });
    m.put("certs.chain_validate_us", s * 1e6, "us");
}

/// The batch simulation alone: submit a burst of 30-second jobs to one
/// machine and run it dry.
pub fn batch_sim_us_per_job() -> f64 {
    const JOBS: usize = 256;
    let s = median_secs(|| {
        let mut sys = BatchSystem::new("probe", Architecture::Generic, 8);
        for i in 0..JOBS {
            let spec = BatchJobSpec {
                name: format!("p{i}"),
                owner: "bench".into(),
                script: "#!/bin/sh\nsleep 30\n".into(),
                processors: 1,
                time_limit: 3_600 * SEC,
                memory_mb: 16,
                queue: QueueClass::Batch,
                work: WorkModel::succeed_after(30 * SEC),
            };
            sys.submit(spec, 0).expect("submit");
        }
        black_box(sys.run_to_completion());
    });
    s * 1e6 / JOBS as f64
}

/// The data plane's own state machines on a `bytes`-sized file: manifest
/// construction, sender chunking/ack advance, receiver verification.
pub fn dataplane(bytes: usize, m: &mut Metrics) {
    let data: Arc<[u8]> = (0..bytes).map(|i| (i * 31 % 251) as u8).collect();
    let build = || {
        TransferManifest::for_bytes(
            "FZJ",
            JobId(1),
            ActionId(2),
            VsiteAddress::new("DWD", "SX4"),
            "probe.dat",
            "C=DE, O=Bench, OU=Repro, CN=probe",
            false,
            &data,
            DEFAULT_CHUNK_SIZE,
        )
    };
    let s = median_secs(|| {
        black_box(build());
    });
    m.put(
        "dataplane.manifest_us_per_mb",
        s * 1e6 / (bytes as f64 / 1e6),
        "us",
    );
    let manifest = build();
    let chunks = manifest.num_chunks();
    let s = median_secs(|| {
        let mut sender = SenderState::new(manifest.clone(), data.clone(), DEFAULT_WINDOW);
        let mut next = sender.begin(0);
        let mut acked = 0;
        while !sender.is_complete() {
            for i in next.drain(..) {
                black_box(sender.chunk_payload(i));
            }
            acked += 1;
            next = sender.on_ack(acked);
        }
    });
    m.put(
        "dataplane.sender_us_per_chunk",
        s * 1e6 / chunks as f64,
        "us",
    );
    let payloads: Vec<Vec<u8>> = {
        let sender = SenderState::new(manifest.clone(), data.clone(), DEFAULT_WINDOW);
        (0..chunks).map(|i| sender.chunk_payload(i)).collect()
    };
    let s = median_secs(|| {
        let mut rx = ReceiverState::new(manifest.clone());
        for (i, p) in payloads.iter().enumerate() {
            black_box(rx.accept_chunk(i as u64, p));
        }
        assert!(rx.is_complete());
    });
    m.put(
        "dataplane.receiver_us_per_chunk",
        s * 1e6 / chunks as f64,
        "us",
    );
}

/// The program's own counters, read back around one batch:
/// `(product counter, harness count)` pairs. `read` fetches a counter's
/// current value (from one `Telemetry`, or summed over a federation's
/// sites); with telemetry disabled every counter reads 0.
pub struct CounterWatch {
    names: &'static [(&'static str, &'static str)],
    base: Vec<u64>,
}

impl CounterWatch {
    pub fn begin(
        names: &'static [(&'static str, &'static str)],
        read: impl Fn(&str) -> u64,
    ) -> Self {
        CounterWatch {
            names,
            base: names.iter().map(|(counter, _)| read(counter)).collect(),
        }
    }

    pub fn end(self, read: impl Fn(&str) -> u64, out: &mut BatchOut) {
        for ((counter, count), base) in self.names.iter().zip(&self.base) {
            out.count(count, (read(counter) - base) as f64);
        }
    }
}

/// Counter reader over one telemetry handle.
pub fn reader(telemetry: &Telemetry) -> impl Fn(&str) -> u64 + '_ {
    |name| telemetry.counter(name).get()
}
