//! E5 — §5.6: file transfer between Uspaces.
//!
//! The paper concedes its NJS–NJS gateway relay "has disadvantages with
//! respect to transfer rates especially for huge data sets" and says
//! UNICORE is working on alternatives. This experiment reproduces that
//! shape:
//!
//! - *simulated*: end-to-end time of the relayed transfer vs the raw-link
//!   lower bound (the direct-stream alternative) across sizes — the
//!   protocol/framing overhead dominates small transfers, the relay's
//!   store-and-forward never beats the raw link on large ones;
//! - *real*: the per-byte CPU tax of the https-style path (DER framing +
//!   record encryption + MAC) vs a plain copy — the crypto cost the paper
//!   blames, measured.

use criterion::{BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_ajo::{
    AbstractJob, AbstractTask, ActionId, Dependency, ExecuteKind, FileKind, GraphNode, JobId,
    ResourceRequest, TaskKind, VsiteAddress,
};
use unicore_bench::{bench_user_attrs, fmt_bytes, BenchReport, BENCH_DN};
use unicore_certs::{CertificateAuthority, DistinguishedName, KeyUsage, TrustStore, Validity};
use unicore_codec::DerCodec;
use unicore_crypto::{sha256, CryptoRng};
use unicore_dataplane::{
    ChunkDisposition, ReceiverState, SenderState, TransferManifest, DEFAULT_CHUNK_SIZE,
    DEFAULT_WINDOW,
};
use unicore_njs::INCOMING_PREFIX;
use unicore_resources::Architecture;
use unicore_sim::{format_time, SimTime, HOUR, SEC};
use unicore_simnet::wire_pair;
use unicore_simnet::LinkParams;
use unicore_transport::{
    client_handshake, server_handshake, Endpoint, RecordKeys, RecordType, SecureChannel,
    SessionCache,
};

/// A job at S0 that produces `size` bytes and transfers them to S1.
fn transfer_job(size: usize) -> AbstractJob {
    let mut job = AbstractJob::new("xfer", VsiteAddress::new("S0", "V"), bench_user_attrs());
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "produce".into(),
            resources: ResourceRequest::minimal().with_run_time(600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: format!("produce big.dat {size}\n"),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "push".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Transfer {
                uspace_name: "big.dat".into(),
                to_vsite: VsiteAddress::new("S1", "V"),
                dest_name: "big.dat".into(),
            }),
        }),
    ));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec![],
    });
    job
}

/// Simulated relayed transfer time for `size` bytes (job runtime and
/// protocol startup subtracted out by measuring from produce-done).
fn relay_time(size: usize) -> Option<SimTime> {
    let specs = [
        SiteSpec::simple("S0", "V", Architecture::Generic),
        SiteSpec::simple("S1", "V", Architecture::Generic),
    ];
    let mut fed = Federation::new(FederationConfig::default(), &specs);
    fed.register_user(BENCH_DN, "bench");
    let (_, outcome, done) = fed.submit_and_wait("S0", transfer_job(size), BENCH_DN, SEC, HOUR)?;
    if !outcome.status.is_success() {
        return None;
    }
    // Verify arrival at the destination.
    let s1 = fed.server("S1").unwrap();
    let arrived = s1
        .njs()
        .vsite("V")
        .unwrap()
        .vspace
        .xspace_ref()
        .exists(&format!("{INCOMING_PREFIX}big.dat"));
    assert!(arrived, "file did not arrive");
    Some(done)
}

fn print_tables() -> BenchReport {
    println!("\n=== E5: Uspace-to-Uspace transfer rates (§5.6) ===\n");
    let mut report = BenchReport::new("e5_file_transfer");
    report.note(
        "workload",
        "produce-then-transfer job between two generic sites over wan_1999; ratio is relayed grid time over the raw-link lower bound",
    );
    let wan = LinkParams::wan_1999();
    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>8}",
        "size", "relayed (sim)", "raw link bound", "local copy", "ratio"
    );
    for size in [4usize << 10, 64 << 10, 1 << 20, 4 << 20, 16 << 20] {
        let relayed = relay_time(size);
        // The direct-stream alternative: one serialisation + latency.
        let raw = wan.tx_time(size) + wan.latency;
        // Import/export at a Vsite is a local copy: effectively free in
        // simulated time (§5.6: "a copy process available at the Vsite").
        let ratio = relayed.map(|r| r as f64 / raw as f64).unwrap_or(f64::NAN);
        println!(
            "{:>10} {:>16} {:>16} {:>16} {:>8.1}",
            fmt_bytes(size as u64),
            relayed.map(format_time).unwrap_or_else(|| "fail".into()),
            format_time(raw),
            "~0",
            ratio
        );
        let key = fmt_bytes(size as u64).replace(' ', "");
        report
            .metric(
                &format!("{key}.relayed_s"),
                relayed.map(|r| r as f64 / SEC as f64).unwrap_or(f64::NAN),
            )
            .metric(&format!("{key}.raw_bound_s"), raw as f64 / SEC as f64)
            .metric(&format!("{key}.ratio"), ratio);
    }
    println!("\n(relayed time includes job startup + polling quantisation; the ratio");
    println!(" falls towards the bandwidth bound as size grows — matching the");
    println!(" paper's observation that the relay hurts most in per-transfer");
    println!(" overhead, while huge transfers are bandwidth-limited either way)\n");
    report
}

/// The real CPU tax of the https-style relay path on `data`:
/// DER-frame + seal + open + unframe, as both gateways would.
fn relay_cpu_path(tx: &mut RecordKeys, rx: &mut RecordKeys, data: &[u8]) -> usize {
    let framed = unicore_codec::encode(&unicore_codec::Value::Sequence(vec![
        unicore_codec::Value::string("big.dat"),
        unicore_codec::Value::bytes(data.to_vec()),
    ]));
    let record = tx.seal(RecordType::Data, &framed);
    let (_, opened) = rx.open(&record).unwrap();
    let decoded = unicore_codec::decode(&opened).unwrap();
    decoded.node_count()
}

/// One data-plane transfer of `data` from `a` to `b`, as two servers run
/// it: the manifest as the offer, then a window of 64 KiB chunks at a
/// time, each verified against its manifest checksum and acked by the
/// receiver's cumulative watermark, and the whole-file checksum over the
/// staged bytes as the commit gate.
fn dataplane_transfer(a: &mut SecureChannel, b: &mut SecureChannel, data: &Arc<[u8]>) -> Vec<u8> {
    let timeout = Duration::from_secs(10);
    let manifest = TransferManifest::for_bytes(
        "S0",
        JobId(1),
        ActionId(2),
        VsiteAddress::new("S1", "V"),
        "big.dat",
        BENCH_DN,
        false,
        data,
        DEFAULT_CHUNK_SIZE,
    );
    a.send(&manifest.to_der()).unwrap();
    let offer = TransferManifest::from_der(&b.recv(timeout).unwrap()).unwrap();
    let mut staged = vec![0u8; offer.total_len as usize];
    let mut rx = ReceiverState::new(offer);
    let mut tx = SenderState::new(manifest, data.clone(), DEFAULT_WINDOW);
    let mut due = tx.begin(0);
    let mut record = Vec::new();
    while !tx.is_complete() {
        for &index in &due {
            record.clear();
            record.extend_from_slice(&index.to_be_bytes());
            record.extend_from_slice(&tx.chunk_payload(index));
            a.send(&record).unwrap();
        }
        for _ in &due {
            b.recv_into(timeout, &mut record).unwrap();
            let (index, payload) = record.split_at(8);
            let index = u64::from_be_bytes(index.try_into().unwrap());
            assert_eq!(rx.accept_chunk(index, payload), ChunkDisposition::Fresh);
            staged[rx.manifest().chunk_range(index)].copy_from_slice(payload);
        }
        b.send(&rx.watermark().to_be_bytes()).unwrap();
        let ack = a.recv(timeout).unwrap();
        due = tx.on_ack(u64::from_be_bytes(ack.as_slice().try_into().unwrap()));
    }
    assert_eq!(sha256(&staged), rx.manifest().file_sum);
    staged
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_transfer_cpu");
    group.sample_size(20);
    for size in [64usize << 10, 1 << 20, 8 << 20] {
        let data = vec![0x5au8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("https_relay_path", size),
            &data,
            |b, data| {
                b.iter_custom(|iters| {
                    let mut tx = RecordKeys::derive(b"m", "c2s");
                    let mut rx = RecordKeys::derive(b"m", "c2s");
                    let t = std::time::Instant::now();
                    for _ in 0..iters {
                        black_box(relay_cpu_path(&mut tx, &mut rx, data));
                    }
                    t.elapsed()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("direct_stream_copy", size),
            &data,
            |b, data| b.iter(|| black_box(data.to_vec())),
        );
    }
    group.finish();

    // The §5.6 "alternative": the data plane's chunked, checksummed,
    // windowed transfer over a live secure channel vs one giant record,
    // both through the real record crypto.
    let mut group = c.benchmark_group("e5_streaming_alternative");
    group.sample_size(10);
    let (mut a, mut b) = live_channel_pair();
    for size in [1usize << 20, 8 << 20] {
        let data: Arc<[u8]> = vec![0x42u8; size].into();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("dataplane_64k_chunks", size),
            &data,
            |bch, data| bch.iter(|| black_box(dataplane_transfer(&mut a, &mut b, data))),
        );
        group.bench_with_input(
            BenchmarkId::new("single_record", size),
            &data,
            |bch, data| {
                bch.iter(|| {
                    a.send(data).unwrap();
                    black_box(b.recv(Duration::from_secs(10)).unwrap())
                })
            },
        );
    }
    group.finish();

    // One simulated relay per iteration (engine cost).
    let mut group = c.benchmark_group("e5_transfer_sim");
    group.sample_size(10);
    group.bench_function("relay_1MiB_simulated", |b| {
        b.iter(|| black_box(relay_time(1 << 20)))
    });
    group.finish();
}

/// A live mutually-authenticated channel pair for streaming benches.
fn live_channel_pair() -> (SecureChannel, SecureChannel) {
    let mut rng = CryptoRng::from_u64(5);
    let mut ca = CertificateAuthority::new_root(
        DistinguishedName::new("DE", "B", "B", "CA"),
        Validity::starting_at(0, 1_000_000),
        512,
        &mut rng,
    );
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone()).unwrap();
    let trust = std::sync::Arc::new(trust);
    let user = ca
        .issue_identity(
            DistinguishedName::new("DE", "B", "B", "u"),
            KeyUsage::user(),
            Validity::starting_at(0, 1_000),
            &mut rng,
        )
        .unwrap();
    let server = ca
        .issue_identity(
            DistinguishedName::new("DE", "B", "B", "s"),
            KeyUsage::server(),
            Validity::starting_at(0, 1_000),
            &mut rng,
        )
        .unwrap();
    let uep = Endpoint::new(user, trust.clone(), 10);
    let sep = Endpoint::new(server, trust, 10);
    let cc = SessionCache::new(2);
    let sc = SessionCache::new(2);
    let (cw, sw) = wire_pair();
    std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(6).fork("s");
            server_handshake(sw, &sep, &sc, &mut rng).unwrap()
        });
        let mut rng = CryptoRng::from_u64(6).fork("c");
        let c = client_handshake(cw, &uep, "X", &cc, &mut rng).unwrap();
        (c, h.join().unwrap())
    })
}

fn main() {
    let mut report = print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
    // Wall-clock percentiles of the CPU-path measurements, from the
    // shim's per-sample records.
    for s in criterion::take_recorded() {
        let key = s.name.replace('/', ".");
        report
            .metric(&format!("{key}.min_ms"), s.min * 1e3)
            .metric(&format!("{key}.p50_ms"), s.p50 * 1e3)
            .metric(&format!("{key}.p99_ms"), s.p99 * 1e3);
    }
    match report.write() {
        Ok(path) => println!("machine-readable results: {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}
