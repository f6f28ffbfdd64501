//! E4 — the security architecture, measured for real.
//!
//! Full vs resumed handshake latency (the paper's https + session reuse),
//! the Diffie-Hellman half of the full one, a certificate's first validation
//! vs its re-validation from a session cache, record-protection throughput,
//! RSA sign/verify cost, and UUDB mapping throughput. The simulated table
//! also covers E9, the firewall-split deployment overhead.

use criterion::{BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_ajo::VsiteAddress;
use unicore_bench::{bench_user_attrs, BENCH_DN};
use unicore_certs::{
    CertificateAuthority, DistinguishedName, KeyUsage, RequiredUsage, TrustStore, Validity,
};
use unicore_crypto::{chacha20, sha256, CryptoRng, DhEphemeral, DhGroup, RsaKeyPair};
use unicore_gateway::{UserEntry, Uudb};
use unicore_resources::Architecture;
use unicore_sim::{format_time, SEC};
use unicore_simnet::wire_pair;
use unicore_transport::{
    client_handshake, server_handshake, Endpoint, RecordKeys, RecordType, SessionCache,
};

struct Pki {
    user_ep: Endpoint,
    server_ep: Endpoint,
}

fn pki() -> Pki {
    let mut rng = CryptoRng::from_u64(4);
    let mut ca = CertificateAuthority::new_root(
        DistinguishedName::new("DE", "DFN", "PCA", "Root"),
        Validity::starting_at(0, 1_000_000),
        512,
        &mut rng,
    );
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone()).unwrap();
    let trust = Arc::new(trust);
    let user = ca
        .issue_identity(
            DistinguishedName::new("DE", "FZJ", "ZAM", "user"),
            KeyUsage::user(),
            Validity::starting_at(0, 100_000),
            &mut rng,
        )
        .unwrap();
    let server = ca
        .issue_identity(
            DistinguishedName::new("DE", "FZJ", "ZAM", "gw"),
            KeyUsage::server(),
            Validity::starting_at(0, 100_000),
            &mut rng,
        )
        .unwrap();
    Pki {
        user_ep: Endpoint::new(user, trust.clone(), 10),
        server_ep: Endpoint::new(server, trust, 10),
    }
}

fn one_handshake(p: &Pki, cc: &SessionCache, sc: &SessionCache, seed: u64) -> bool {
    let (cw, sw) = wire_pair();
    let (client, server) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(seed).fork("s");
            server_handshake(sw, &p.server_ep, sc, &mut rng)
        });
        let mut rng = CryptoRng::from_u64(seed).fork("c");
        (
            client_handshake(cw, &p.user_ep, "FZJ", cc, &mut rng),
            h.join().unwrap(),
        )
    });
    let resumed = client.as_ref().map(|c| c.resumed()).unwrap_or(false);
    client.unwrap();
    server.unwrap();
    resumed
}

fn split_overhead_table() {
    println!("E9: firewall-split deployment overhead (simulated consign round trip):");
    println!("{:>12} {:>18}", "deployment", "consign RTT");
    for (label, split) in [("combined", false), ("split", true)] {
        let spec = if split {
            SiteSpec::simple("FZJ", "T3E", Architecture::CrayT3e).with_split()
        } else {
            SiteSpec::simple("FZJ", "T3E", Architecture::CrayT3e)
        };
        let mut fed = Federation::new(
            FederationConfig {
                handshake_bytes: 0, // isolate the relay cost
                ..FederationConfig::default()
            },
            &[spec],
        );
        fed.register_user(BENCH_DN, "bench");
        let mut job = unicore_ajo::AbstractJob::new(
            "ping",
            VsiteAddress::new("FZJ", "T3E"),
            bench_user_attrs(),
        );
        job.nodes.push((
            unicore_ajo::ActionId(1),
            unicore_ajo::GraphNode::Task(unicore_ajo::AbstractTask {
                name: "t".into(),
                resources: unicore_ajo::ResourceRequest::minimal().with_run_time(600),
                kind: unicore_ajo::TaskKind::Execute(unicore_ajo::ExecuteKind::Script {
                    script: "sleep 1\n".into(),
                }),
            }),
        ));
        let corr = fed.client_submit("FZJ", job, BENCH_DN);
        let mut rtt = None;
        // 100 µs observation steps so the LAN relay hop is resolvable.
        for _ in 0..20_000 {
            fed.run_until(fed.now() + SEC / 10_000);
            if fed.take_client_response(corr).is_some() {
                rtt = Some(fed.now());
                break;
            }
        }
        println!(
            "{:>12} {:>18}",
            label,
            rtt.map(format_time).unwrap_or_else(|| "timeout".into())
        );
    }
    println!();
}

fn print_tables() {
    println!("\n=== E4: security architecture (measured, real crypto) ===\n");
    let p = pki();
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);

    let t0 = Instant::now();
    let resumed_first = one_handshake(&p, &cc, &sc, 1);
    let full = t0.elapsed();
    let t1 = Instant::now();
    let resumed_second = one_handshake(&p, &cc, &sc, 2);
    let resumed_time = t1.elapsed();
    println!(
        "full handshake (mutual auth, 1024-bit DH, RSA-512): {full:?} (resumed={resumed_first})"
    );
    println!("abbreviated handshake (session resumption):          {resumed_time:?} (resumed={resumed_second})");
    println!(
        "resumption speedup: {:.0}x",
        full.as_secs_f64() / resumed_time.as_secs_f64().max(1e-9)
    );
    // What each end of a full handshake spends on key agreement: one
    // fixed-base public value, one general modexp against the peer's.
    let mut rng = CryptoRng::from_u64(5);
    let peer = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
    let t = Instant::now();
    let mine = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
    let generate = t.elapsed();
    let t = Instant::now();
    black_box(mine.agree(&peer.public).unwrap());
    println!(
        "1024-bit DH per end: public value {generate:?}, agreement {:?}\n",
        t.elapsed()
    );
    split_overhead_table();
}

fn benches(c: &mut Criterion) {
    let p = pki();

    let mut group = c.benchmark_group("e4_handshake");
    group.sample_size(20);
    group.bench_function("full", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                // Fresh caches each time: no resumption possible.
                let cc = SessionCache::new(2);
                let sc = SessionCache::new(2);
                let t = Instant::now();
                one_handshake(&p, &cc, &sc, 100 + i);
                total += t.elapsed();
            }
            total
        })
    });
    group.bench_function("resumed", |b| {
        let cc = SessionCache::new(2);
        let sc = SessionCache::new(2);
        one_handshake(&p, &cc, &sc, 7); // prime the caches
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for i in 0..iters {
                let t = Instant::now();
                let resumed = one_handshake(&p, &cc, &sc, 200 + i);
                total += t.elapsed();
                assert!(resumed);
            }
            total
        })
    });
    group.finish();

    // The key agreement alone (each end of a full handshake does both).
    let mut group = c.benchmark_group("e4_dh");
    group.sample_size(20);
    let mut rng = CryptoRng::from_u64(5);
    let peer = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
    group.bench_function("public_value", |b| {
        b.iter(|| black_box(DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng).public))
    });
    let mine = DhEphemeral::generate(DhGroup::oakley_group2(), &mut rng);
    group.bench_function("agree", |b| {
        b.iter(|| black_box(mine.agree(&peer.public).unwrap()))
    });
    group.finish();

    // What a chain check costs the first time (one RSA verification per
    // link) and every time after for a certificate a session cache holds
    // as validated (every check but that one).
    let mut group = c.benchmark_group("e4_chain");
    let chain = [p.user_ep.identity.cert.clone()];
    let trust = &p.server_ep.trust;
    group.bench_function("validate", |b| {
        b.iter(|| {
            black_box(
                trust
                    .validate(&chain, 10, RequiredUsage::ClientAuth)
                    .unwrap(),
            )
        })
    });
    let validated = trust
        .validate(&chain, 10, RequiredUsage::ClientAuth)
        .unwrap();
    group.bench_function("revalidate", |b| {
        b.iter(|| {
            trust
                .revalidate(black_box(&validated), 10, RequiredUsage::Any)
                .unwrap()
        })
    });
    group.finish();

    // Record protection throughput. Each id names the cipher and digest
    // kernels this process dispatched to, so a rate is never read without
    // knowing which path produced it.
    let kernels = format!(
        "chacha20={},sha256={}",
        chacha20::kernel_name(),
        sha256::kernel_name()
    );
    let mut group = c.benchmark_group("e4_record_layer");
    for size in [1usize << 10, 64 << 10, 1 << 20] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        let id = BenchmarkId::new(format!("seal[{kernels}]"), size);
        group.bench_with_input(id, &data, |b, data| {
            let mut keys = RecordKeys::derive(b"bench master", "c2s");
            b.iter(|| black_box(keys.seal(RecordType::Data, data)))
        });
        let id = BenchmarkId::new(format!("seal_open[{kernels}]"), size);
        group.bench_with_input(id, &data, |b, data| {
            b.iter_custom(|iters| {
                let mut tx = RecordKeys::derive(b"bench master", "c2s");
                let mut rx = RecordKeys::derive(b"bench master", "c2s");
                let t = Instant::now();
                for _ in 0..iters {
                    let rec = tx.seal(RecordType::Data, data);
                    black_box(rx.open(&rec).unwrap());
                }
                t.elapsed()
            })
        });
    }
    group.finish();

    // RSA primitives (the CA's and handshake's cost centre).
    let mut group = c.benchmark_group("e4_rsa");
    group.sample_size(20);
    let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(9));
    let msg = b"to-be-signed certificate body";
    let sig = kp.private.sign(msg).unwrap();
    group.bench_function("sign_512", |b| {
        b.iter(|| black_box(kp.private.sign(msg).unwrap()))
    });
    group.bench_function("verify_512", |b| {
        b.iter(|| {
            kp.public.verify(msg, &sig).unwrap();
            black_box(())
        })
    });
    group.finish();

    // UUDB mapping throughput (the gateway's per-request work).
    let mut group = c.benchmark_group("e4_gateway");
    let mut uudb = Uudb::new();
    for i in 0..10_000 {
        uudb.add(
            format!("C=DE, O=Load, OU=U, CN=user{i}"),
            UserEntry::new(format!("u{i}"), "users"),
        );
    }
    group.bench_function("uudb_map_10k_entries", |b| {
        b.iter(|| black_box(uudb.map("C=DE, O=Load, OU=U, CN=user5000", "T3E", Some("users"))))
    });
    group.finish();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
