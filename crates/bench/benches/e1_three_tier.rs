//! E1 — Figure 1: the three-tier submission path.
//!
//! Prints the per-tier breakdown of a standard job's life (user level →
//! server level → batch subsystem and back) in simulated time, then
//! measures the real CPU cost of each server-side stage.

use criterion::Criterion;
use std::hint::black_box;
use unicore::protocol::Request;
use unicore::server::UnicoreServer;
use unicore::{Federation, FederationConfig};
use unicore_ajo::{DetailLevel, VsiteAddress};
use unicore_bench::{bench_mapped_user, bench_user_attrs, chain_job, BENCH_DN};
use unicore_client::JobPreparationAgent;
use unicore_codec::DerCodec;
use unicore_gateway::{Gateway, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture, ResourceDirectory};
use unicore_sim::{format_time, HOUR, SEC};

fn make_server() -> UnicoreServer {
    let mut njs = ShardedNjs::new("FZJ", 1, 1);
    njs.add_vsite(
        deployment_page("FZJ", "T3E", Architecture::CrayT3e),
        TranslationTable::for_architecture(Architecture::CrayT3e),
    );
    let mut uudb = Uudb::new();
    uudb.add(BENCH_DN, UserEntry::new("bench", "users"));
    UnicoreServer::new(Gateway::new("FZJ", uudb), njs)
}

fn print_tables() {
    println!("\n=== E1: three-tier submission path (Figure 1) ===\n");

    // Simulated end-to-end: a 3-task chain (30 s of work each) through
    // the full federation (WAN + gateway + NJS + batch + polling JMC).
    let mut fed = Federation::german_deployment(FederationConfig::default());
    fed.register_user(BENCH_DN, "bench");
    let job = chain_job("FZJ", "T3E", 3, 30);
    let t_submit = fed.now();
    let (_, outcome, t_done) = fed
        .submit_and_wait("FZJ", job, BENCH_DN, 5 * SEC, HOUR)
        .expect("completes");
    assert!(outcome.status.is_success());
    println!(
        "end-to-end (3×30 s chain via WAN, incl. polling): {}",
        format_time(t_done - t_submit)
    );
    println!("  pure compute: 90 s; overhead = latency + handshake + poll quantisation\n");

    // Per-tier breakdown on a local server (no WAN).
    let mut server = make_server();
    let ajo = chain_job("FZJ", "T3E", 3, 30);
    let der = ajo.to_der();
    println!("per-stage (in-process server, real CPU):");
    let t = std::time::Instant::now();
    let decoded = unicore_ajo::AbstractJob::from_der(&der).unwrap();
    println!(
        "  tier 1→2  AJO decode ({} bytes): {:?}",
        der.len(),
        t.elapsed()
    );
    let t = std::time::Instant::now();
    let resp = server.handle_request(BENCH_DN, Request::Consign { ajo: decoded }, 0);
    println!(
        "  tier 2    gateway map + NJS consign: {:?} ({resp:?})",
        t.elapsed()
    );
    let t = std::time::Instant::now();
    let mut now = 0;
    server.step(now);
    while !server.is_done(unicore_ajo::JobId(1)) {
        now = server.next_event_time().unwrap_or(now + SEC);
        server.step(now);
    }
    println!(
        "  tier 3    batch execution: {} simulated ({:?} real)",
        format_time(now),
        t.elapsed()
    );
    println!();
}

fn benches(c: &mut Criterion) {
    let jpa = JobPreparationAgent::new(bench_user_attrs(), ResourceDirectory::new());

    let mut group = c.benchmark_group("e1_stages");
    // User level: JPA job construction.
    group.bench_function("jpa_build_3_task_job", |b| {
        b.iter(|| {
            let mut builder = jpa.new_job("bench", VsiteAddress::new("FZJ", "T3E"));
            let a = builder.script_task(
                "a",
                "sleep 30\n",
                unicore_ajo::ResourceRequest::minimal().with_run_time(3_600),
            );
            let bb = builder.script_task(
                "b",
                "sleep 30\n",
                unicore_ajo::ResourceRequest::minimal().with_run_time(3_600),
            );
            builder.after(a, bb);
            black_box(builder.build().unwrap())
        })
    });
    // Server level: consign (gateway + admission + Uspace creation).
    group.bench_function("server_consign", |b| {
        let ajo = chain_job("FZJ", "T3E", 3, 30);
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let mut server = make_server();
                let t = std::time::Instant::now();
                black_box(server.handle_request(
                    BENCH_DN,
                    Request::Consign { ajo: ajo.clone() },
                    0,
                ));
                total += t.elapsed();
            }
            total
        })
    });
    // Server level: a status poll on a live job.
    group.bench_function("server_poll", |b| {
        let mut server = make_server();
        let resp = server.handle_request(
            BENCH_DN,
            Request::Consign {
                ajo: chain_job("FZJ", "T3E", 10, 30),
            },
            0,
        );
        let unicore::Response::Consigned { job } = resp else {
            panic!()
        };
        server.step(0);
        b.iter(|| {
            black_box(server.handle_request(
                BENCH_DN,
                Request::Poll {
                    job,
                    detail: DetailLevel::Tasks,
                },
                SEC,
            ))
        })
    });
    group.finish();

    // Direct NJS consign (no protocol framing) for comparison.
    let mut group = c.benchmark_group("e1_njs_only");
    group.bench_function("njs_consign_3_tasks", |b| {
        let ajo = chain_job("FZJ", "T3E", 3, 30);
        b.iter_custom(|iters| {
            let mut total = std::time::Duration::ZERO;
            for _ in 0..iters {
                let mut njs = ShardedNjs::new("FZJ", 1, 1);
                njs.add_vsite(
                    deployment_page("FZJ", "T3E", Architecture::CrayT3e),
                    TranslationTable::for_architecture(Architecture::CrayT3e),
                );
                let t = std::time::Instant::now();
                black_box(njs.consign(ajo.clone(), bench_mapped_user(), 0).unwrap());
                total += t.elapsed();
            }
            total
        })
    });
    group.finish();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
