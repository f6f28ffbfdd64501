//! E2 — Figure 2: multi-site distribution.
//!
//! A job whose job groups fan out to N Usites: simulated makespan and
//! message counts as the federation grows, plus the any-server-entry
//! property, then a Criterion measurement of the federation engine's real
//! cost per simulated fan-out.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_ajo::{AbstractJob, ActionId, GraphNode, VsiteAddress};
use unicore_bench::{bench_user_attrs, chain_job, BENCH_DN};
use unicore_resources::Architecture;
use unicore_sim::{format_time, HOUR, SEC};

fn specs(n: usize) -> Vec<SiteSpec> {
    (0..n)
        .map(|i| SiteSpec::simple(&format!("S{i}"), "V", Architecture::Generic))
        .collect()
}

/// A root job at S0 whose sub-jobs (3 tasks × 60 s each) run at every
/// other site.
fn fanout_job(n_sites: usize) -> AbstractJob {
    let mut job = AbstractJob::new("fanout", VsiteAddress::new("S0", "V"), bench_user_attrs());
    for i in 1..n_sites {
        let mut sub = chain_job(&format!("S{i}"), "V", 3, 60);
        sub.name = format!("part@S{i}");
        job.nodes.push((ActionId(i as u64), GraphNode::SubJob(sub)));
    }
    job
}

/// `(makespan, protocol envelopes, network messages, ok)`.
fn run_fanout(n_sites: usize, seed: u64) -> (u64, u64, u64, bool) {
    let mut fed = Federation::new(
        FederationConfig {
            seed,
            ..FederationConfig::default()
        },
        &specs(n_sites),
    );
    fed.register_user(BENCH_DN, "bench");
    let result = fed.submit_and_wait("S0", fanout_job(n_sites), BENCH_DN, 5 * SEC, 2 * HOUR);
    let ok = result
        .map(|(_, o, _)| o.status.is_success())
        .unwrap_or(false);
    (fed.now(), fed.envelopes_sent, fed.messages_sent, ok)
}

fn print_tables() {
    println!("\n=== E2: multi-site federation scaling (Figure 2) ===\n");
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>8}",
        "sites", "makespan", "envelopes", "messages", "ok"
    );
    for n in [2usize, 3, 5, 9, 13] {
        let (t, envelopes, msgs, ok) = run_fanout(n, 2);
        println!(
            "{:>8} {:>14} {:>12} {:>12} {:>8}",
            n,
            format_time(t),
            envelopes,
            msgs,
            ok
        );
    }
    println!("\n(sub-jobs run concurrently at all sites: makespan stays ~flat");
    println!(" while envelope and message counts grow linearly — the distribution");
    println!(" property; a message is one record per peer per tick)");

    // Any-server entry: the IDENTICAL job (root destined for S0) consigned
    // via every gateway — entry servers route it onward (Figure 2).
    println!("\nany-server entry (same S0-rooted job via each gateway):");
    for entry in 0..5 {
        let mut fed = Federation::new(FederationConfig::default(), &specs(5));
        fed.register_user(BENCH_DN, "bench");
        let via = format!("S{entry}");
        let ok = fed
            .submit_and_wait(&via, fanout_job(5), BENCH_DN, 5 * SEC, 2 * HOUR)
            .map(|(_, o, _)| o.status.is_success())
            .unwrap_or(false);
        println!("  via {via}: {}", if ok { "completed" } else { "FAILED" });
    }
    println!();
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_fanout_sim");
    group.sample_size(10);
    for n in [2usize, 5, 9] {
        group.bench_with_input(BenchmarkId::new("sites", n), &n, |b, &n| {
            b.iter(|| black_box(run_fanout(n, 3)))
        });
    }
    group.finish();
}

fn main() {
    print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
