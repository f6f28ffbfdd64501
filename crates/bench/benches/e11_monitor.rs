//! E11 — monitoring-plane overhead.
//!
//! The grid monitor view (§ E12 of DESIGN.md) is meant to be watched
//! continuously by operators, so a JMC polling `Monitor { grid: true }`
//! must not tax the submission path it observes. This bench runs the
//! identical two-site federated workload with and without an aggressive
//! concurrent monitor poller, prints the relative submission-path
//! overhead (<5% target), and measures the building blocks on their own:
//! assembling a `MonitorReport`, its DER round-trip, and a flight
//! recorder append.

use criterion::Criterion;
use std::hint::black_box;
use std::time::{Duration, Instant};
use unicore::{Federation, FederationConfig, SiteSpec};
use unicore_bench::{chain_job, BenchReport, BENCH_DN};
use unicore_codec::DerCodec;
use unicore_resources::Architecture;
use unicore_sim::{HOUR, SEC};
use unicore_telemetry::FlightRecorder;

/// Jobs per workload round, alternating between the two sites.
const JOBS: usize = 24;
/// A grid monitor poll fires before every `POLL_EVERY`-th submission —
/// an operator keeping one auto-refreshing grid view open while a
/// steady stream of work flows.
const POLL_EVERY: usize = 12;

fn build_fed(seed: u64) -> Federation {
    let specs = [
        SiteSpec::simple("S0", "V", Architecture::Generic),
        SiteSpec::simple("S1", "V", Architecture::Generic),
    ];
    let mut fed = Federation::new(
        FederationConfig {
            seed,
            ..FederationConfig::default()
        },
        &specs,
    );
    fed.enable_telemetry(seed);
    fed.register_user(BENCH_DN, "bench");
    fed
}

/// Runs `JOBS` federated submissions back to back; when `monitored` a
/// grid-wide monitor query is fired before every `POLL_EVERY`-th
/// submission (the JMC polling while work flows). Returns real CPU time
/// for the workload.
fn run_workload(monitored: bool, seed: u64) -> Duration {
    let mut fed = build_fed(seed);
    let mut monitor_corrs = Vec::new();
    let t = Instant::now();
    for i in 0..JOBS {
        if monitored && i % POLL_EVERY == 0 {
            monitor_corrs.push(fed.client_monitor("S0", BENCH_DN, true));
        }
        let site = if i % 2 == 0 { "S0" } else { "S1" };
        let mut job = chain_job(site, "V", 3, 30);
        job.name = format!("job{i}");
        let (_, outcome, _) = fed
            .submit_and_wait(site, job, BENCH_DN, 5 * SEC, 2 * HOUR)
            .expect("completes");
        assert!(outcome.status.is_success());
    }
    for corr in monitor_corrs {
        // Every monitor poll must have been answered along the way with
        // an aggregated grid view.
        let resp = fed.take_client_response(corr).expect("monitor answered");
        assert!(unicore::protocol::grid_view_of(&resp).is_some());
    }
    t.elapsed()
}

/// Minimum of three timed runs — the robust estimator for CPU cost on a
/// shared machine (noise only ever adds time).
fn min_of_3(monitored: bool, seed: u64) -> Duration {
    (0..3).map(|_| run_workload(monitored, seed)).min().unwrap()
}

/// Steady-state CPU cost of one grid monitor poll against a federation
/// whose registries carry a full workload's history. Integrating over
/// many polls makes this robust to scheduler noise, unlike differencing
/// two whole-workload timings (where ms-scale noise swamps µs-scale
/// signal).
fn per_poll_cost(fed: &mut Federation) -> Duration {
    for _ in 0..32 {
        let corr = fed.client_monitor("S0", BENCH_DN, true);
        fed.run_until(fed.now() + 5 * SEC);
        fed.take_client_response(corr).expect("monitor answered");
    }
    const POLLS: u32 = 256;
    let t = Instant::now();
    for _ in 0..POLLS {
        let corr = fed.client_monitor("S0", BENCH_DN, true);
        fed.run_until(fed.now() + 5 * SEC);
        fed.take_client_response(corr).expect("monitor answered");
    }
    let with_poll = t.elapsed();
    // Subtract the cost of just advancing the clock.
    let t = Instant::now();
    for _ in 0..POLLS {
        fed.run_until(fed.now() + 5 * SEC);
    }
    let idle = t.elapsed();
    (with_poll.saturating_sub(idle)) / POLLS
}

fn print_tables() -> BenchReport {
    println!("\n=== E11: monitoring-plane overhead ===\n");

    // Correctness under load: every poll fired during a live workload is
    // answered with a merged grid view (asserted inside run_workload).
    run_workload(true, 99);

    const ROUNDS: u64 = 8;
    run_workload(false, 0);
    let mut plain = Duration::ZERO;
    for i in 0..ROUNDS {
        plain += min_of_3(false, i);
    }
    let plain_round = plain.as_secs_f64() / ROUNDS as f64;

    // Per-poll cost against a loaded federation (registries carry the
    // full workload's spans, histograms and counters).
    let mut fed = build_fed(0);
    for i in 0..JOBS {
        let site = if i % 2 == 0 { "S0" } else { "S1" };
        let mut job = chain_job(site, "V", 3, 30);
        job.name = format!("job{i}");
        let (_, outcome, _) = fed
            .submit_and_wait(site, job, BENCH_DN, 5 * SEC, 2 * HOUR)
            .expect("completes");
        assert!(outcome.status.is_success());
    }
    let poll = per_poll_cost(&mut fed);

    let polls = JOBS.div_ceil(POLL_EVERY);
    let overhead = polls as f64 * poll.as_secs_f64() / plain_round * 100.0;
    let verdict = if overhead < 5.0 { "PASS" } else { "FAIL" };
    println!("two-site workload, {JOBS} jobs per round, {ROUNDS} rounds (min of 3 each):");
    println!(
        "  submission path: {:?}/round",
        Duration::from_secs_f64(plain_round)
    );
    println!("  grid monitor poll (steady state, loaded registries): {poll:?}");
    println!("  JMC polling cadence: {polls} grid polls per {JOBS} submissions");
    println!("  submission-path overhead: {overhead:+.2}%  (target < 5%: {verdict})\n");

    let mut report = BenchReport::new("e11_monitor");
    report
        .metric("rounds", ROUNDS as f64)
        .metric("jobs_per_round", JOBS as f64)
        .metric("polls_per_round", polls as f64)
        .metric("plain_round_us", plain_round * 1e6)
        .metric("per_poll_us", poll.as_secs_f64() * 1e6)
        .metric("overhead_pct", overhead)
        .metric("target_pct", 5.0)
        .note("verdict", verdict)
        .note(
            "workload",
            "two-site federation; grid Monitor polled while submissions flow",
        );
    report
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_monitor");

    // Assembling one site's report from a live registry: the work a
    // Monitor request costs the answering server.
    group.bench_function("monitor_report_build", |b| {
        let mut fed = build_fed(7);
        let (_, outcome, _) = fed
            .submit_and_wait(
                "S0",
                chain_job("S0", "V", 3, 30),
                BENCH_DN,
                5 * SEC,
                2 * HOUR,
            )
            .expect("completes");
        assert!(outcome.status.is_success());
        let now = fed.now();
        let server = fed.server("S0").unwrap();
        b.iter(|| black_box(server.monitor_report(now)));
    });

    // The wire cost of the merged view: DER encode + decode.
    group.bench_function("monitor_report_der_round_trip", |b| {
        let mut fed = build_fed(7);
        let (_, outcome, _) = fed
            .submit_and_wait(
                "S0",
                chain_job("S0", "V", 3, 30),
                BENCH_DN,
                5 * SEC,
                2 * HOUR,
            )
            .expect("completes");
        assert!(outcome.status.is_success());
        let report = fed.server("S0").unwrap().monitor_report(fed.now());
        b.iter(|| {
            let der = black_box(&report).to_der();
            black_box(unicore_ajo::MonitorReport::from_der(&der).unwrap());
        });
    });

    // One flight-recorder append on the dispatch path.
    group.bench_function("flight_record_append", |b| {
        let flight = FlightRecorder::bounded(32);
        let mut at = 0u64;
        b.iter(|| {
            flight.record(
                black_box(1),
                at,
                "njs.dispatch",
                format_args!("node {} -> V:batch", black_box(3)),
            );
            at += 1;
        });
    });
    // The same call with the recorder off — what success paths pay.
    group.bench_function("flight_record_disabled", |b| {
        let flight = FlightRecorder::disabled();
        b.iter(|| {
            flight.record(
                black_box(1),
                0,
                "njs.dispatch",
                format_args!("node {} -> V:batch", black_box(3)),
            )
        });
    });
    group.finish();
}

fn main() {
    let mut report = print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
    // Tail latency of the building blocks, from the shim's per-sample
    // records.
    for s in criterion::take_recorded() {
        let key = s.name.replace('/', ".");
        report
            .metric(&format!("{key}.min_us"), s.min * 1e6)
            .metric(&format!("{key}.p50_us"), s.p50 * 1e6)
            .metric(&format!("{key}.p99_us"), s.p99 * 1e6);
    }
    match report.write() {
        Ok(path) => println!("machine-readable results: {}", path.display()),
        Err(e) => eprintln!("could not write bench report: {e}"),
    }
}
