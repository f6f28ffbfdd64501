//! E12 — consign fast-path throughput.
//!
//! The NJS sits on every job's critical path (§5.3: it "takes an
//! abstract job, splits it into job groups and distributes them"), so
//! per-consign overhead multiplies across every tier and every Usite
//! hop. This bench drives a sustained many-job burst across a two-site
//! federation with the write-ahead journal attached (the production
//! configuration), and reports jobs/sec plus per-job µs. The micro
//! groups isolate the layers the fast path crosses: DER encoding, the
//! record layer seal/open, the gateway UUDB mapping and the WAL consign
//! journal write.
//!
//! The `BASELINE_*` constants pin the numbers measured on the tree
//! *before* the change under test, so the emitted JSON carries the
//! before/after comparison. E18 re-pinned them to a fresh pre-sharding
//! measurement (the old pre-E13 values had drifted two PRs stale).
//!
//! E18 adds the *sharded core burst*: the same consign→terminal work
//! driven directly through a [`ShardedNjs`] (per-shard WAL segments
//! attached) without the federation's transport/crypto wrapping — the
//! step-loop throughput the sharding targets — on 1 shard and on 8.

use criterion::Criterion;
use std::hint::black_box;
use std::time::{Duration, Instant};
use unicore::{Federation, FederationConfig, Response, SiteSpec};
use unicore_ajo::DetailLevel;
use unicore_bench::{chain_job, BenchReport, BENCH_DN};
use unicore_codec::DerCodec;
use unicore_gateway::{Gateway, MappedUser, UserEntry, Uudb};
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend, OwnerRecord, StoreEvent};
use unicore_transport::record::{RecordKeys, RecordType};

/// Jobs per burst, alternating between the two sites.
const JOBS: usize = 32;
/// Timed rounds.
const ROUNDS: u64 = 6;
/// Runs per arm (telemetry off / on) in a round; each arm reports its minimum.
const ARM_RUNS: usize = 5;

/// Pre-sharding numbers, re-measured by this same bench on the tree
/// just before E18 (the previously pinned pre-E13 values — 1366.6 µs,
/// 732 jobs/sec — had drifted two PRs stale). `0.0` means "not yet
/// captured" and suppresses the comparison.
const BASELINE_PER_JOB_US: f64 = 1022.3;
const BASELINE_JOBS_PER_SEC: f64 = 978.2;

/// Sharded core burst shape: enough jobs that per-burst setup
/// amortizes, spread over 8 Vsites so 8 shards each own one.
const CORE_JOBS: usize = 512;
const CORE_VSITES: usize = 8;
/// E18's absolute throughput target for the sharded step loop.
const TARGET_JOBS_PER_SEC: f64 = 10_000.0;

fn build_fed(seed: u64, telemetry: bool) -> Federation {
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
    if telemetry {
        // Full observability: span/metric collection plus the E17
        // aggregation plane's heartbeat pushes.
        fed.enable_telemetry(seed);
    }
    fed.register_user(BENCH_DN, "bench");
    // Production configuration: every NJS journals to its write-ahead
    // spool, so the burst pays the real consign durability cost.
    for site in ["S0", "S1"] {
        let mem = MemoryBackend::new();
        let store = EventStore::open(Box::new(mem)).expect("open journal");
        fed.server_mut(site)
            .expect("site exists")
            .njs_mut()
            .attach_store(store);
    }
    fed
}

/// Fires all `JOBS` consigns up front, then drives the federation until
/// every job reaches a terminal state — a sustained burst rather than a
/// serial submit/wait loop. Returns real CPU time for the burst.
fn run_burst(seed: u64, telemetry: bool) -> Duration {
    let mut fed = build_fed(seed, telemetry);
    let t = Instant::now();
    let deadline = fed.now() + 4 * HOUR;

    let mut pending_acks = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        let site = if i % 2 == 0 { "S0" } else { "S1" };
        let mut job = chain_job(site, "V", 3, 30);
        job.name = format!("job{i}");
        pending_acks.push((site, fed.client_submit(site, job, BENCH_DN)));
    }

    let mut jobs = Vec::with_capacity(JOBS);
    while !pending_acks.is_empty() {
        assert!(fed.now() < deadline, "consign acks timed out");
        fed.run_until((fed.now() + 5 * SEC).min(deadline));
        pending_acks.retain(|&(site, corr)| match fed.take_client_response(corr) {
            Some(Response::Consigned { job }) => {
                jobs.push((site, job));
                false
            }
            Some(other) => panic!("consign refused: {other:?}"),
            None => true,
        });
    }

    while !jobs.is_empty() {
        assert!(fed.now() < deadline, "jobs timed out");
        let polls: Vec<_> = jobs
            .iter()
            .map(|&(site, job)| {
                (
                    site,
                    job,
                    fed.client_poll(site, BENCH_DN, job, DetailLevel::Tasks),
                )
            })
            .collect();
        fed.run_until((fed.now() + 5 * SEC).min(deadline));
        let mut done = Vec::new();
        for (site, job, corr) in polls {
            if let Some(resp) = fed.take_client_response(corr) {
                if let Some(outcome) = unicore::outcome_of(&resp) {
                    if outcome.status.is_terminal() {
                        assert!(outcome.status.is_success(), "{site} job failed");
                        done.push(job);
                    }
                }
            }
        }
        jobs.retain(|(_, job)| !done.contains(job));
    }
    t.elapsed()
}

/// Minimum of [`ARM_RUNS`] timed runs per arm (telemetry off, on) — the
/// robust estimator for CPU cost on a shared machine (noise only ever
/// adds time). The arms alternate run by run, so a noise episode lands
/// on both instead of biasing whichever arm it happened to cover.
fn interleaved_mins(seed: u64) -> (Duration, Duration) {
    let (mut off, mut on) = (Duration::MAX, Duration::MAX);
    for _ in 0..ARM_RUNS {
        off = off.min(run_burst(seed, false));
        on = on.min(run_burst(seed, true));
    }
    (off, on)
}

/// A sharded NJS with `CORE_VSITES` Vsites and one WAL segment per
/// shard — the E18 production shape, minus the federation wrapping.
fn build_core(shards: usize) -> ShardedNjs {
    let mut njs = ShardedNjs::new("HUB", shards, 1);
    for i in 0..CORE_VSITES {
        njs.add_vsite(
            deployment_page("HUB", &format!("V{i}"), Architecture::Generic),
            TranslationTable::for_architecture(Architecture::Generic),
        );
    }
    let stores = (0..njs.shard_count())
        .map(|_| EventStore::open(Box::new(MemoryBackend::new())).expect("open journal"))
        .collect();
    njs.attach_stores(stores);
    njs
}

/// Consigns `CORE_JOBS` three-task chains round-robin across the
/// Vsites, then steps the sharded fixpoint loop until every job is
/// terminal. Returns the real CPU time of the whole burst.
fn run_core_burst(shards: usize) -> Duration {
    let mut njs = build_core(shards);
    let user = MappedUser {
        dn: BENCH_DN.to_owned(),
        login: "bench".to_owned(),
        account_group: "users".to_owned(),
    };
    let t = Instant::now();
    let ids: Vec<_> = (0..CORE_JOBS)
        .map(|i| {
            let mut job = chain_job("HUB", &format!("V{}", i % CORE_VSITES), 3, 30);
            job.name = format!("job{i}");
            njs.consign(job, user.clone(), 0).expect("consign")
        })
        .collect();
    let mut now: SimTime = 0;
    let deadline = 4 * HOUR;
    loop {
        njs.step(now);
        if ids.iter().all(|&j| njs.is_done(j)) {
            break;
        }
        assert!(now < deadline, "core burst stalled at t={now}");
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + SEC);
    }
    t.elapsed()
}

fn core_jobs_per_sec(shards: usize) -> f64 {
    let best = (0..3).map(|_| run_core_burst(shards)).min().unwrap();
    CORE_JOBS as f64 / best.as_secs_f64()
}

fn print_tables() -> BenchReport {
    println!("\n=== E12: consign fast-path throughput ===\n");

    let mut total = Duration::ZERO;
    let mut total_tel = Duration::ZERO;
    for i in 0..ROUNDS {
        let (off, on) = interleaved_mins(i);
        total += off;
        total_tel += on;
    }
    let round = total.as_secs_f64() / ROUNDS as f64;
    let per_job_us = round * 1e6 / JOBS as f64;
    let jobs_per_sec = JOBS as f64 / round;
    let round_tel = total_tel.as_secs_f64() / ROUNDS as f64;
    let tel_overhead = (round_tel - round) / round * 100.0;
    let tel_verdict = if tel_overhead < 5.0 { "PASS" } else { "FAIL" };

    println!("two-site federated burst, {JOBS} jobs per round, {ROUNDS} rounds (min of {ARM_RUNS} per arm, arms interleaved):");
    println!("  burst round: {:?}", Duration::from_secs_f64(round));
    println!("  per job:     {per_job_us:.1} µs");
    println!("  throughput:  {jobs_per_sec:.0} jobs/sec");
    println!(
        "  with telemetry + aggregation plane: {:?}  (overhead {tel_overhead:+.2}%, target < 5%: {tel_verdict})",
        Duration::from_secs_f64(round_tel)
    );

    let mut report = BenchReport::new("e12_throughput");
    report
        .metric("rounds", ROUNDS as f64)
        .metric("jobs_per_round", JOBS as f64)
        .metric("round_us", round * 1e6)
        .metric("per_job_us", per_job_us)
        .metric("jobs_per_sec", jobs_per_sec)
        .metric("telemetry_round_us", round_tel * 1e6)
        .metric("telemetry_overhead_pct", tel_overhead)
        .metric("telemetry_target_pct", 5.0)
        .note("verdict_telemetry", tel_verdict)
        .note(
            "workload",
            "two-site federation, WAL attached; 32-job burst consigned up front then polled to completion",
        );
    if BASELINE_PER_JOB_US > 0.0 {
        let us_delta = (BASELINE_PER_JOB_US - per_job_us) / BASELINE_PER_JOB_US * 100.0;
        let tp_delta = (jobs_per_sec - BASELINE_JOBS_PER_SEC) / BASELINE_JOBS_PER_SEC * 100.0;
        // Regression gate against the freshly pinned pre-E18 numbers:
        // the federated path is transport-bound, so sharding is not
        // expected to move it — but it must not get slower.
        let verdict = if tp_delta >= -10.0 { "PASS" } else { "FAIL" };
        println!("  before (pre-E18): {BASELINE_PER_JOB_US:.1} µs/job, {BASELINE_JOBS_PER_SEC:.0} jobs/sec");
        println!("  per-job µs reduction: {us_delta:+.1}%   throughput gain: {tp_delta:+.1}%");
        println!("  regression gate (>= -10% throughput): {verdict}\n");
        report
            .metric("baseline_per_job_us", BASELINE_PER_JOB_US)
            .metric("baseline_jobs_per_sec", BASELINE_JOBS_PER_SEC)
            .metric("per_job_us_reduction_pct", us_delta)
            .metric("jobs_per_sec_gain_pct", tp_delta)
            .metric("regression_floor_pct", -10.0)
            .note("verdict_federated", verdict)
            .note(
                "baseline",
                "same bench on the pre-E18 tree (fresh single-thread re-pin)",
            );
    } else {
        println!("  (baseline capture run: no pre-PR numbers pinned yet)\n");
    }

    // E18 — the sharded core burst, one shard against one per Vsite.
    println!(
        "sharded core burst, {CORE_JOBS} jobs over {CORE_VSITES} Vsites, per-shard WAL (min of 3):"
    );
    let single = core_jobs_per_sec(1);
    println!("  1 shard:  {single:.0} jobs/sec");
    let sharded = core_jobs_per_sec(CORE_VSITES);
    println!("  {CORE_VSITES} shards: {sharded:.0} jobs/sec");
    let best = single.max(sharded);
    let verdict = if best >= TARGET_JOBS_PER_SEC || best >= 5.0 * single {
        "PASS"
    } else {
        "FAIL"
    };
    println!(
        "  best: {best:.0} jobs/sec — target >= {TARGET_JOBS_PER_SEC:.0} (or 5x one shard): {verdict}\n"
    );
    report
        .metric("sharded.one_shard_jobs_per_sec", single)
        .metric("sharded.jobs_per_sec", best)
        .metric("sharded.target_jobs_per_sec", TARGET_JOBS_PER_SEC)
        .metric("sharded.core_jobs", CORE_JOBS as f64)
        .metric("sharded.vsites", CORE_VSITES as f64)
        .note("verdict_sharded", verdict)
        .note(
            "sharded_workload",
            "direct ShardedNjs step loop on one thread, 1 shard vs 8 shards, per-shard WAL segments, 512 three-task chains",
        );
    report
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_throughput");

    // Layer 1 — codec: canonical DER of a realistic chained AJO.
    group.bench_function("ajo_to_der", |b| {
        let job = chain_job("S0", "V", 3, 30);
        b.iter(|| black_box(black_box(&job).to_der()));
    });

    // Layer 2 — transport: one record sealed and opened (1 KiB payload).
    group.bench_function("record_seal_open", |b| {
        let mut tx = RecordKeys::derive(b"e12 master secret", "client");
        let mut rx = RecordKeys::derive(b"e12 master secret", "client");
        let payload = vec![0xabu8; 1024];
        b.iter(|| {
            let record = tx.seal(RecordType::Data, black_box(&payload));
            black_box(rx.open(&record).expect("opens"));
        });
    });

    // Layer 3 — store: journalling one consign event.
    group.bench_function("wal_journal_consign", |b| {
        let mut store = EventStore::open(Box::new(MemoryBackend::new())).expect("open");
        let ajo_der = chain_job("S0", "V", 3, 30).to_der();
        let mut at = 0u64;
        b.iter(|| {
            let event = StoreEvent::JobConsigned {
                job: unicore_ajo::JobId(at),
                ajo_der: ajo_der.clone(),
                user: OwnerRecord {
                    dn: BENCH_DN.to_owned(),
                    login: "bench".to_owned(),
                    account_group: "users".to_owned(),
                },
                staged: Vec::new(),
                idem_key: vec![0u8; 32],
                parent: None,
                foreign: None,
                at,
            };
            store.append(&event).expect("append");
            at += 1;
        });
    });

    // Layer 4 — gateway: the hot DN -> login mapping on every request.
    group.bench_function("gateway_authorize_dn", |b| {
        let mut uudb = Uudb::new();
        uudb.add(BENCH_DN, UserEntry::new("bench", "users"));
        let mut gateway = Gateway::new("S0", uudb);
        let mut now = 0u64;
        b.iter(|| {
            let decision = gateway.authorize_dn(black_box(BENCH_DN), "V", None, now);
            assert!(decision.is_accepted());
            now += 1;
        });
    });

    group.finish();
}

fn main() {
    let mut report = print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
    // Copy each micro benchmark's min/p50/p99 into the JSON report, so
    // the machine-readable results carry tail latency, not just the
    // min-of-N headline.
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
