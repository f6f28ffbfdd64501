//! The measuring loop every workload runs under: fixture, warm-up, a
//! fixed timed window of closed-loop batches, verification, metrics.

use crate::env::{self, EnvRecord};
use crate::stats;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use unicore_crypto::Sha256;

/// Fixture builds per untraced run, done in two rounds: one before the
/// warm-up, one after the timed window. Each round makes at least the
/// minimum, then as many as fit its budget. `setup_s` is the fastest of
/// them all, by the same reasoning as [`QUIET_SHARE`]: a set-up of a few
/// milliseconds is at the mercy of every hiccup of a shared machine, and
/// only its undisturbed repeats say what the program itself costs. (The
/// median of ten runs' lower quartiles still moved 35 % between two sets
/// of runs a quarter of an hour apart.)
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(400);
/// Input index of the batch that ends the fixture phase.
const FIRST_SERVICE_INDEX: u64 = WARMUP_INDEX_BASE - 1;
/// Warm-up as a share of the timed window (the contract's time cap
/// shortened the issue's 2 s warm-up with the window, uniformly).
const WARMUP_SHARE: f64 = 1.0 / 12.0;
/// Throughput and latency are medians over the fastest this-share of the
/// window's batches (at least [`QUIET_MIN_BATCHES`]). On the shared
/// reference box the machine's own speed wanders by up to 1.7x over tens
/// of seconds (a fixed CPU loop shows it); interference only ever slows a
/// batch, so the fastest batches are the sample of the *program's* speed.
/// Measured on 6 same-seed runs of `live_consign`: the plain median of
/// batch rates spread 9 % from run to run, the median of the fastest
/// tenth 4.9 %, of the fastest fiftieth 2.5 %.
const QUIET_SHARE: f64 = 0.02;
const QUIET_MIN_BATCHES: usize = 8;
/// Counts, simulated times and call counts are taken over the first
/// this-many timed batches only. Their inputs are a pure function of
/// (seed, batch index), so those numbers repeat exactly from run to run
/// however many batches the window's wall clock had room for.
pub const EXACT_BATCHES: u64 = 8;
/// Warm-up batches draw their inputs from a separate index range, so
/// timed batch `j` sees the same inputs whatever the warm-up's length.
const WARMUP_INDEX_BASE: u64 = 1 << 32;

/// What one closed-loop batch did.
#[derive(Default)]
pub struct BatchOut {
    /// Operations attempted (jobs, connect cycles, transfers).
    pub ops: u64,
    /// Operations that failed, were refused, or failed verification.
    pub failed: u64,
    /// Wall time of each primary client request, in ns.
    pub request_ns: Vec<u64>,
    /// Terminal outcome DER of every job of the batch (kept for batch 0
    /// only, where the digest is taken).
    pub outcomes: Vec<Vec<u8>>,
    /// Exact counts and simulated times the batch observed, summed by
    /// name over the window.
    pub counts: BTreeMap<&'static str, f64>,
    /// Simulated-time samples whose median is reported, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Wall-clock samples (µs) the batch took off the harness thread,
    /// where no span can reach; median over the whole window.
    pub timings: BTreeMap<&'static str, Vec<f64>>,
}

impl BatchOut {
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn timing(&mut self, name: &'static str, us: f64) {
        self.timings.entry(name).or_default().push(us);
    }

    /// Records one operation's verification verdict.
    pub fn verify(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("gridbench: verification failed: {what}");
        }
    }
}

/// Everything the timed window accumulated for one fixture. Timings
/// cover the whole window; the exact part covers its first
/// [`EXACT_BATCHES`] batches.
#[derive(Default)]
pub struct WindowTotals {
    pub ops: u64,
    pub batches: u64,
    pub busy: Duration,
    pub rates: Vec<f64>,
    pub request_ns: Vec<u64>,
    /// End offset into `request_ns` of each batch's samples.
    request_ends: Vec<usize>,
    /// Operations of the batches the exact part covers.
    pub exact_ops: u64,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    timings: BTreeMap<&'static str, Vec<f64>>,
    /// Harness span call counts when the exact part closed.
    calls: BTreeMap<&'static str, u64>,
}

impl WindowTotals {
    fn absorb(&mut self, out: BatchOut, wall: Duration, tracer: &Tracer) {
        self.ops += out.ops;
        self.batches += 1;
        self.busy += wall;
        self.rates.push(out.ops as f64 / wall.as_secs_f64());
        self.request_ns.extend(out.request_ns);
        self.request_ends.push(self.request_ns.len());
        for (k, v) in out.timings {
            self.timings.entry(k).or_default().extend(v);
        }
        if self.batches <= EXACT_BATCHES {
            self.exact_ops += out.ops;
            for (k, v) in out.counts {
                *self.counts.entry(k).or_default() += v;
            }
            for (k, v) in out.samples {
                self.samples.entry(k).or_default().extend(v);
            }
            self.calls = tracer.totals().iter().map(|(k, v)| (*k, v.count)).collect();
        }
    }

    /// Request samples of batch `i`.
    fn requests_of(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.request_ends[i - 1] };
        &self.request_ns[start..self.request_ends[i]]
    }

    /// Indices of the quiet batches: the fastest [`QUIET_SHARE`].
    fn quiet_batches(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.rates.len()).collect();
        order.sort_by(|&a, &b| self.rates[b].total_cmp(&self.rates[a]));
        let keep = ((order.len() as f64 * QUIET_SHARE).ceil() as usize).max(QUIET_MIN_BATCHES);
        order.truncate(keep.min(order.len()));
        order
    }

    /// Median batch rate over the quiet batches.
    pub fn quiet_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .quiet_batches()
            .iter()
            .map(|&i| self.rates[i])
            .collect();
        stats::median(&rates)
    }

    /// Median request time (ns) over the quiet batches' samples.
    pub fn quiet_request_ns(&self) -> f64 {
        let samples: Vec<u64> = self
            .quiet_batches()
            .iter()
            .flat_map(|&i| self.requests_of(i).iter().copied())
            .collect();
        stats::median_ns(&samples)
    }

    /// `(rate, median request µs)` of every batch, in window order.
    pub fn batch_log(&self) -> Vec<(f64, f64)> {
        (0..self.rates.len())
            .map(|i| (self.rates[i], stats::median_ns(self.requests_of(i)) / 1e3))
            .collect()
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Calls of harness span `name` over the exact part.
    pub fn calls(&self, name: &str) -> f64 {
        self.calls.get(name).copied().unwrap_or(0) as f64
    }

    pub fn per_op(&self, name: &str) -> f64 {
        if self.exact_ops == 0 {
            0.0
        } else {
            self.count(name) / self.exact_ops as f64
        }
    }

    pub fn sample_median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| stats::median(v))
    }

    pub fn timing_median(&self, name: &str) -> f64 {
        self.timings.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Wall-clock µs per operation over the batches themselves.
    pub fn us_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.busy.as_secs_f64() * 1e6 / self.ops as f64
        }
    }
}

/// Named results: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_owned(), value, unit),
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// One workload: a fixture built from seeded inputs, driven batch by
/// batch. All six implement this; the loop below is shared.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Threads the workload keeps busy at once (harness thread included).
    fn threads() -> usize;
    /// Whether the workload's threads hold a conversation (a handshake)
    /// and are therefore kept on one CPU; see [`crate::affinity`].
    const ONE_CPU: bool = false;
    /// Batches after which the server-side state is rebuilt, so what a
    /// long-running site accumulates (journal, accounting, reply caches)
    /// is bounded by a fixed number of operations, not by how fast the
    /// window went.
    const EPOCH_BATCHES: u64;

    /// Builds the fixture. `collect` turns the product's own
    /// `Telemetry::collecting` on (the traced run).
    fn setup(seed: u64, collect: bool) -> Self;
    /// Rebuilds the server-side state (untimed, between batches).
    fn renew(&mut self);
    /// Generates batch `index`'s inputs from the seed (untimed: input
    /// generation is the harness's work, not the program's).
    fn prepare(&mut self, index: u64);
    /// Runs the prepared closed-loop batch; `keep` asks for the terminal
    /// outcome DERs.
    fn batch(&mut self, index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut);
    /// Verification too heavy to sit inside the batch timer (whole-file
    /// checksums, a reference run); called once the timer has stopped.
    fn check(&mut self, _out: &mut BatchOut) {}
    /// Per-layer metrics only this workload can produce (product
    /// counters, isolated probes on its own input sizes).
    fn layer_metrics(&mut self, totals: &WindowTotals, tracer: &Tracer, m: &mut Metrics);
}

pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One batch per fixture instead of a timed window.
    pub smoke: bool,
    pub keep_raw_spans: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub env: EnvRecord,
    pub threads: usize,
    pub noisy: bool,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub batches: u64,
    pub request_samples: usize,
    pub drift: f64,
    pub digest: String,
    pub metrics: Metrics,
    /// `(percentile, µs)` of the request latency tail, when supported.
    pub tail: Option<(f64, f64)>,
    /// `(rate, median request µs)` per timed batch.
    pub batch_log: Vec<(f64, f64)>,
    pub tracer: Tracer,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

struct Driven<W: Workload> {
    fixture: W,
    tracer: Tracer,
    warm_batches: u64,
    totals: WindowTotals,
    digest: Option<String>,
    /// Failed operations of every batch driven, warm-up included.
    failed: u64,
}

impl<W: Workload> Driven<W> {
    fn new(fixture: W, tracer: Tracer) -> Self {
        Driven {
            fixture,
            tracer,
            warm_batches: 0,
            totals: WindowTotals::default(),
            digest: None,
            failed: 0,
        }
    }

    fn one_batch(&mut self, timed: bool) {
        // The timed window starts on a fresh epoch, so timed batch `j`
        // meets the same server-side history in every run.
        let (position, index) = if timed {
            (self.totals.batches, self.totals.batches)
        } else {
            (self.warm_batches, WARMUP_INDEX_BASE + self.warm_batches)
        };
        if position % W::EPOCH_BATCHES == 0 && (timed || position > 0) {
            self.fixture.renew();
        }
        let keep = timed && index == 0;
        let mut out = BatchOut::default();
        // Warm-up batches run with a throw-away tracer so the table holds
        // the timed window only.
        let mut scratch = Tracer::off();
        let tracer = if timed {
            &mut self.tracer
        } else {
            &mut scratch
        };
        self.fixture.prepare(index);
        let t = Instant::now();
        self.fixture.batch(index, keep, tracer, &mut out);
        let wall = t.elapsed();
        self.fixture.check(&mut out);
        if keep {
            self.digest = Some(outcome_digest(&mut out.outcomes));
        }
        self.failed += out.failed;
        if timed {
            self.totals.absorb(out, wall, &self.tracer);
        } else {
            self.warm_batches += 1;
        }
    }
}

/// One round of fixture builds, `done` of which the caller makes itself.
fn setup_round(done: usize, mut build: impl FnMut()) {
    let started = Instant::now();
    for n in done..SETUP_MAX_REPEATS {
        if n >= SETUP_MIN_REPEATS && started.elapsed() >= SETUP_BUDGET {
            break;
        }
        build();
    }
}

/// SHA-256 over the sorted terminal-outcome DERs of one batch.
fn outcome_digest(outcomes: &mut [Vec<u8>]) -> String {
    outcomes.sort();
    let mut h = Sha256::new();
    for o in outcomes.iter() {
        h.update(&(o.len() as u64).to_be_bytes());
        h.update(o);
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs one workload, untraced (end-to-end metrics) or traced (per-layer
/// metrics).
///
/// The traced run drives two fixtures in alternation — an untraced twin
/// and the traced one — so the tracing overhead is a paired difference
/// inside one process rather than a comparison across two.
pub fn run<W: Workload>(opts: &RunOptions) -> RunResult {
    let env = EnvRecord::capture();
    let threads = W::threads();
    // The in-process smoke run must not leave later workloads pinned.
    if W::ONE_CPU && !opts.smoke && crate::affinity::pin_to_one_cpu().is_none() {
        eprintln!(
            "gridbench: could not pin to one CPU; handshake times will include cross-core wake-ups"
        );
    }
    let noisy = env.noisy(threads);
    if noisy {
        eprintln!(
            "gridbench: NOISY: load {:.2}, {} threads on {} cores",
            env.load_1m, threads, env.nproc
        );
    }

    // Fixture phase: build, then serve one batch. A site is set up when
    // it has answered its first burst (first contact pays the full
    // handshake, cold caches fill), not when its constructors return.
    let mut setup_times = Vec::new();
    let mut failed_in_setup = 0;
    let mut build = |collect: bool| {
        let t = Instant::now();
        let mut fixture = W::setup(opts.seed, collect);
        // (The smoke run's single timed batch already is first service.)
        if !opts.smoke {
            let mut out = BatchOut::default();
            fixture.prepare(FIRST_SERVICE_INDEX);
            fixture.batch(FIRST_SERVICE_INDEX, false, &mut Tracer::off(), &mut out);
            setup_times.push(t.elapsed().as_secs_f64());
            fixture.check(&mut out);
            failed_in_setup += out.failed;
        }
        fixture
    };
    let mut lanes = Vec::new();
    if opts.smoke {
        // One lane, one batch: API coverage, no measurement.
    } else if opts.traced {
        lanes.push(Driven::new(build(false), Tracer::off()));
    } else {
        // The measured fixture below is this round's last build.
        setup_round(1, || drop(build(false)));
    }
    lanes.push(Driven::new(
        build(opts.traced),
        Tracer::new(opts.traced, opts.keep_raw_spans),
    ));

    // Warm-up, then the timed window; lanes alternate batch by batch.
    let warmup = Duration::from_secs_f64(opts.seconds * WARMUP_SHARE);
    let window = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while !opts.smoke && start.elapsed() < warmup {
        for lane in &mut lanes {
            lane.one_batch(false);
        }
    }
    let cpu0 = env::cpu_seconds();
    let start = Instant::now();
    loop {
        for lane in &mut lanes {
            lane.one_batch(true);
        }
        if opts.smoke || start.elapsed() >= window {
            break;
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = env::cpu_seconds() - cpu0;
    let peak_rss_mb = env::peak_rss_mb();
    if !opts.traced && !opts.smoke {
        setup_round(0, || drop(build(false)));
    }

    let mut measured = lanes.pop().expect("measured lane");
    let twin = lanes.pop();
    let totals = &measured.totals;
    let ops_per_s = totals.quiet_rate();
    let all_ops = totals.ops + twin.as_ref().map_or(0, |t| t.totals.ops);

    let mut m = Metrics::default();
    if opts.traced {
        let base = twin.as_ref().map_or(ops_per_s, |t| t.totals.quiet_rate());
        m.put(
            "telemetry.overhead_pct",
            (base - ops_per_s) / base * 100.0,
            "%",
        );
        m.put(
            "telemetry.spans_per_job",
            totals.calls.values().sum::<u64>() as f64 / totals.exact_ops.max(1) as f64,
            "count",
        );
        m.put("harness.us_per_job", totals.us_per_op(), "us");
        m.put(
            "harness.cpu_us_per_job",
            cpu_s * 1e6 / all_ops.max(1) as f64,
            "us",
        );
        let attributed = measured.tracer.attributed_ns() as f64 / 1e3 / totals.ops.max(1) as f64;
        m.put(
            "harness.unattributed_pct",
            (totals.us_per_op() - attributed) / totals.us_per_op() * 100.0,
            "%",
        );
        crate::layers::common(totals, &measured.tracer, &mut m);
        measured
            .fixture
            .layer_metrics(&measured.totals, &measured.tracer, &mut m);
        crate::layers::fill_bypassed(&mut m);
    } else {
        let fastest = setup_times.iter().copied().fold(f64::INFINITY, f64::min);
        m.put("setup_s", fastest, "s");
        m.put("ops_per_s", ops_per_s, "1/s");
        m.put("request_us_p50", totals.quiet_request_ns() / 1e3, "us");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
    }

    let totals = &measured.totals;
    let failed = failed_in_setup + measured.failed + twin.as_ref().map_or(0, |t| t.failed);
    let drift = stats::quarter_drift(&totals.rates);
    if drift.abs() > 0.10 {
        eprintln!(
            "gridbench: DRIFT: {} batch rate moved {:+.1}% from the first to the last quarter",
            W::NAME,
            drift * 100.0
        );
    }
    RunResult {
        workload: W::NAME,
        traced: opts.traced,
        env,
        threads,
        noisy,
        window_s,
        attempted: totals.ops,
        failed,
        batches: totals.batches,
        request_samples: totals.request_ns.len(),
        drift,
        digest: measured.digest.clone().unwrap_or_default(),
        tail: stats::tail(&totals.request_ns).map(|(p, ns)| (p, ns as f64 / 1e3)),
        batch_log: totals.batch_log(),
        metrics: m,
        tracer: measured.tracer,
    }
}
