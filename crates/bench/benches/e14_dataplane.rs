//! E14 — the chunked data plane: streaming throughput, time to first
//! chunk, and the cost of surviving faults mid-stream.
//!
//! A 4 MiB file (64 chunks at the default 64 KiB chunk size) is produced
//! at FZJ and streamed to DWD's incoming area over the windowed,
//! resumable transfer protocol. The bench reports, per fault regime:
//!
//! - *time to first task*: grid time from submission until the first
//!   chunk lands at the destination (job startup + produce task +
//!   offer/go handshake);
//! - *stream throughput*: payload bytes per second of grid time over the
//!   streaming phase (first chunk → terminal outcome) — bounded above by
//!   the 4 MB/s wan_1999 link;
//! - *grid time* to the terminal outcome and the retry volume spent;
//!
//! plus the wall-clock cost of simulating each regime (criterion shim
//! percentiles). gridbench's `transfer_stream` measures the fault-free
//! run layer by layer, and its traced twin the telemetry tax.
//!
//! Byte-identity of the delivered file under these same fault classes is
//! pinned by `tests/chaos.rs`; this bench only measures speed.

use criterion::Criterion;
use std::hint::black_box;
use unicore::ajo::*;
use unicore::protocol::{outcome_of, Response};
use unicore::{Federation, FederationConfig};
use unicore_bench::{fmt_bytes, BenchReport, BENCH_DN};
use unicore_sim::{SimTime, HOUR, MINUTE, SEC};
use unicore_simnet::FaultPlan;

/// Multi-chunk payload: 64 chunks at the default chunk size.
const TRANSFER_BYTES: u64 = 64 * unicore_dataplane::DEFAULT_CHUNK_SIZE as u64;

/// Produce `TRANSFER_BYTES` at FZJ, then stream them to DWD.
fn transfer_job() -> AbstractJob {
    let attrs = UserAttributes::new(BENCH_DN, "users");
    let mut job = AbstractJob::new("streamer", VsiteAddress::new("FZJ", "T3E"), attrs);
    job.nodes.push((
        ActionId(1),
        GraphNode::Task(AbstractTask {
            name: "make".into(),
            resources: ResourceRequest::minimal().with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: format!("sleep 10\nproduce big.dat {TRANSFER_BYTES}\n"),
            }),
        }),
    ));
    job.nodes.push((
        ActionId(2),
        GraphNode::Task(AbstractTask {
            name: "ship".into(),
            resources: ResourceRequest::minimal(),
            kind: TaskKind::File(FileKind::Transfer {
                uspace_name: "big.dat".into(),
                to_vsite: VsiteAddress::new("DWD", "SX4"),
                dest_name: "big.dat".into(),
            }),
        }),
    ));
    job.dependencies.push(Dependency {
        from: ActionId(1),
        to: ActionId(2),
        files: vec!["big.dat".into()],
    });
    job
}

/// One measured run's numbers.
struct Run {
    /// Grid time to the terminal outcome (includes polling quantisation).
    done_at: SimTime,
    /// Grid time until the first chunk landed at DWD.
    first_chunk_at: SimTime,
    /// Grid time until the last chunk landed at DWD.
    last_chunk_at: SimTime,
    /// Envelope retries spent by the whole federation.
    retries: u64,
    /// Chunks pushed by the sender (0 when telemetry is off).
    chunks_sent: u64,
}

/// One measured run.
fn run(seed: u64, plan: Option<&FaultPlan>, telemetry: bool) -> Run {
    let mut fed = Federation::german_deployment(FederationConfig {
        seed,
        ..FederationConfig::default()
    });
    if telemetry {
        fed.enable_telemetry(seed);
    }
    fed.register_user(BENCH_DN, "bench");
    fed.attach_stores();
    if let Some(plan) = plan {
        fed.apply_fault_plan(plan);
    }
    let corr = fed.client_submit("FZJ", transfer_job(), BENCH_DN);
    let deadline = 4 * HOUR;
    let id = loop {
        fed.run_until(fed.now() + SEC);
        match fed.take_client_response(corr) {
            Some(Response::Consigned { job }) => break job,
            Some(other) => panic!("consign failed: {other:?}"),
            None => {}
        }
        assert!(fed.now() < deadline, "consign ack never arrived");
    };
    let mut first_chunk_at = None;
    let mut last_chunk_at = None;
    let done_at = loop {
        // Fine steps while the stream is in flight (so first/last chunk
        // get sub-second resolution), coarse ones once only the terminal
        // outcome's control-plane round trips remain.
        let step = if last_chunk_at.is_none() {
            SEC / 5
        } else {
            5 * SEC
        };
        let poll = fed.client_poll("FZJ", BENCH_DN, id, DetailLevel::Tasks);
        fed.run_until(fed.now() + step);
        if last_chunk_at.is_none() {
            if let Some(dwd) = fed.server("DWD") {
                if let Some((bytes, total)) = dwd.njs().incoming_progress("FZJ", id, ActionId(2)) {
                    if first_chunk_at.is_none() {
                        first_chunk_at = Some(fed.now());
                    }
                    if bytes == total {
                        last_chunk_at = Some(fed.now());
                    }
                }
            }
        }
        if let Some(resp) = fed.take_client_response(poll) {
            if let Some(o) = outcome_of(&resp) {
                if o.status.is_terminal() {
                    assert!(o.status.is_success(), "transfer failed: {o:?}");
                    break fed.now();
                }
            }
        }
        assert!(fed.now() < deadline, "transfer never terminated");
    };
    let chunks_sent = fed
        .server("FZJ")
        .map(|s| {
            s.telemetry()
                .metrics_snapshot()
                .counter("dataplane.chunks.sent")
        })
        .unwrap_or(0);
    Run {
        done_at,
        first_chunk_at: first_chunk_at.expect("stream opened"),
        last_chunk_at: last_chunk_at.expect("stream drained"),
        retries: fed.retries,
        chunks_sent,
    }
}

/// The fault regimes the bench sweeps. Mid-stream windows anchor on the
/// fault-free first-chunk instant (the run up to the first fault is
/// deterministic per seed, so the faulted replay reaches the same
/// moment in the same state).
fn regimes(stream_start: SimTime) -> Vec<(&'static str, Option<FaultPlan>)> {
    vec![
        ("fault_free", None),
        (
            "drop25",
            Some(FaultPlan::new(0xE14).drop_everywhere(0.25, 0, SimTime::MAX)),
        ),
        (
            "partition_mid_stream",
            Some(FaultPlan::new(0xE14).partition(
                "DWD",
                stream_start + SEC / 5,
                stream_start + SEC / 5 + MINUTE,
            )),
        ),
        (
            "receiver_crash_restart",
            Some(FaultPlan::new(0xE14).crash_restart(
                "DWD",
                stream_start + SEC / 2,
                stream_start + SEC / 2 + 90 * SEC,
            )),
        ),
    ]
}

fn print_tables() -> (BenchReport, SimTime) {
    println!("\n=== E14: chunked data plane under load and chaos ===\n");
    let mut report = BenchReport::new("e14_dataplane");
    report.note(
        "workload",
        "4 MiB (64 x 64 KiB chunks) streamed FZJ -> DWD over wan_1999 (4 MB/s, 15 ms)",
    );
    report.note(
        "time_to_first_task",
        "grid time from submission to the first chunk accepted at the destination",
    );
    report.metric("transfer_bytes", TRANSFER_BYTES as f64);

    let baseline = run(1, None, false);
    let stream_start = baseline.first_chunk_at;
    println!(
        "payload {}; stream opens at {:.1} s grid time\n",
        fmt_bytes(TRANSFER_BYTES),
        stream_start as f64 / SEC as f64
    );
    println!("regime                  grid-time   first-task   stream MB/s   retries   chunks");
    for (name, plan) in regimes(stream_start) {
        let r = run(1, plan.as_ref(), true);
        let stream_s = r.last_chunk_at.saturating_sub(r.first_chunk_at).max(1) as f64 / SEC as f64;
        let rate = TRANSFER_BYTES as f64 / 1e6 / stream_s;
        println!(
            "{name:<22} {:>8.1} s   {:>7.1} s   {:>9.2}   {:>7}   {:>6}",
            r.done_at as f64 / SEC as f64,
            r.first_chunk_at as f64 / SEC as f64,
            rate,
            r.retries,
            r.chunks_sent,
        );
        report
            .metric(
                &format!("{name}.grid_time_s"),
                r.done_at as f64 / SEC as f64,
            )
            .metric(
                &format!("{name}.time_to_first_task_s"),
                r.first_chunk_at as f64 / SEC as f64,
            )
            .metric(&format!("{name}.stream_s"), stream_s)
            .metric(
                &format!("{name}.stream_bytes_per_sec"),
                TRANSFER_BYTES as f64 / stream_s,
            )
            .metric(&format!("{name}.retries"), r.retries as f64)
            .metric(&format!("{name}.chunks_sent"), r.chunks_sent as f64);
    }
    println!();
    (report, stream_start)
}

fn benches(c: &mut Criterion, stream_start: SimTime) {
    let mut group = c.benchmark_group("e14_dataplane");
    group.sample_size(10);
    for (name, plan) in regimes(stream_start) {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run(1, plan.as_ref(), true)));
        });
    }
    group.finish();
}

fn main() {
    let (mut report, stream_start) = print_tables();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c, stream_start);
    c.final_summary();
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
