//! The metric catalogue — every name `BENCHMARK.json` lists — and the
//! per-layer metrics that fall straight out of the harness spans.
//!
//! Layer = crate name. A traced run reports every per-layer metric; one
//! whose layer the workload bypasses reads 0, which is the prediction
//! ("no work there") made checkable.

use crate::harness::{Metrics, WindowTotals};
use crate::trace::Tracer;

/// `(name, unit, better, bound)` of the end-to-end metrics.
///
/// The bounds are measured, not guessed: three times the widest
/// inter-quartile spread seen over ten seeds per workload on the 2-core
/// reference box (README, "Measured spread"), capped at the contract's
/// 25 %. The box's own speed wanders by more than the issue's 10 %.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("ops_per_s", "1/s", "higher", 0.25),
    ("request_us_p50", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
];

/// `(name, unit, better)` of the per-layer metrics.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("client.ajo_build_us", "us", "lower"),
    ("client.pollbook_sweep_us", "us", "lower"),
    ("codec.encode_us_per_msg", "us", "lower"),
    ("codec.decode_us_per_msg", "us", "lower"),
    ("codec.bytes_per_msg", "count", "lower"),
    ("codec.msgs_per_job", "count", "lower"),
    ("crypto.sha256_mb_per_s", "MB/s", "higher"),
    ("crypto.chacha20_mb_per_s", "MB/s", "higher"),
    ("crypto.hmac_us_per_kb", "us", "lower"),
    ("crypto.rsa_sign_us", "us", "lower"),
    ("crypto.rsa_verify_us", "us", "lower"),
    ("crypto.dh_us", "us", "lower"),
    ("certs.chain_validate_us", "us", "lower"),
    ("transport.handshake_full_us", "us", "lower"),
    ("transport.handshake_resumed_us", "us", "lower"),
    ("transport.seal_us_per_record", "us", "lower"),
    ("transport.open_us_per_record", "us", "lower"),
    ("transport.records_per_job", "count", "lower"),
    ("transport.record_bytes_per_job", "count", "lower"),
    ("transport.resume_ratio", "ratio", "higher"),
    ("transport.resume_rejected", "count", "lower"),
    ("gateway.accept_us", "us", "lower"),
    ("gateway.authorize_us", "us", "lower"),
    ("gateway.mux_codec_us_per_sweep", "us", "lower"),
    ("gateway.sessions_active_peak", "count", "lower"),
    ("gateway.refused", "count", "lower"),
    ("core.handle_consign_us", "us", "lower"),
    ("core.handle_poll_us", "us", "lower"),
    ("core.server_step_us_per_call", "us", "lower"),
    ("core.server_step_calls_per_job", "count", "lower"),
    ("core.recover_us", "us", "lower"),
    ("core.fed_client_submit_us", "us", "lower"),
    ("core.fed_run_until_us_per_job", "us", "lower"),
    ("core.fed_take_response_us", "us", "lower"),
    ("core.fed_msgs_per_job", "count", "lower"),
    ("core.fed_retries", "count", "lower"),
    ("core.fed_overhead_ratio", "ratio", "lower"),
    ("njs.consign_us", "us", "lower"),
    ("njs.step_us_per_call", "us", "lower"),
    ("njs.steps_per_job", "count", "lower"),
    ("njs.idle_step_ratio", "ratio", "lower"),
    ("njs.single_jobs_per_s", "1/s", "higher"),
    ("njs.worker_speedup", "ratio", "higher"),
    ("batch.sim_us_per_job", "us", "lower"),
    ("batch.submitted", "count", "lower"),
    ("batch.completed", "count", "higher"),
    ("store.append_calls_per_job", "count", "lower"),
    ("store.append_bytes_per_job", "count", "lower"),
    ("store.append_busy_us_per_job", "us", "lower"),
    ("store.events_per_append", "ratio", "higher"),
    ("store.open_us", "us", "lower"),
    ("store.replay_us_per_event", "us", "lower"),
    ("store.replay_events", "count", "lower"),
    ("store.recover_events_per_s", "1/s", "higher"),
    ("dataplane.manifest_us_per_mb", "us", "lower"),
    ("dataplane.sender_us_per_chunk", "us", "lower"),
    ("dataplane.receiver_us_per_chunk", "us", "lower"),
    ("dataplane.chunks_sent", "count", "lower"),
    ("dataplane.resend_ratio", "ratio", "lower"),
    ("dataplane.first_chunk_sim_s", "s", "lower"),
    ("dataplane.sim_goodput_ratio", "ratio", "higher"),
    ("dataplane.payload_mb_per_s", "MB/s", "higher"),
    ("sim.grid_time_s_p50", "s", "lower"),
    ("telemetry.overhead_pct", "%", "lower"),
    ("telemetry.spans_per_job", "count", "lower"),
    ("harness.us_per_job", "us", "lower"),
    ("harness.cpu_us_per_job", "us", "lower"),
    ("harness.unattributed_pct", "%", "lower"),
    ("share.transport_gateway_pct", "%", "lower"),
    ("share.njs_store_batch_pct", "%", "lower"),
    ("share.codec_pct", "%", "lower"),
    ("share.core_pct", "%", "lower"),
    ("share.store_replay_of_recover_pct", "%", "lower"),
];

/// `(name, why)` of the workloads, in suite order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "live_consign",
        "one real path JPA to WAL and back over sealed records: every small-message layer is on it, federation is bypassed",
    ),
    (
        "fed_burst",
        "two-site federation with cross-site sub-jobs: framing, seq/ack and advance() dominate; transport crypto and front door do nothing",
    ),
    (
        "core_step",
        "direct ShardedNjs over 8 shards: step loop, batch sim and WAL group commit do all the work; transport, gateway and federation none",
    ),
    (
        "churn_poll",
        "8 identities reconnecting through one FrontDoor: handshake- and session-cache-bound, almost no record traffic, no NJS",
    ),
    (
        "transfer_stream",
        "a 4 MiB produce-and-Transfer job over the German deployment: per-byte cost (SHA-256, chunk DER, WAL chunk records) dominates",
    ),
    (
        "crash_recover",
        "a journalled site crashed half-way through 256 jobs and recovered: the store's read side (open, replay, link rebuild)",
    ),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean total µs per call of one span name.
fn us_per_call(t: &Tracer, span: &str) -> f64 {
    let s = t.get(span);
    ratio(s.total_ns as f64 / 1e3, s.count as f64)
}

/// The metrics every workload derives the same way from its spans and
/// the counts its batches recorded. Timings are means over the whole
/// window; counts come from its exact part (see
/// [`crate::harness::EXACT_BATCHES`]) and repeat exactly per seed.
pub fn common(totals: &WindowTotals, t: &Tracer, m: &mut Metrics) {
    for (metric, span) in [
        ("client.ajo_build_us", "client.ajo_build"),
        ("client.pollbook_sweep_us", "client.pollbook_sweep"),
        ("codec.encode_us_per_msg", "codec.encode"),
        ("codec.decode_us_per_msg", "codec.decode"),
        ("transport.handshake_full_us", "transport.handshake_full"),
        (
            "transport.handshake_resumed_us",
            "transport.handshake_resumed",
        ),
        ("transport.seal_us_per_record", "transport.seal"),
        ("transport.open_us_per_record", "transport.open"),
        ("gateway.authorize_us", "gateway.authorize"),
        ("core.handle_consign_us", "core.handle_consign"),
        ("core.handle_poll_us", "core.handle_poll"),
        ("core.server_step_us_per_call", "core.server_step"),
        ("core.recover_us", "core.recover"),
        ("core.fed_client_submit_us", "core.fed_client_submit"),
        ("core.fed_take_response_us", "core.fed_take_response"),
        ("njs.consign_us", "njs.consign"),
        ("njs.step_us_per_call", "njs.step"),
        ("store.open_us", "store.open"),
    ] {
        m.put(metric, us_per_call(t, span), "us");
    }
    let exact_ops = totals.exact_ops as f64;
    for (metric, span) in [
        ("codec.msgs_per_job", "codec.encode"),
        ("transport.records_per_job", "transport.seal"),
        ("core.server_step_calls_per_job", "core.server_step"),
        ("njs.steps_per_job", "njs.step"),
    ] {
        m.put(metric, ratio(totals.calls(span), exact_ops), "count");
    }
    m.put(
        "codec.bytes_per_msg",
        ratio(totals.count("codec.bytes"), totals.calls("codec.encode")),
        "count",
    );
    m.put(
        "transport.record_bytes_per_job",
        totals.per_op("transport.record_bytes"),
        "count",
    );
    m.put(
        "transport.resume_ratio",
        ratio(
            totals.count("transport.resumed"),
            totals.count("transport.connects"),
        ),
        "ratio",
    );
    m.put(
        "gateway.accept_us",
        totals.timing_median("gateway.accept_us"),
        "us",
    );
    m.put(
        "gateway.mux_codec_us_per_sweep",
        ratio(
            t.get("gateway.mux_codec").total_ns as f64 / 1e3,
            t.get("client.pollbook_sweep").count as f64,
        ),
        "us",
    );
    m.put(
        "core.fed_run_until_us_per_job",
        ratio(
            t.get("core.fed_run_until").total_ns as f64 / 1e3,
            totals.ops as f64,
        ),
        "us",
    );
    m.put(
        "core.fed_msgs_per_job",
        totals.per_op("fed.messages"),
        "count",
    );
    m.put("core.fed_retries", totals.count("fed.retries"), "count");
    m.put(
        "njs.idle_step_ratio",
        ratio(totals.count("njs.idle_steps"), totals.calls("njs.step")),
        "ratio",
    );
    m.put("batch.submitted", totals.count("batch.submitted"), "count");
    m.put("batch.completed", totals.count("batch.completed"), "count");
    m.put(
        "store.append_calls_per_job",
        totals.per_op("store.appends"),
        "count",
    );
    m.put(
        "store.append_bytes_per_job",
        totals.per_op("store.append_bytes"),
        "count",
    );
    // Busy time is a timing, but the backend only exposes it as a
    // counter: it is averaged over the exact part like one.
    m.put(
        "store.append_busy_us_per_job",
        totals.per_op("store.append_ns") / 1e3,
        "us",
    );
    // Journalled events (the product's own counter) per backend write
    // (the timing backend's): the group-commit factor.
    m.put(
        "store.events_per_append",
        ratio(totals.count("store.events"), totals.count("store.appends")),
        "ratio",
    );
    m.put(
        "sim.grid_time_s_p50",
        totals.sample_median("sim.grid_time_s"),
        "s",
    );

    // Layer shares of the batches' wall clock, by self time.
    let wall_ns = totals.busy.as_nanos() as f64;
    for (metric, prefixes) in [
        (
            "share.transport_gateway_pct",
            &["transport.", "gateway."][..],
        ),
        (
            "share.njs_store_batch_pct",
            &["njs.", "store.", "batch."][..],
        ),
        ("share.codec_pct", &["codec."][..]),
        ("share.core_pct", &["core."][..]),
    ] {
        m.put(
            metric,
            ratio(t.self_ns_of(prefixes) as f64, wall_ns) * 100.0,
            "%",
        );
    }
}

/// Every catalogued per-layer metric the workload did not produce reads
/// 0: the layer did no work on this workload.
pub fn fill_bypassed(m: &mut Metrics) {
    for (name, unit, _) in PER_LAYER {
        if m.get(name).is_none() {
            m.put(name, 0.0, unit);
        }
    }
}

/// `BENCHMARK.json`, generated so the file and the code cannot drift.
pub fn benchmark_json(run_seconds: u64) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"gridbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"gridbench\"],\n");
    s.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_meets_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (_, unit, _, bound) in END_TO_END {
            assert!(unit.len() <= 16 && *bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    }

    #[test]
    fn checked_in_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // built outside the repository
        };
        let run_seconds: u64 = text
            .split("\"run_seconds\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .expect("run_seconds");
        assert_eq!(text, benchmark_json(run_seconds));
    }
}
