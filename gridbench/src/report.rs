//! Output: the driver's one-line JSON result, the `@`-prefixed lines the
//! suite mode reads back from its children, the per-layer table, and the
//! files under `--out`. JSON is written by hand — the repo vendors no
//! serde, and `BenchReport::write` of the `e*` benches resolves the
//! workspace root at compile time (a copy of the tree built elsewhere
//! would write into the original checkout), so it is not reused.

use crate::harness::RunResult;
use std::fmt::Write as _;
use std::path::Path;

/// A float with all its digits, in a form every JSON reader accepts.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The last line of standard output: exactly the keys the benchmark
/// contract names.
pub fn result_line(r: &RunResult) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct(),
        r.attempted.max(1),
        r.failed
    );
    for (i, (name, value, unit)) in r.metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    s.push_str("}}");
    s
}

/// Machine-readable lines for the suite mode (and the curious): one
/// fact per line, whitespace-separated, `@` first.
pub fn machine_lines(r: &RunResult, seed: u64) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "@ env workload={} traced={} seed={seed} commit={} nproc={} threads={} load_1m={:.2} noisy={} \
         window_s={:.3} batches={} ops={} request_samples={} drift_pct={:.2}",
        r.workload,
        u8::from(r.traced),
        r.env.commit,
        r.env.nproc,
        r.threads,
        r.env.load_1m,
        u8::from(r.noisy),
        r.window_s,
        r.batches,
        r.attempted,
        r.request_samples,
        r.drift * 100.0,
    );
    let _ = writeln!(s, "@ digest {}", r.digest);
    let _ = writeln!(s, "@ failed {}", r.failed);
    if let Some((p, us)) = r.tail {
        let _ = writeln!(s, "@ tail request_us_p{p} {us:.3}");
    }
    for (name, value, unit) in &r.metrics.0 {
        let _ = writeln!(s, "@ metric {name} {} {unit}", num(*value));
    }
    s
}

/// The per-layer table of a traced run: one row per harness span name,
/// self time per operation, and the explicit `unattributed` row that
/// closes the sum to the wall clock.
pub fn layer_table(r: &RunResult) -> String {
    let ops = r.attempted.max(1) as f64;
    let wall = r.metrics.get("harness.us_per_job").unwrap_or(0.0);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<32} {:>12} {:>12} {:>12} {:>8}",
        "span", "calls/op", "total us/op", "self us/op", "share"
    );
    let mut attributed = 0.0;
    for (name, t) in r.tracer.totals() {
        let self_us = t.self_ns as f64 / 1e3 / ops;
        attributed += self_us;
        let _ = writeln!(
            s,
            "{:<32} {:>12.4} {:>12.3} {:>12.3} {:>7.1}%",
            name,
            t.count as f64 / ops,
            t.total_ns as f64 / 1e3 / ops,
            self_us,
            if wall > 0.0 {
                self_us / wall * 100.0
            } else {
                0.0
            }
        );
    }
    let rest = wall - attributed;
    let _ = writeln!(
        s,
        "{:<32} {:>12} {:>12} {:>12.3} {:>7.1}%",
        "unattributed",
        "",
        "",
        rest,
        if wall > 0.0 { rest / wall * 100.0 } else { 0.0 }
    );
    let _ = writeln!(
        s,
        "{:<32} {:>12} {:>12} {:>12.3} {:>7.1}%",
        "wall clock", "", "", wall, 100.0
    );
    s
}

/// Writes the run's files under `dir` (and nowhere else).
pub fn write_out(dir: &Path, r: &RunResult, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let kind = if r.traced { "layers" } else { "e2e" };
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"workload\": \"{}\",", r.workload);
    let _ = writeln!(json, "  \"traced\": {},", r.traced);
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"commit\": \"{}\",", r.env.commit);
    let _ = writeln!(json, "  \"nproc\": {},", r.env.nproc);
    let _ = writeln!(json, "  \"threads\": {},", r.threads);
    let _ = writeln!(json, "  \"load_1m\": {},", num(r.env.load_1m));
    let _ = writeln!(json, "  \"noisy\": {},", r.noisy);
    let _ = writeln!(json, "  \"window_s\": {},", num(r.window_s));
    let _ = writeln!(json, "  \"batches\": {},", r.batches);
    let _ = writeln!(json, "  \"request_samples\": {},", r.request_samples);
    let _ = writeln!(json, "  \"drift\": {},", num(r.drift));
    let _ = writeln!(json, "  \"outcome_digest\": \"{}\",", r.digest);
    let _ = writeln!(json, "  \"claim\": null,");
    let _ = writeln!(json, "  \"result\": {}", result_line(r));
    json.push_str("}\n");
    std::fs::write(dir.join(format!("result_{}_{kind}.json", r.workload)), json)?;
    let mut log = String::from("batch\tops_per_s\trequest_us_p50\n");
    for (i, (rate, request_us)) in r.batch_log.iter().enumerate() {
        let _ = writeln!(log, "{i}\t{rate:.3}\t{request_us:.3}");
    }
    std::fs::write(dir.join(format!("batches_{}_{kind}.tsv", r.workload)), log)?;
    if r.traced {
        std::fs::write(
            dir.join(format!("layers_{}.txt", r.workload)),
            layer_table(r),
        )?;
        std::fs::write(
            dir.join(format!("trace_{}.jsonl", r.workload)),
            r.tracer.to_jsonl(),
        )?;
    }
    Ok(())
}
