//! The one command: every workload untraced then traced, each in a fresh
//! child process (so `peak_rss_mb` is per workload), outputs verified,
//! every metric printed by name. `--selfcheck` runs that twice.

use crate::harness::RunOptions;
use crate::layers::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::report;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// What one child run reported on its `@` lines.
#[derive(Default, Clone)]
struct ChildReport {
    ok: bool,
    digest: String,
    env: String,
    tail: String,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<&Path>,
) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(dir) = out {
        cmd.arg("--out").arg(dir);
    }
    // `output()` waits for the child and reaps it.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn workload child");
    let mut r = ChildReport {
        ok: output.status.success(),
        ..Default::default()
    };
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut f = line.split_whitespace();
        if f.next() != Some("@") {
            continue;
        }
        match f.next() {
            Some("digest") => r.digest = f.next().unwrap_or_default().to_owned(),
            Some("env") => r.env = f.collect::<Vec<_>>().join(" "),
            Some("tail") => r.tail = f.collect::<Vec<_>>().join(" "),
            Some("metric") => {
                if let (Some(name), Some(value), Some(unit)) = (f.next(), f.next(), f.next()) {
                    if let Ok(v) = value.parse() {
                        r.metrics.insert(name.to_owned(), (v, unit.to_owned()));
                    }
                }
            }
            _ => {}
        }
    }
    r
}

/// `(untraced, traced)` report per workload, in suite order.
type SuiteReport = Vec<(&'static str, ChildReport, ChildReport)>;

fn run_suite(seed: u64, seconds: f64, out: Option<&Path>) -> (SuiteReport, bool) {
    let mut all_ok = true;
    let mut reports = Vec::new();
    for (name, _) in WORKLOADS {
        eprintln!("gridbench: {name} (seed {seed}, {seconds} s window, untraced then traced)");
        let plain = run_child(name, seed, seconds, false, out);
        let traced = run_child(name, seed, seconds, true, out);
        if !plain.ok || !traced.ok {
            eprintln!("gridbench: FAIL {name}: a run failed verification or crashed");
            all_ok = false;
        }
        if plain.digest.is_empty() || plain.digest != traced.digest {
            eprintln!(
                "gridbench: FAIL {name}: outcome_digest differs between the untraced and traced run \
                 ({} vs {})",
                plain.digest, traced.digest
            );
            all_ok = false;
        }
        reports.push((*name, plain, traced));
    }
    (reports, all_ok)
}

fn print_suite(reports: &SuiteReport) {
    for (name, plain, traced) in reports {
        println!("== {name}");
        println!("   {}", plain.env);
        println!("   outcome_digest {}", plain.digest);
        for (metric, unit, better, bound) in END_TO_END {
            if let Some((v, _)) = plain.metrics.get(*metric) {
                println!(
                    "   {metric:<36} {v:>16.4} {unit:<6} ({better} is better, bound {:.0}%)",
                    bound * 100.0
                );
            }
        }
        if !plain.tail.is_empty() {
            println!("   {:<36} (diagnostic, not gated)", plain.tail);
        }
        let mut bypassed = 0;
        for (metric, unit, _) in PER_LAYER {
            match traced.metrics.get(*metric) {
                Some((v, _)) if *v != 0.0 => println!("   {metric:<36} {v:>16.4} {unit}"),
                _ => bypassed += 1,
            }
        }
        println!("   ({bypassed} per-layer metrics read 0: layers this workload bypasses)");
    }
}

/// The whole suite once; returns whether every verification held.
pub fn run_and_print(seed: u64, seconds: f64, out: Option<&Path>) -> bool {
    let (reports, ok) = run_suite(seed, seconds, out);
    print_suite(&reports);
    println!("gridbench: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Per-layer metrics that are counts of a deterministic program on
/// deterministic inputs: two runs of one seed must agree exactly.
fn is_exact(name: &str, unit: &str) -> bool {
    unit == "count"
        || matches!(
            name,
            "sim.grid_time_s_p50"
                | "dataplane.first_chunk_sim_s"
                | "dataplane.sim_goodput_ratio"
                | "dataplane.resend_ratio"
                | "transport.resume_ratio"
                | "store.events_per_append"
                | "njs.idle_step_ratio"
        )
}

/// Smallest relative distance between any two of `values`.
fn closest_pair(values: &[f64]) -> f64 {
    let mut best = f64::INFINITY;
    for (i, x) in values.iter().enumerate() {
        for y in &values[i + 1..] {
            best = best.min((x - y).abs() / x.abs().max(y.abs()).max(f64::MIN_POSITIVE));
        }
    }
    best
}

/// The suite twice on one seed. Counts and digests must agree exactly.
/// Timed end-to-end metrics must agree within their bound; where two
/// runs do not, the workload is run a third time and any two of the
/// three must agree (a whole run can land in a slow phase of a shared
/// machine; two out of three landing in *different* phases is a finding).
/// Prints the observed relative spread of every end-to-end metric, so the
/// bounds in `BENCHMARK.json` are measured, not guessed.
pub fn selfcheck(seed: u64, seconds: f64) -> bool {
    let (a, ok_a) = run_suite(seed, seconds, None);
    let (b, ok_b) = run_suite(seed, seconds, None);
    let mut ok = ok_a && ok_b;
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>14} {:>9}",
        "workload", "metric", "run 1", "run 2", "run 3", "spread"
    );
    for ((name, plain_a, traced_a), (_, plain_b, traced_b)) in a.iter().zip(&b) {
        if plain_a.digest != plain_b.digest {
            println!("{name:<16} outcome_digest differs between the two runs: FAIL");
            ok = false;
        }
        let value = |r: &ChildReport, metric: &str| r.metrics.get(metric).map(|m| m.0);
        let mut runs = vec![plain_a.clone(), plain_b.clone()];
        let disagree = |runs: &[ChildReport], metric: &str, bound: f64| {
            let values: Vec<f64> = runs.iter().filter_map(|r| value(r, metric)).collect();
            values.len() < runs.len() || closest_pair(&values) > bound
        };
        if END_TO_END
            .iter()
            .any(|(m, _, _, bound)| disagree(&runs, m, *bound))
        {
            eprintln!("gridbench: {name}: two runs disagree on a timed metric; running a third");
            let third = run_child(name, seed, seconds, false, None);
            ok &= third.ok && third.digest == plain_a.digest;
            runs.push(third);
        }
        for (metric, _, _, bound) in END_TO_END {
            let shown: Vec<String> = (0..3)
                .map(|i| {
                    runs.get(i)
                        .and_then(|r| value(r, metric))
                        .map_or(String::new(), |v| format!("{v:.4}"))
                })
                .collect();
            let values: Vec<f64> = runs.iter().filter_map(|r| value(r, metric)).collect();
            let failed = disagree(&runs, metric, *bound);
            println!(
                "{name:<16} {metric:<20} {:>14} {:>14} {:>14} {:>8.2}%{}",
                shown[0],
                shown[1],
                shown[2],
                closest_pair(&values) * 100.0,
                if failed { "  FAIL" } else { "" }
            );
            ok &= !failed;
        }
        for (metric, unit, _) in PER_LAYER {
            if !is_exact(metric, unit) {
                continue;
            }
            let (x, y) = (value(traced_a, metric), value(traced_b, metric));
            if x != y {
                println!(
                    "{name:<16} {metric:<36} {x:?} vs {y:?}: counts must repeat exactly: FAIL"
                );
                ok = false;
            }
        }
    }
    println!("gridbench selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// One batch of every workload, untraced and traced, in this process,
/// all verifications on. Cheap enough for a unit test: a product-crate
/// refactor that breaks the benchmark's API usage fails here.
pub fn smoke(seed: u64) -> bool {
    crate::probes::probe_once_only();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let mut digests = Vec::new();
        for traced in [false, true] {
            let opts = RunOptions {
                seed,
                seconds: 0.0,
                traced,
                smoke: true,
                keep_raw_spans: false,
            };
            let r = crate::run_named(name, &opts).expect("catalogued workload");
            let expected = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            if !r.correct() || r.metrics.0.len() != expected {
                eprintln!(
                    "gridbench smoke: FAIL {name} traced={traced}: {} of {} ops failed, {} of {expected} metrics",
                    r.failed,
                    r.attempted,
                    r.metrics.0.len()
                );
                ok = false;
            }
            digests.push(r.digest.clone());
            println!("{}", report::result_line(&r));
        }
        if digests[0].is_empty() || digests[0] != digests[1] {
            eprintln!("gridbench smoke: FAIL {name}: outcome_digest differs traced vs untraced");
            ok = false;
        }
    }
    println!("gridbench smoke: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

#[cfg(test)]
mod tests {
    /// The `--smoke` path: every workload's API usage, one batch each.
    #[test]
    fn smoke_runs_every_workload() {
        assert!(super::smoke(1));
    }
}
