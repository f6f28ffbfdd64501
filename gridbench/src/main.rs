//! `gridbench` — one benchmark for the whole UNICORE stack.
//!
//! ```text
//! gridbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//!     one workload, untraced (end-to-end metrics) or traced (per-layer
//!     metrics); the last line of stdout is the JSON result
//! gridbench [--seed <n>] [--seconds <s>] [--out <dir>]
//!     the whole suite: every workload untraced, then traced, each in a
//!     fresh child process; verifies outputs, prints every metric
//! gridbench --selfcheck [--seed <n>] [--seconds <s>]
//!     the suite twice on one seed; timed metrics must agree within their
//!     bounds, counts and digests exactly
//! gridbench --smoke
//!     one batch of every workload, all verifications on
//! gridbench --emit-benchmark-json <run_seconds>
//! ```
//!
//! See `README.md` beside this package for the metric glossary.

mod affinity;
mod env;
mod harness;
mod inputs;
mod layers;
mod probes;
mod report;
mod stats;
mod suite;
mod timed_store;
mod trace;
mod workloads;

use harness::{RunOptions, RunResult};
use std::path::PathBuf;
use std::process::ExitCode;

/// Default timed window of the suite modes, in seconds.
const DEFAULT_SECONDS: f64 = 8.0;

/// Runs the named workload in this process.
pub fn run_named(name: &str, opts: &RunOptions) -> Option<RunResult> {
    use workloads::*;
    Some(match name {
        "live_consign" => harness::run::<live_consign::LiveConsign>(opts),
        "fed_burst" => harness::run::<fed_burst::FedBurst>(opts),
        "core_step" => harness::run::<core_step::CoreStep>(opts),
        "churn_poll" => harness::run::<churn_poll::ChurnPoll>(opts),
        "transfer_stream" => harness::run::<transfer_stream::TransferStream>(opts),
        "crash_recover" => harness::run::<crash_recover::CrashRecover>(opts),
        _ => return None,
    })
}

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    selfcheck: bool,
    smoke: bool,
    emit: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--selfcheck" => args.selfcheck = true,
            "--smoke" => args.smoke = true,
            "--emit-benchmark-json" => {
                args.emit = Some(
                    value("run_seconds")?
                        .parse()
                        .map_err(|e| format!("--emit-benchmark-json: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gridbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if let Some(run_seconds) = args.emit {
        print!("{}", layers::benchmark_json(run_seconds));
        return ExitCode::SUCCESS;
    }
    if args.smoke {
        return exit_code(suite::smoke(seed));
    }
    let Some(name) = args.workload else {
        let ok = if args.selfcheck {
            suite::selfcheck(seed, seconds)
        } else {
            suite::run_and_print(seed, seconds, args.out.as_deref())
        };
        return exit_code(ok);
    };

    let opts = RunOptions {
        seed,
        seconds,
        traced: args.trace,
        smoke: false,
        keep_raw_spans: args.trace && args.out.is_some(),
    };
    let Some(result) = run_named(&name, &opts) else {
        eprintln!("gridbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    if result.traced {
        eprint!("{}", report::layer_table(&result));
    }
    if let Some(dir) = &args.out {
        if let Err(e) = report::write_out(dir, &result, seed) {
            eprintln!("gridbench: cannot write under {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report::machine_lines(&result, seed));
    println!("{}", report::result_line(&result));
    exit_code(result.correct())
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
