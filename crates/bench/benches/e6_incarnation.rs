//! E6 — NJS incarnation via translation tables (§5.5).
//!
//! Measures the cost of translating abstract tasks into each vendor
//! dialect, the full consign-to-dispatch pipeline on large DAGs, and the
//! translation-table-vs-hardcoded ablation from DESIGN.md §5.

use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use unicore_ajo::{ExecuteKind, ResourceRequest};
use unicore_batch::script_matches_dialect;
use unicore_bench::{bench_mapped_user, chain_job, fan_job};
use unicore_njs::{incarnate_execute, ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{format_time, SimTime, HOUR, SEC};

fn sample_kind() -> ExecuteKind {
    ExecuteKind::Compile {
        sources: vec!["main.f90".into(), "solver.f90".into(), "io.f90".into()],
        options: vec!["O3".into()],
        output: "model.o".into(),
    }
}

fn resources() -> ResourceRequest {
    ResourceRequest::minimal()
        .with_processors(64)
        .with_run_time(3_600)
        .with_memory(4_096)
}

/// Drives an NJS until `job` completes; returns completion time.
fn drive(njs: &mut ShardedNjs, job: unicore_ajo::JobId) -> SimTime {
    let mut now = 0;
    njs.step(now);
    while !njs.is_done(job) && now < 24 * HOUR {
        now = njs.next_event_time().unwrap_or(now + SEC).max(now + 1);
        njs.step(now);
    }
    now
}

fn print_tables() {
    println!("\n=== E6: incarnation through translation tables ===\n");
    println!(
        "{:<18} {:<12} {:>14} {:>10}",
        "architecture", "batch", "script bytes", "dialect ok"
    );
    for arch in Architecture::ALL {
        let table = TranslationTable::for_architecture(arch);
        let script = incarnate_execute(&table, &sample_kind(), &resources(), "user", "J1");
        println!(
            "{:<18} {:<12} {:>14} {:>10}",
            arch.display_name(),
            arch.batch_system(),
            script.len(),
            script_matches_dialect(&script, arch)
        );
    }

    println!("\ndependency-ordered delivery on large DAGs (simulated makespan):");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "tasks", "shape", "makespan", "incarnations"
    );
    for (label, job) in [
        ("chain", chain_job("FZJ", "T3E", 500, 10)),
        ("fan", fan_job("FZJ", "T3E", 500)),
    ] {
        let mut njs = ShardedNjs::new("FZJ", 1, 1);
        njs.add_vsite(
            deployment_page("FZJ", "T3E", Architecture::CrayT3e),
            TranslationTable::for_architecture(Architecture::CrayT3e),
        );
        let n = job.nodes.len();
        let id = njs.consign(job, bench_mapped_user(), 0).unwrap();
        let end = drive(&mut njs, id);
        assert!(njs.outcome(id).unwrap().status.is_success());
        println!(
            "{:>10} {:>12} {:>14} {:>14}",
            n,
            label,
            format_time(end),
            njs.incarnation_count()
        );
    }
    println!();
}

fn benches(c: &mut Criterion) {
    // Per-architecture incarnation cost.
    let mut group = c.benchmark_group("e6_incarnate");
    for arch in Architecture::ALL {
        let table = TranslationTable::for_architecture(arch);
        group.bench_with_input(
            BenchmarkId::new("compile_task", format!("{arch:?}")),
            &table,
            |b, table| {
                let kind = sample_kind();
                let res = resources();
                b.iter(|| black_box(incarnate_execute(table, &kind, &res, "user", "J1")))
            },
        );
    }
    // Ablation: translation-table lookup vs a hard-coded string build.
    let table = TranslationTable::for_architecture(Architecture::CrayT3e);
    group.bench_function("ablation_hardcoded_t3e", |b| {
        let res = resources();
        b.iter(|| {
            black_box(format!(
                "#!/bin/sh\n#QSUB -l mpp_p={}\n#QSUB -l mpp_t={}\n#QSUB -l mpp_m={}mw\n\
                 cd /unicore/uspace/J1\nf90 -O3,unroll2 -c main.f90 solver.f90 io.f90 -o model.o\n",
                res.processors, res.run_time_secs, res.memory_mb
            ))
        })
    });
    group.bench_function("ablation_translated_t3e", |b| {
        let kind = sample_kind();
        let res = resources();
        b.iter(|| black_box(incarnate_execute(&table, &kind, &res, "user", "J1")))
    });
    group.finish();

    // Full pipeline wall cost: consign + drive a 100-task DAG.
    let mut group = c.benchmark_group("e6_pipeline");
    group.sample_size(10);
    for (label, mk) in [
        ("chain100", chain_job("FZJ", "T3E", 100, 10)),
        ("fan100", fan_job("FZJ", "T3E", 100)),
    ] {
        group.bench_with_input(BenchmarkId::new("consign_and_run", label), &mk, |b, job| {
            b.iter(|| {
                let mut njs = ShardedNjs::new("FZJ", 1, 1);
                njs.add_vsite(
                    deployment_page("FZJ", "T3E", Architecture::CrayT3e),
                    TranslationTable::for_architecture(Architecture::CrayT3e),
                );
                let id = njs.consign(job.clone(), bench_mapped_user(), 0).unwrap();
                black_box(drive(&mut njs, id))
            })
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
