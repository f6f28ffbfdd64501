//! Byte pins for incarnation: the script text the translation tables
//! produce is what the batch tier receives, so a change to how it is
//! written must leave every byte where it was.
//!
//! `incarnation_golden.txt` holds the full text of
//! `incarnate_execute_in_queue` for every architecture × execute kind ×
//! queue, over 1-, 2- and 5-digit resource values and a job name that
//! contains the work-directory placeholder itself. A failure writes the
//! recomputed table next to the test binary's scratch space and names
//! the first script that moved.

use proptest::prelude::*;
use std::fmt::Write as _;
use unicore_ajo::{ExecuteKind, ResourceRequest};
use unicore_batch::script::{memory_directive, processors_directive, time_directive};
use unicore_batch::script_matches_dialect;
use unicore_njs::{incarnate_execute, incarnate_execute_in_queue, TranslationTable};
use unicore_resources::Architecture;

const GOLDEN: &str = include_str!("incarnation_golden.txt");

/// The five execute bodies: every `ExecuteKind`, `Script` both with and
/// without its trailing newline, and one translated plus one
/// untranslated name wherever the table translates.
fn kinds() -> Vec<(&'static str, ExecuteKind)> {
    vec![
        (
            "user",
            ExecuteKind::User {
                executable: "solver".into(),
                arguments: vec!["--grid".into(), "128".into(), "in.dat".into()],
                environment: vec![
                    ("OMP_NUM_THREADS".into(), "8".into()),
                    ("MODEL".into(), "lm-7".into()),
                ],
            },
        ),
        (
            "script-newline",
            ExecuteKind::Script {
                script: "echo start\n./run_model --steps 40\n".into(),
            },
        ),
        (
            "script-bare",
            ExecuteKind::Script {
                script: "sleep 30\nproduce out.dat 4096".into(),
            },
        ),
        (
            "compile",
            ExecuteKind::Compile {
                sources: vec!["main.f90".into(), "physics.f90".into()],
                options: vec!["O3".into(), "fastmath".into()],
                output: "model.o".into(),
            },
        ),
        (
            "link",
            ExecuteKind::Link {
                objects: vec!["main.o".into(), "physics.o".into()],
                libraries: vec!["blas".into(), "hdf5".into()],
                output: "model".into(),
            },
        ),
    ]
}

/// `(processors, run time s, memory MB)` with 1, 2 and 5 digits.
const RESOURCES: [(u32, u64, u64); 3] = [(4, 9, 8), (64, 90, 32), (12_345, 86_399, 65_536)];

fn request(set: usize) -> ResourceRequest {
    let (n, secs, mb) = RESOURCES[set];
    ResourceRequest::minimal()
        .with_processors(n)
        .with_run_time(secs)
        .with_memory(mb)
}

/// Every pinned script under a `=== … ===` header, in a fixed order.
fn table() -> String {
    let mut out = String::new();
    let mut n = 0usize;
    for arch in Architecture::ALL {
        let stock = TranslationTable::for_architecture(arch);
        for (label, kind) in kinds() {
            for queue in [None, Some("express")] {
                // The directive lines depend on (arch, resources) only, so
                // the sets rotate instead of multiplying the table by three.
                let set = n % RESOURCES.len();
                n += 1;
                let res = request(set);
                // The job name holds the placeholder text: substitution
                // must not look at what it has just written.
                let job = "J{job}0000042";
                let script = match queue {
                    None => incarnate_execute(&stock, &kind, &res, "alice1", job),
                    Some(q) => incarnate_execute_in_queue(&stock, &kind, &res, "alice1", job, q),
                };
                let q = queue.unwrap_or("default");
                writeln!(out, "=== {arch:?} {label} queue={q} resources={set} ===").unwrap();
                out.push_str(&script);
            }
        }
        // A site template naming the job twice, and one not naming it.
        for template in ["/scratch/{job}/run/{job}", "/work/shared"] {
            let mut site = stock.clone();
            site.workdir_template = template.into();
            site.queue = "prod".into();
            let (_, kind) = &kinds()[1];
            let script = incarnate_execute(&site, kind, &request(1), "bob", "J00000007");
            writeln!(out, "=== {arch:?} template={template} ===").unwrap();
            out.push_str(&script);
        }
    }
    out
}

#[test]
fn incarnated_scripts_match_the_pinned_text() {
    let now = table();
    if now == GOLDEN {
        return;
    }
    let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("incarnation_golden.txt");
    std::fs::write(&dump, &now).expect("write recomputed table");
    let first = now
        .split("=== ")
        .zip(GOLDEN.split("=== "))
        .find(|(a, b)| a != b)
        .map(|(a, b)| format!("now:\n=== {a}\npinned:\n=== {b}"))
        .unwrap_or_else(|| "the tables differ in length only".into());
    panic!(
        "incarnation bytes moved (recomputed table written to {}); first difference —\n{first}",
        dump.display()
    );
}

#[test]
fn pinned_table_covers_the_whole_matrix() {
    // 5 architectures × (5 kinds × 2 queues + 2 templates).
    assert_eq!(GOLDEN.matches("=== ").count(), 5 * (5 * 2 + 2));
    for set in 0..RESOURCES.len() {
        for arch in Architecture::ALL {
            let tag = format!("=== {arch:?} ");
            let hit = GOLDEN
                .lines()
                .any(|l| l.starts_with(&tag) && l.ends_with(&format!("resources={set} ===")));
            assert!(hit, "{arch:?} never sees resource set {set}");
        }
    }
}

fn arb_arch() -> impl Strategy<Value = Architecture> {
    (0usize..Architecture::ALL.len()).prop_map(|i| Architecture::ALL[i])
}

/// Run times around the SP-2 `hh:mm:ss` carries, then anything.
fn arb_secs() -> impl Strategy<Value = u64> {
    prop_oneof![
        (0usize..8).prop_map(|i| [0, 59, 60, 3_599, 3_600, 86_399, 86_400, 360_000][i]),
        0u64..400_000,
    ]
}

/// The script's head is `#!/bin/sh` and then exactly the three directive
/// lines the dialect module spells, in processors/time/memory order.
fn assert_head(arch: Architecture, n: u32, secs: u64, mb: u64) {
    let table = TranslationTable::for_architecture(arch);
    let res = ResourceRequest::minimal()
        .with_processors(n)
        .with_run_time(secs)
        .with_memory(mb);
    let kind = ExecuteKind::Script {
        script: "./a.out\n".into(),
    };
    let script = incarnate_execute_in_queue(&table, &kind, &res, "u", "J1", "batch");
    let head = format!(
        "#!/bin/sh\n{}\n{}\n{}\n# queue: batch  user: u\ncd /unicore/uspace/J1\n./a.out\n",
        processors_directive(arch, n),
        time_directive(arch, secs),
        memory_directive(arch, mb),
    );
    assert_eq!(script, head);
    for other in Architecture::ALL {
        assert_eq!(
            script_matches_dialect(&script, other),
            other == arch,
            "{arch:?} script checked as {other:?}"
        );
    }
}

proptest! {
    #[test]
    fn directive_lines_are_the_dialect_modules_spelling(
        arch in arb_arch(),
        n in 1u32..100_000,
        secs in arb_secs(),
        mb in 0u64..10_000_000,
    ) {
        assert_head(arch, n, secs, mb);
    }
}

#[test]
fn sp2_wall_clock_carries() {
    for (secs, text) in [
        (3_599, "00:59:59"),
        (3_600, "01:00:00"),
        (86_399, "23:59:59"),
        (360_000, "100:00:00"),
    ] {
        let line = time_directive(Architecture::IbmSp2, secs);
        assert_eq!(line, format!("#@ wall_clock_limit = {text}"));
        for arch in Architecture::ALL {
            assert_head(arch, 16, secs, 512);
        }
    }
}
