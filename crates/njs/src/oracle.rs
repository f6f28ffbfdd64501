//! The work oracle: what a task "really does" when it runs.
//!
//! The batch substrate needs a [`WorkModel`] (runtime, exit code, outputs)
//! for every incarnated task. A real system discovers this by running the
//! job; the simulation derives it deterministically from the task itself.
//!
//! Script tasks may use a small pseudo-language the oracle interprets,
//! which lets examples and tests express meaningful workloads:
//!
//! ```text
//! sleep 30          # adds 30 s of runtime
//! produce out.nc 4096   # writes a 4 KiB output file into the Uspace
//! echo starting run     # appends to stdout
//! exit 2                # exit with code 2
//! ```
//!
//! Any other line contributes a small default cost. Compile/Link/User
//! tasks get hash-derived runtimes (a fixed fraction band of the request)
//! and produce their declared outputs.

use std::sync::Arc;
use unicore_ajo::{AbstractTask, ExecuteKind, ResourceRequest, TaskKind};
use unicore_batch::WorkModel;
use unicore_crypto::sha256;
use unicore_sim::{secs, secs_f64, SimTime};

/// Decides the simulated behaviour of an execute task.
pub trait WorkOracle: Send {
    /// Produces the work model for `task` given its resource request.
    fn work_for(&self, task: &AbstractTask, resources: &ResourceRequest) -> WorkModel;
}

/// The standard deterministic oracle described in the module docs.
pub(crate) struct DeterministicOracle {
    /// Base cost charged per plain script line, seconds.
    pub per_line_secs: f64,
}

impl Default for DeterministicOracle {
    fn default() -> Self {
        DeterministicOracle { per_line_secs: 1.0 }
    }
}

/// Deterministic fraction in `[0.3, 0.9)` derived from content bytes.
fn hash_fraction(bytes: &[u8]) -> f64 {
    let digest = sha256(bytes);
    let x = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
    0.3 + 0.6 * (x as f64 / u64::MAX as f64)
}

/// Deterministic synthetic file content of `len` bytes seeded by `name`:
/// byte `i` is `seed[i % 32] ^ (i / 32) as u8`, with `seed` the SHA-256 of
/// the name. Built in the allocation the file keeps for life, a 32-byte
/// row (the seed XOR the row number) at a time.
pub fn synthetic_content(name: &str, len: usize) -> Arc<[u8]> {
    let seed = sha256(name.as_bytes());
    let mut content: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    let rows = Arc::get_mut(&mut content).expect("not shared yet");
    for (row, bytes) in rows.chunks_mut(32).enumerate() {
        for (byte, s) in bytes.iter_mut().zip(&seed) {
            *byte = s ^ row as u8;
        }
    }
    content
}

impl WorkOracle for DeterministicOracle {
    fn work_for(&self, task: &AbstractTask, resources: &ResourceRequest) -> WorkModel {
        let TaskKind::Execute(kind) = &task.kind else {
            // File tasks never reach the batch system; zero-cost model.
            return WorkModel::succeed_after(0);
        };
        match kind {
            ExecuteKind::Script { script } => interpret_script(script, self.per_line_secs),
            ExecuteKind::Compile {
                sources, output, ..
            } => {
                // Compilation: ~2 s per source, produces the object file.
                let runtime = secs(2 * sources.len() as u64);
                WorkModel {
                    actual_runtime: runtime.max(secs(1)),
                    exit_code: 0,
                    stdout: format!("compiled {} source file(s)\n", sources.len()).into_bytes(),
                    stderr: Vec::new(),
                    output_files: vec![(output.clone(), synthetic_content(output, 8_192))],
                }
            }
            ExecuteKind::Link {
                objects, output, ..
            } => {
                let runtime = secs(1 + objects.len() as u64 / 4);
                WorkModel {
                    actual_runtime: runtime,
                    exit_code: 0,
                    stdout: format!("linked {output}\n").into_bytes(),
                    stderr: Vec::new(),
                    output_files: vec![(output.clone(), synthetic_content(output, 65_536))],
                }
            }
            ExecuteKind::User {
                executable,
                arguments,
                ..
            } => {
                // Hash-derived fraction of the requested wall time.
                let mut material = executable.as_bytes().to_vec();
                for a in arguments {
                    material.extend_from_slice(a.as_bytes());
                }
                let frac = hash_fraction(&material);
                let runtime = secs_f64(resources.run_time_secs as f64 * frac).max(secs(1));
                WorkModel {
                    actual_runtime: runtime,
                    exit_code: 0,
                    stdout: format!("{executable}: done\n").into_bytes(),
                    stderr: Vec::new(),
                    output_files: Vec::new(),
                }
            }
        }
    }
}

/// Interprets the pseudo-script language.
fn interpret_script(script: &str, per_line_secs: f64) -> WorkModel {
    let mut runtime: SimTime = 0;
    let mut exit_code = 0i32;
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let mut output_files = Vec::new();
    for line in script.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("sleep") => {
                let secs_arg: f64 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1.0);
                runtime += secs_f64(secs_arg);
            }
            Some("produce") => {
                let name = parts.next().unwrap_or("out.dat").to_owned();
                let len: usize = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1024);
                runtime += secs_f64(per_line_secs);
                output_files.push((name.clone(), synthetic_content(&name, len)));
            }
            Some("echo") => {
                let rest: Vec<&str> = parts.collect();
                stdout.extend_from_slice(rest.join(" ").as_bytes());
                stdout.push(b'\n');
                runtime += secs_f64(per_line_secs * 0.1);
            }
            Some("fail") | Some("exit") => {
                let code: i32 = parts.next().and_then(|s| s.parse().ok()).unwrap_or(1);
                if code != 0 {
                    exit_code = code;
                    stderr.extend_from_slice(b"script exited with error\n");
                }
                break;
            }
            _ => {
                // Unknown command: a plain workload line.
                runtime += secs_f64(per_line_secs);
            }
        }
    }
    WorkModel {
        actual_runtime: runtime.max(secs(1)),
        exit_code,
        stdout,
        stderr,
        output_files,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_sim::SEC;

    fn task(kind: ExecuteKind) -> AbstractTask {
        AbstractTask {
            name: "t".into(),
            resources: ResourceRequest::minimal().with_run_time(1_000),
            kind: TaskKind::Execute(kind),
        }
    }

    fn oracle() -> DeterministicOracle {
        DeterministicOracle::default()
    }

    #[test]
    fn sleep_accumulates_runtime() {
        let w = oracle().work_for(
            &task(ExecuteKind::Script {
                script: "sleep 30\nsleep 12.5\n".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.actual_runtime, secs_f64(42.5));
        assert_eq!(w.exit_code, 0);
    }

    #[test]
    fn produce_creates_output() {
        let w = oracle().work_for(
            &task(ExecuteKind::Script {
                script: "produce result.nc 2048\n".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.output_files.len(), 1);
        assert_eq!(w.output_files[0].0, "result.nc");
        assert_eq!(w.output_files[0].1.len(), 2048);
    }

    #[test]
    fn exit_sets_code_and_stops() {
        let w = oracle().work_for(
            &task(ExecuteKind::Script {
                script: "echo before\nexit 3\nproduce never.dat 10\n".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.exit_code, 3);
        assert_eq!(w.stdout, b"before\n");
        assert!(w.output_files.is_empty());
    }

    #[test]
    fn exit_zero_is_success() {
        let w = oracle().work_for(
            &task(ExecuteKind::Script {
                script: "exit 0\n".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.exit_code, 0);
    }

    #[test]
    fn comments_and_blank_lines_free() {
        let w = oracle().work_for(
            &task(ExecuteKind::Script {
                script: "# just a comment\n\n   \n".into(),
            }),
            &ResourceRequest::minimal(),
        );
        // Clamped to the 1 s minimum.
        assert_eq!(w.actual_runtime, SEC);
    }

    #[test]
    fn compile_produces_object() {
        let w = oracle().work_for(
            &task(ExecuteKind::Compile {
                sources: vec!["a.f90".into(), "b.f90".into()],
                options: vec![],
                output: "ab.o".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.actual_runtime, 4 * SEC);
        assert_eq!(w.output_files[0].0, "ab.o");
    }

    #[test]
    fn link_produces_executable() {
        let w = oracle().work_for(
            &task(ExecuteKind::Link {
                objects: vec!["a.o".into()],
                libraries: vec![],
                output: "prog".into(),
            }),
            &ResourceRequest::minimal(),
        );
        assert_eq!(w.output_files[0].0, "prog");
        assert!(!w.output_files[0].1.is_empty());
    }

    #[test]
    fn user_task_runtime_within_band() {
        let resources = ResourceRequest::minimal().with_run_time(1_000);
        let w = oracle().work_for(
            &task(ExecuteKind::User {
                executable: "model".into(),
                arguments: vec!["--x".into()],
                environment: vec![],
            }),
            &resources,
        );
        assert!(w.actual_runtime >= secs_f64(300.0));
        assert!(w.actual_runtime < secs_f64(900.0));
    }

    #[test]
    fn oracle_is_deterministic() {
        let t = task(ExecuteKind::User {
            executable: "model".into(),
            arguments: vec![],
            environment: vec![],
        });
        let r = ResourceRequest::minimal();
        assert_eq!(oracle().work_for(&t, &r), oracle().work_for(&t, &r));
    }

    #[test]
    fn synthetic_content_deterministic_and_distinct() {
        assert_eq!(synthetic_content("a", 100), synthetic_content("a", 100));
        assert_ne!(synthetic_content("a", 100), synthetic_content("b", 100));
        assert_eq!(synthetic_content("x", 0).len(), 0);
    }
}
