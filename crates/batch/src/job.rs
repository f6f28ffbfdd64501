//! Batch job specifications and results.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use unicore_sim::SimTime;

/// Identifies a job within one batch system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchJobId(pub u64);

impl core::fmt::Display for BatchJobId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Hasher for maps keyed by ids a process hands out itself — batch job
/// ids here, job ids in the NJS: one multiply and a fold instead of
/// SipHash. Such keys are small integers allocated locally, never chosen
/// by a peer, so there is no flooding to resist, and the supervisor's
/// step loop looks them up several times per visit.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Strided ids (shard k of N hands out k+1, k+1+N, …) share their
        // low bits; folding the product's high half in spreads them.
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by locally allocated ids (see [`IdHasher`]).
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// What the job *actually* does when it runs — the simulator's stand-in for
/// real computation. The NJS fills this in during incarnation; the batch
/// system only sees resource usage and, on completion, surfaces the
/// declared outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkModel {
    /// True runtime in simulation ticks (may exceed the limit → job killed).
    pub actual_runtime: SimTime,
    /// Exit code the job would produce if it completes.
    pub exit_code: i32,
    /// Standard output produced.
    pub stdout: Vec<u8>,
    /// Standard error produced.
    pub stderr: Vec<u8>,
    /// Files the job writes into its working directory (Uspace), as
    /// `(name, content)` pairs. The content is allocated once here and
    /// shared from the result into the Uspace and onwards.
    pub output_files: Vec<(String, Arc<[u8]>)>,
}

impl WorkModel {
    /// A trivially succeeding job of the given runtime.
    pub fn succeed_after(actual_runtime: SimTime) -> Self {
        WorkModel {
            actual_runtime,
            exit_code: 0,
            stdout: Vec::new(),
            stderr: Vec::new(),
            output_files: Vec::new(),
        }
    }

    /// A failing job.
    pub fn fail_after(actual_runtime: SimTime, exit_code: i32, stderr: &str) -> Self {
        WorkModel {
            actual_runtime,
            exit_code,
            stdout: Vec::new(),
            stderr: stderr.as_bytes().to_vec(),
            output_files: Vec::new(),
        }
    }
}

/// The queue classes a 1990s computing centre typically ran.
///
/// Express jobs jump the queue but must be short and narrow; long jobs
/// yield to everyone else. The class ordering is the scheduler's priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueClass {
    /// Short debugging/turnaround jobs: highest priority, tight limits.
    Express,
    /// Normal production work.
    #[default]
    Batch,
    /// Multi-day runs: lowest priority.
    Long,
}

impl QueueClass {
    /// Scheduler rank (lower runs first).
    pub fn rank(&self) -> u8 {
        match self {
            QueueClass::Express => 0,
            QueueClass::Batch => 1,
            QueueClass::Long => 2,
        }
    }

    /// The conventional queue name (used in submit scripts).
    pub fn name(&self) -> &'static str {
        match self {
            QueueClass::Express => "express",
            QueueClass::Batch => "batch",
            QueueClass::Long => "long",
        }
    }

    /// The class a job of `time_limit` belongs to under the standard site
    /// policy (≤ 15 min express, > 12 h long).
    pub fn for_time_limit(time_limit: SimTime) -> Self {
        const MIN15: SimTime = 15 * 60 * unicore_sim::SEC;
        const H12: SimTime = 12 * unicore_sim::HOUR;
        if time_limit <= MIN15 {
            QueueClass::Express
        } else if time_limit > H12 {
            QueueClass::Long
        } else {
            QueueClass::Batch
        }
    }
}

/// A job as submitted to a batch system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchJobSpec {
    /// Job name (from the UNICORE task).
    pub name: String,
    /// Local login of the owner (after gateway mapping).
    pub owner: String,
    /// The incarnated submit script (vendor dialect).
    pub script: String,
    /// Processor elements requested.
    pub processors: u32,
    /// Wall-clock limit in ticks — the scheduler's guarantee horizon.
    pub time_limit: SimTime,
    /// Memory request in MB (admission-checked upstream; recorded here).
    pub memory_mb: u64,
    /// Queue class (defaults to `Batch`).
    pub queue: QueueClass,
    /// The simulated work.
    pub work: WorkModel,
}

/// Lifecycle state of a batch job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchStatus {
    /// Waiting in the queue.
    Queued,
    /// Held by operator/user request.
    Held,
    /// Executing since the given time.
    Running {
        /// Dispatch time.
        since: SimTime,
    },
    /// Finished.
    Completed(CompletedJob),
    /// Removed from the queue before running.
    Cancelled,
}

/// Result of a finished job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedJob {
    /// Exit code (`137` when killed at the time limit).
    pub exit_code: i32,
    /// True when the scheduler killed the job at its limit.
    pub timed_out: bool,
    /// Captured stdout.
    pub stdout: Vec<u8>,
    /// Captured stderr.
    pub stderr: Vec<u8>,
    /// Output files declared by the work model (empty if killed).
    pub output_files: Vec<(String, Arc<[u8]>)>,
    /// When it started.
    pub started_at: SimTime,
    /// When it ended.
    pub ended_at: SimTime,
}

impl CompletedJob {
    /// Success = exit code 0 and not timed out.
    pub fn is_success(&self) -> bool {
        self.exit_code == 0 && !self.timed_out
    }
}

/// One accounting line, written at job end (site accounting, §6 outlook).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccountingRecord {
    /// The batch job.
    pub job: BatchJobId,
    /// Owner login.
    pub owner: String,
    /// Queue class the job ran under.
    pub queue: QueueClass,
    /// Processors held while running.
    pub processors: u32,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Dispatch time.
    pub started_at: SimTime,
    /// End time.
    pub ended_at: SimTime,
    /// Exit code.
    pub exit_code: i32,
}

impl AccountingRecord {
    /// Queue wait in ticks.
    pub fn wait_time(&self) -> SimTime {
        self.started_at - self.submitted_at
    }

    /// Node-seconds consumed (processors × runtime).
    pub fn node_seconds(&self) -> u64 {
        self.processors as u64 * ((self.ended_at - self.started_at) / unicore_sim::SEC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_sim::SEC;

    #[test]
    fn id_hasher_spreads_dense_and_strided_ids() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let build = BuildHasherDefault::<IdHasher>::default();
        // A table of 2^10 buckets is addressed by the low 10 bits, the
        // control bytes by the top 7: both must vary for ids 1, 2, 3, …
        // and for one shard's stride-8 ids 3, 11, 19, … (1024 random
        // hashes would land in about 647 distinct buckets).
        for stride in [1u64, 8, 64] {
            let hashes: Vec<u64> = (0..1024)
                .map(|i| build.hash_one(BatchJobId(3 + i * stride)))
                .collect();
            let low: std::collections::HashSet<u64> = hashes.iter().map(|h| h & 1023).collect();
            let top: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert!(
                low.len() > 512,
                "stride {stride}: {} of 1024 buckets",
                low.len()
            );
            assert_eq!(top.len(), 128, "stride {stride}");
        }
    }

    #[test]
    fn work_model_constructors() {
        let ok = WorkModel::succeed_after(5 * SEC);
        assert_eq!(ok.exit_code, 0);
        let bad = WorkModel::fail_after(SEC, 2, "segfault");
        assert_eq!(bad.exit_code, 2);
        assert_eq!(bad.stderr, b"segfault");
    }

    #[test]
    fn completed_success_rules() {
        let mut c = CompletedJob {
            exit_code: 0,
            timed_out: false,
            stdout: vec![],
            stderr: vec![],
            output_files: vec![],
            started_at: 0,
            ended_at: SEC,
        };
        assert!(c.is_success());
        c.timed_out = true;
        assert!(!c.is_success());
        c.timed_out = false;
        c.exit_code = 1;
        assert!(!c.is_success());
    }

    #[test]
    fn accounting_arithmetic() {
        let r = AccountingRecord {
            job: BatchJobId(1),
            owner: "u".into(),
            queue: QueueClass::Batch,
            processors: 16,
            submitted_at: 2 * SEC,
            started_at: 5 * SEC,
            ended_at: 15 * SEC,
            exit_code: 0,
        };
        assert_eq!(r.wait_time(), 3 * SEC);
        assert_eq!(r.node_seconds(), 160);
    }
}

#[cfg(test)]
mod queue_class_tests {
    use super::*;
    use unicore_sim::{HOUR, MINUTE, SEC};

    #[test]
    fn rank_ordering() {
        assert!(QueueClass::Express.rank() < QueueClass::Batch.rank());
        assert!(QueueClass::Batch.rank() < QueueClass::Long.rank());
    }

    #[test]
    fn policy_assignment() {
        assert_eq!(QueueClass::for_time_limit(5 * MINUTE), QueueClass::Express);
        assert_eq!(QueueClass::for_time_limit(15 * MINUTE), QueueClass::Express);
        assert_eq!(QueueClass::for_time_limit(16 * MINUTE), QueueClass::Batch);
        assert_eq!(QueueClass::for_time_limit(12 * HOUR), QueueClass::Batch);
        assert_eq!(QueueClass::for_time_limit(13 * HOUR), QueueClass::Long);
        let _ = SEC;
    }

    #[test]
    fn names() {
        assert_eq!(QueueClass::Express.name(), "express");
        assert_eq!(QueueClass::default(), QueueClass::Batch);
    }
}
