//! Cost pins: what one job costs the NJS, counted exactly.
//!
//! The shape is gridbench's `core_step`, small: one Usite with 8
//! Generic Vsites journalling into a [`MemoryBackend`], batches of 64
//! jobs consigned, stepped to terminal, queried and purged. The first
//! batch warms the tables and is not counted. For the batches after it
//! the test counts, per job, the heap allocations made inside `consign`,
//! inside the step loop and inside query + purge, the step loop's job
//! visits, the journal's appends and bytes, and the spans the NJS
//! finished.
//!
//! Three runs are counted: `chain3` jobs untraced (every number),
//! `fan16` jobs untraced (a wide shape, where per-node costs show:
//! consign and step allocations, visits) and `chain3` jobs with
//! telemetry and the flight recorder on (spans per job, and the
//! allocations above the untraced `chain3` run).
//!
//! Allocations are counted by this binary's own `#[global_allocator]`
//! in a thread-local counter, so the harness's other threads do not
//! mix in. Every number is exact and repeats from run to run.
//!
//! A pin fails when its number rises, and also when it falls: a win is
//! recorded by editing the pin's line, with a one-line reason. A debug
//! build runs checks of its own (`debug_assert`s, the step's closing
//! scan of every job), so each pin has two columns; `cargo test` checks
//! the debug one and `cargo test --release --test cost_pins` the release
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unicore_ajo::*;
use unicore_gateway::MappedUser;
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend};
use unicore_telemetry::Telemetry;

/// Counts every allocation and reallocation of the thread that makes it.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const USITE: &str = "HUB";
const VSITES: usize = 8;
const BATCH_JOBS: usize = 64;
/// Batches counted after the uncounted warm-up batch.
const COUNTED_BATCHES: usize = 3;
const DN: &str = "C=DE, O=Bench, OU=Repro, CN=cost-pins";

/// One pinned number per job: its debug and release values, and why it
/// last changed.
struct Pin {
    what: &'static str,
    debug: f64,
    release: f64,
    why: &'static str,
}

const PINS: [Pin; 11] = [
    Pin {
        what: "consign allocations",
        debug: 7.0104,
        release: 7.0104,
        why: "first pinned",
    },
    Pin {
        what: "step allocations",
        debug: 3.1458,
        release: 3.1458,
        why: "a task's name and script go into buffers its batch system handed back",
    },
    Pin {
        what: "query + purge allocations",
        debug: 1.0052,
        release: 1.0052,
        why: "first pinned",
    },
    Pin {
        what: "job visits",
        debug: 5.0,
        release: 5.0,
        why: "a batch start wakes nobody; a visit re-wakes its job only for a ready node or to finish",
    },
    Pin {
        what: "journal appends",
        debug: 2.0625,
        release: 2.0625,
        why: "first pinned",
    },
    Pin {
        what: "journal bytes",
        debug: 702.8906,
        release: 702.8906,
        why: "first pinned",
    },
    Pin {
        what: "fan16 consign allocations",
        debug: 8.1615,
        release: 8.1615,
        why: "first pinned",
    },
    Pin {
        what: "fan16 step allocations",
        debug: 17.2865,
        release: 17.2865,
        why: "a task's name and script go into buffers its batch system handed back",
    },
    Pin {
        what: "fan16 job visits",
        debug: 5.0,
        release: 5.0,
        why: "a batch start wakes nobody; a visit re-wakes its job only for a ready node or to finish",
    },
    Pin {
        what: "traced spans",
        debug: 10.0,
        release: 10.0,
        why: "first pinned",
    },
    Pin {
        what: "traced allocations over untraced",
        debug: 35.0104,
        release: 35.0104,
        why: "first pinned",
    },
];

fn user() -> MappedUser {
    MappedUser {
        dn: DN.into(),
        login: "bench".into(),
        account_group: "users".into(),
    }
}

/// gridbench's `chain3`: three 30-second script tasks in a line.
fn chain3(name: String, vsite: usize) -> AbstractJob {
    let attrs = UserAttributes::new(DN, "users");
    let mut job = AbstractJob::new(name, VsiteAddress::new(USITE, format!("V{vsite}")), attrs);
    for i in 0..3u64 {
        job.nodes.push((
            ActionId(i + 1),
            GraphNode::Task(AbstractTask {
                name: format!("t{i}"),
                resources: ResourceRequest::minimal().with_run_time(3_600),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: "sleep 30\n".into(),
                }),
            }),
        ));
        if i > 0 {
            job.dependencies.push(Dependency {
                from: ActionId(i),
                to: ActionId(i + 1),
                files: Vec::new(),
            });
        }
    }
    job
}

/// gridbench's `fan16`: a one-second root and sixteen two-second leaves.
fn fan16(name: String, vsite: usize) -> AbstractJob {
    let attrs = UserAttributes::new(DN, "users");
    let mut job = AbstractJob::new(name, VsiteAddress::new(USITE, format!("V{vsite}")), attrs);
    for i in 0..17u64 {
        let (name, secs) = if i == 0 {
            ("root".to_owned(), 1)
        } else {
            (format!("leaf{i}"), 2)
        };
        job.nodes.push((
            ActionId(i + 1),
            GraphNode::Task(AbstractTask {
                name,
                resources: ResourceRequest::minimal().with_run_time(3_600),
                kind: TaskKind::Execute(ExecuteKind::Script {
                    script: format!("sleep {secs}\n"),
                }),
            }),
        ));
        if i > 0 {
            job.dependencies.push(Dependency {
                from: ActionId(1),
                to: ActionId(i + 1),
                files: Vec::new(),
            });
        }
    }
    job
}

/// Totals over the counted batches: consign, step and query + purge
/// allocations, job visits, journal appends and bytes, spans finished.
#[derive(Default)]
struct Totals([u64; 7]);

impl Totals {
    /// Allocations of every kind.
    fn allocations(&self) -> u64 {
        self.0[..3].iter().sum()
    }
}

/// Spans the NJS's telemetry has finished so far.
fn spans(njs: &ShardedNjs) -> u64 {
    njs.telemetry().breakdown().iter().map(|s| s.count).sum()
}

/// Runs the warm-up batch and the counted ones of jobs built by `shape`,
/// with telemetry (and so the flight recorder) on when `traced`; returns
/// the totals of the counted batches.
fn measure(shape: fn(String, usize) -> AbstractJob, traced: bool) -> Totals {
    let mut njs = ShardedNjs::new(USITE, 1, 1);
    if traced {
        njs.set_telemetry(Telemetry::collecting(7));
    }
    for i in 0..VSITES {
        njs.add_vsite(
            deployment_page(USITE, &format!("V{i}"), Architecture::Generic),
            TranslationTable::for_architecture(Architecture::Generic),
        );
    }
    let disk = MemoryBackend::new();
    njs.attach_stores(vec![
        EventStore::open(Box::new(disk.clone())).expect("open journal")
    ]);

    let mut totals = Totals::default();
    let mut now: SimTime = 0;
    let mut ids: Vec<JobId> = Vec::with_capacity(BATCH_JOBS);
    for batch in 0..=COUNTED_BATCHES {
        let jobs: Vec<(AbstractJob, MappedUser)> = (0..BATCH_JOBS)
            .map(|i| (shape(format!("cp-{batch}-{i}"), i % VSITES), user()))
            .collect();
        let (visits, appends, bytes) = (njs.job_visits(), disk.append_count(), disk.total_bytes());
        let spans_before = spans(&njs);
        let mut spent = [0u64; 3];

        ids.clear();
        let before = allocations();
        for (job, user) in jobs {
            ids.push(njs.consign(job, user, now).expect("consign"));
        }
        spent[0] = allocations() - before;

        let deadline = now + 4 * HOUR;
        let before = allocations();
        loop {
            njs.step(now);
            if ids.iter().all(|&j| njs.is_done(j)) {
                break;
            }
            assert!(now < deadline, "batch {batch} stalled at t={now}");
            now = njs.next_event_time().unwrap_or(now + SEC).max(now + SEC);
        }
        spent[1] = allocations() - before;

        let before = allocations();
        for &id in &ids {
            let outcome = njs.query(id, DN, DetailLevel::Tasks).expect("query");
            assert!(
                outcome.status.is_success(),
                "job {id}: {:?}",
                outcome.status
            );
            drop(outcome);
            njs.purge(id, DN).expect("purge");
        }
        spent[2] = allocations() - before;

        if batch > 0 {
            let rest = [
                njs.job_visits() - visits,
                disk.append_count() - appends,
                disk.total_bytes() - bytes,
                spans(&njs) - spans_before,
            ];
            for (total, n) in totals.0.iter_mut().zip(spent.into_iter().chain(rest)) {
                *total += n;
            }
        }
    }
    totals
}

#[test]
fn a_jobs_cost_matches_its_pins() {
    let chain = measure(chain3, false);
    let fan = measure(fan16, false);
    let traced = measure(chain3, true);
    // In `PINS`' order. The allocator counts the traced run's extra
    // allocations exactly, so the difference cannot go below zero.
    let [c, f, t] = [&chain.0, &fan.0, &traced.0];
    let rows = [
        c[0],
        c[1],
        c[2],
        c[3],
        c[4],
        c[5],
        f[0],
        f[1],
        f[3],
        t[6],
        traced.allocations() - chain.allocations(),
    ];
    let jobs = (COUNTED_BATCHES * BATCH_JOBS) as f64;
    let mut report = String::new();
    let mut failed = false;
    for (pin, total) in PINS.iter().zip(rows) {
        let measured = total as f64 / jobs;
        let pinned = if cfg!(debug_assertions) {
            pin.debug
        } else {
            pin.release
        };
        // One unit more or less over the counted jobs moves a number by
        // 1/192 ≈ 0.0052.
        let verdict = if (measured - pinned).abs() < 0.001 {
            "ok"
        } else if measured > pinned {
            failed = true;
            "ROSE"
        } else {
            failed = true;
            "FELL: edit its pin with a one-line reason"
        };
        report += &format!(
            "{:<32} {measured:>10.4} per job (pinned {pinned:.4}; {}) {verdict}\n",
            pin.what, pin.why
        );
    }
    assert!(!failed, "cost pins moved:\n{report}");
    println!("{report}");
}
