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
//! A fourth run is gridbench's `fed_burst`, small: a two-site
//! `Federation` (S0 and S1, one Generic Vsite each, journalling into
//! `MemoryBackend`s) taking bursts of 32 jobs — half `chain3`, half with
//! their middle node a sub-job at the other Usite — from submission to
//! terminal, polled every 30 s of simulated time, then purged. The first
//! burst is not counted. Per job it pins every allocation the burst
//! makes, the envelopes and network messages the federation sent, and
//! the heap bytes still live once the burst is purged: what the
//! federation keeps for the life of a site. The burst's allocations are
//! also pinned by phase — while consign acks are awaited, while the jobs
//! are polled, and in the purge — beside the polls each job took and the
//! journal content both sites wrote for it (part of what stays live).
//!
//! Allocations are counted by this binary's own `#[global_allocator]`
//! in thread-local counters, so the harness's other threads do not
//! mix in; the same allocator sums the bytes allocated, reallocated and
//! freed. Every number is exact and repeats from run to run.
//!
//! A pin fails when its number rises, and also when it falls: a win is
//! recorded by editing the pin's line, with a one-line reason. A debug
//! build runs checks of its own (`debug_assert`s, the step's closing
//! scan of every job), so each pin has two columns; `cargo test` checks
//! the debug one and `cargo test --release --test cost_pins` the release
//! one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unicore::protocol::outcome_of;
use unicore::{Federation, FederationConfig, Request, Response, SiteSpec};
use unicore_ajo::*;
use unicore_gateway::MappedUser;
use unicore_njs::{ShardedNjs, TranslationTable};
use unicore_resources::{deployment_page, Architecture};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_store::{EventStore, MemoryBackend};
use unicore_telemetry::Telemetry;

/// Counts every allocation and reallocation of the thread that makes it,
/// and the heap bytes the thread holds.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// One allocation or reallocation, growing the thread's heap by `grown`
/// bytes (negative for a shrinking reallocation).
fn count_one(grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    count_bytes(grown);
}

fn count_bytes(grown: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counters are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
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

const PINS: [Pin; 20] = [
    Pin {
        what: "consign allocations",
        debug: 6.0104,
        release: 6.0104,
        why: "the dependency index is two buffers, not four; the owned user goes into one shared Arc",
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
        debug: 7.1615,
        release: 7.1615,
        why: "the dependency index is two buffers, not four; the owned user goes into one shared Arc",
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
    Pin {
        what: "fed_burst allocations",
        debug: 63.3854,
        release: 57.3854,
        why: "two-buffer dependency index, a kept frame writer and kept sweep lists, a shared user mapping, inline idempotency keys (debug re-encodes to check); an opened sweep refills a kept DN buffer",
    },
    Pin {
        what: "fed_burst envelopes sent",
        debug: 4.25,
        release: 4.25,
        why: "first pinned (E29: a poll round is one sweep per site)",
    },
    Pin {
        what: "fed_burst messages sent",
        debug: 1.625,
        release: 1.625,
        why: "first pinned (untraced: no plane heartbeats)",
    },
    Pin {
        what: "fed_burst bytes retained",
        debug: 3837.8438,
        release: 3837.8438,
        why: "the mapping memo's MappedUser is shared, not cloned per job; keys are inline (kept sweep lists add back part of it)",
    },
    Pin {
        what: "fed_burst consign allocations",
        debug: 30.2917,
        release: 25.2917,
        why: "two-buffer dependency index; a kept frame writer; the accepted mapping is shared; the consign key is inline",
    },
    Pin {
        what: "fed_burst poll allocations",
        debug: 32.5625,
        release: 31.5625,
        why: "poll sweeps open in kept lists and a kept DN buffer; a kept frame writer; a sub-job's index, mapping and key as at consign",
    },
    Pin {
        what: "fed_burst purge allocations",
        debug: 0.5312,
        release: 0.5312,
        why: "the purge sweep opens in kept lists and a kept DN buffer",
    },
    Pin {
        what: "fed_burst polls",
        debug: 6.5,
        release: 6.5,
        why: "first pinned (one per 30 s while a job runs, and the one that sees it end)",
    },
    Pin {
        what: "fed_burst journal bytes",
        debug: 1002.375,
        release: 1002.375,
        why: "first pinned (both sites' journal content; the rest of the bytes retained is not journal)",
    },
];

/// The two Usites of the `fed_burst` row, one Vsite each.
const FED_SITES: [&str; 2] = ["S0", "S1"];
const FED_VSITE: &str = "V";
const BURST_JOBS: usize = 32;

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

/// A 30-second script task.
fn sleep30(id: u64, name: &str) -> (ActionId, GraphNode) {
    (
        ActionId(id),
        GraphNode::Task(AbstractTask {
            name: name.into(),
            resources: ResourceRequest::minimal().with_run_time(3_600),
            kind: TaskKind::Execute(ExecuteKind::Script {
                script: "sleep 30\n".into(),
            }),
        }),
    )
}

/// A `fed_burst` job entering at `FED_SITES[home]`: `chain3`, or, with
/// `cross_site`, `chain3` with its middle node a job group at the other
/// Usite.
fn burst_job(name: String, home: usize, cross_site: bool) -> AbstractJob {
    let attrs = UserAttributes::new(DN, "users");
    let here = VsiteAddress::new(FED_SITES[home], FED_VSITE);
    let mut job = AbstractJob::new(name.clone(), here, attrs.clone());
    job.nodes.push(sleep30(1, "t1"));
    job.nodes.push(if cross_site {
        let there = VsiteAddress::new(FED_SITES[1 - home], FED_VSITE);
        let mut group = AbstractJob::new(format!("{name}-group"), there, attrs);
        group.nodes.push(sleep30(1, "t2"));
        (ActionId(2), GraphNode::SubJob(group))
    } else {
        sleep30(2, "t2")
    });
    job.nodes.push(sleep30(3, "t3"));
    for id in 1..3 {
        job.dependencies.push(Dependency {
            from: ActionId(id),
            to: ActionId(id + 1),
            files: Vec::new(),
        });
    }
    job
}

/// Takes one burst from submission to terminal outcomes and purges it:
/// consign acks are awaited 5 s of simulated time at a time, then every
/// outstanding job is polled each 30 s. Returns the allocations made
/// while consign acks were awaited, while the jobs were polled and in the
/// purge, and the polls sent.
fn run_burst(fed: &mut Federation, jobs: Vec<(usize, AbstractJob)>) -> [u64; 4] {
    let start = allocations();
    let deadline = fed.now() + 4 * HOUR;
    let mut pending: Vec<(usize, &str, u64)> = Vec::with_capacity(jobs.len());
    for (i, (home, job)) in jobs.into_iter().enumerate() {
        let via = FED_SITES[home];
        pending.push((i, via, fed.client_submit(via, job, DN)));
    }
    let mut consigned: Vec<(&str, JobId)> = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        assert!(fed.now() < deadline, "consign acks never arrived");
        fed.run_until(fed.now() + 5 * SEC);
        pending.retain(|&(i, via, corr)| match fed.take_client_response(corr) {
            Some(Response::Consigned { job }) => {
                consigned.push((via, job));
                false
            }
            Some(other) => panic!("consign {i} answered {other:?}"),
            None => true,
        });
    }
    let acked = allocations();
    let mut polls_sent = 0;
    let mut outstanding = consigned.clone();
    while !outstanding.is_empty() {
        assert!(fed.now() < deadline, "jobs still running at the deadline");
        let polls: Vec<u64> = outstanding
            .iter()
            .map(|&(via, job)| fed.client_poll(via, DN, job, DetailLevel::Tasks))
            .collect();
        polls_sent += polls.len() as u64;
        fed.run_until(fed.now() + 30 * SEC);
        let mut answers = polls.into_iter();
        outstanding.retain(|_| {
            let corr = answers.next().expect("one poll per job");
            let Some(response) = fed.take_client_response(corr) else {
                return true;
            };
            let outcome = outcome_of(&response).expect("a poll answers with an outcome");
            assert!(!outcome.status.is_terminal() || outcome.status.is_success());
            !outcome.status.is_terminal()
        });
    }
    let polled = allocations();
    let purges: Vec<u64> = consigned
        .iter()
        .map(|&(via, job)| fed.client_request(via, DN, Request::Purge { job }))
        .collect();
    fed.run_until(fed.now() + 5 * SEC);
    for corr in purges {
        let response = fed.take_client_response(corr);
        assert!(
            matches!(response, Some(Response::Purged { .. })),
            "purge answered {response:?}"
        );
    }
    [
        acked - start,
        polled - acked,
        allocations() - polled,
        polls_sent,
    ]
}

/// The `fed_burst` rows' totals over the counted bursts, in `PINS`'
/// order: allocations, envelopes and messages sent, heap bytes still
/// live after the last purge that were not before the first counted
/// burst; the allocations by phase (consign acks awaited, polling,
/// purge), polls sent, and the bytes both sites' journals grew by.
fn measure_burst() -> [u64; 9] {
    let specs = FED_SITES.map(|s| SiteSpec::simple(s, FED_VSITE, Architecture::Generic));
    let config = FederationConfig {
        seed: 7,
        ..FederationConfig::default()
    };
    let mut fed = Federation::new(config, &specs);
    fed.register_user(DN, "bench");
    let disks = FED_SITES.map(|_| MemoryBackend::new());
    for (site, disk) in FED_SITES.into_iter().zip(&disks) {
        let store = EventStore::open(Box::new(disk.clone())).expect("open journal");
        let server = fed.server_mut(site).expect("listed site");
        server.njs_mut().attach_stores(vec![store]);
    }
    let journal_bytes = || disks.iter().map(MemoryBackend::total_bytes).sum::<u64>();

    let mut totals = [0u64; 9];
    let mut live_before = 0;
    for burst in 0..=COUNTED_BATCHES {
        if burst == 1 {
            live_before = live_bytes();
        }
        // The burst alternates plain and cross-site jobs, entering at S0
        // and S1 in pairs.
        let jobs: Vec<(usize, AbstractJob)> = (0..BURST_JOBS)
            .map(|i| {
                let home = (i / 2 + burst) % 2;
                (home, burst_job(format!("fb-{burst}-{i}"), home, i % 2 == 1))
            })
            .collect();
        let (envelopes, messages, journal) =
            (fed.envelopes_sent, fed.messages_sent, journal_bytes());
        let before = allocations();
        let phases = run_burst(&mut fed, jobs);
        if burst > 0 {
            totals[0] += allocations() - before;
            totals[1] += fed.envelopes_sent - envelopes;
            totals[2] += fed.messages_sent - messages;
            for (total, n) in totals[4..8].iter_mut().zip(phases) {
                *total += n;
            }
            totals[8] += journal_bytes() - journal;
        }
    }
    totals[3] =
        u64::try_from(live_bytes() - live_before).expect("a burst frees no more than it held");
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
    let burst = measure_burst();
    let njs_rows = [
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
    let njs_jobs = (COUNTED_BATCHES * BATCH_JOBS) as f64;
    let burst_jobs = (COUNTED_BATCHES * BURST_JOBS) as f64;
    let rows = njs_rows
        .map(|total| (total, njs_jobs))
        .into_iter()
        .chain(burst.map(|total| (total, burst_jobs)));
    let mut report = String::new();
    let mut failed = false;
    for (pin, (total, jobs)) in PINS.iter().zip(rows) {
        let measured = total as f64 / jobs;
        let pinned = if cfg!(debug_assertions) {
            pin.debug
        } else {
            pin.release
        };
        // One unit more or less over the counted jobs moves a number by
        // 1/192 ≈ 0.0052 (1/96 ≈ 0.0104 on the `fed_burst` row).
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
