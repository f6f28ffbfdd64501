//! What `fed_burst` and `transfer_stream` share: a `Federation` with
//! timing journals attached, and the JPA/JMC loop that takes a set of
//! jobs from `client_submit` to verified terminal outcomes and purges
//! them. The `Federation` is opaque from outside — the harness can only
//! time `client_*`, `run_until` and `take_client_response` and read
//! counters; opening that box is a follow-up issue.

use crate::harness::BatchOut;
use crate::timed_store::{StoreCounters, TimedBackend};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use unicore::protocol::outcome_of;
use unicore::{Federation, Request, Response};
use unicore_ajo::{AbstractJob, DetailLevel, JobId};
use unicore_codec::DerCodec;
use unicore_sim::{SimTime, HOUR, SEC};

/// How far the federation runs between looks for consign acks.
const ACK_STEP: SimTime = 5 * SEC;

/// Registers the user everywhere and gives every site's NJS a journal on
/// a timing backend (the production configuration, made observable).
pub fn equip(fed: &mut Federation, dn: &str, store: &Arc<StoreCounters>) {
    fed.register_user(dn, "bench");
    for site in fed.site_names().to_vec() {
        let njs = fed.server_mut(&site).expect("listed site").njs_mut();
        let stores = (0..njs.shard_count())
            .map(|_| TimedBackend::new(store.clone()).open_store())
            .collect();
        njs.attach_stores(stores);
    }
}

/// Counter reader summing over every site's collector.
pub fn reader(fed: &Federation) -> impl Fn(&str) -> u64 + '_ {
    |name| {
        fed.site_names()
            .iter()
            .filter_map(|s| fed.server(s))
            .map(|s| s.telemetry().counter(name).get())
            .sum()
    }
}

/// Product counters read back per batch.
pub const FED_COUNTERS: &[(&str, &str)] = &[
    ("batch.submitted", "batch.submitted"),
    ("batch.completed", "batch.completed"),
    ("store.wal.appends", "store.events"),
    ("dataplane.chunks.sent", "dataplane.chunks_sent"),
];

/// Takes `jobs` (each submitted via its Usite) from submission to
/// verified terminal outcomes, then purges them.
///
/// Everything is submitted up front; acknowledgements are awaited; then
/// the JMC polls every outstanding job once per `poll_period` of
/// simulated time. `watch` is called before every advance of the
/// federation with the job ids known so far and may ask for a shorter
/// step (to observe a stream in flight).
#[allow(clippy::too_many_arguments)]
pub fn run_jobs(
    fed: &mut Federation,
    dn: &str,
    jobs: Vec<(&'static str, AbstractJob)>,
    poll_period: SimTime,
    keep: bool,
    t: &mut Tracer,
    out: &mut BatchOut,
    mut watch: impl FnMut(&Federation, &[Option<JobId>]) -> Option<SimTime>,
) {
    let n = jobs.len();
    out.ops += n as u64;
    let submitted_at = fed.now();
    let deadline = submitted_at + 4 * HOUR;
    let (messages, retries) = (fed.messages_sent, fed.retries);

    let mut pending = Vec::with_capacity(n);
    for (i, (via, ajo)) in jobs.into_iter().enumerate() {
        let started = Instant::now();
        let g = t.enter("core.fed_client_submit", i as u64);
        let corr = fed.client_submit(via, ajo, dn);
        t.exit(g);
        pending.push((i, via, corr, started));
    }

    let mut vias = vec![""; n];
    let mut ids: Vec<Option<JobId>> = vec![None; n];
    while !pending.is_empty() && fed.now() < deadline {
        let g = t.enter("core.fed_run_until", 0);
        fed.run_until(fed.now() + ACK_STEP);
        t.exit(g);
        pending.retain(|&(i, via, corr, started)| {
            let g = t.enter("core.fed_take_response", i as u64);
            let response = fed.take_client_response(corr);
            t.exit(g);
            match response {
                Some(Response::Consigned { job }) => {
                    out.request_ns.push(started.elapsed().as_nanos() as u64);
                    ids[i] = Some(job);
                    vias[i] = via;
                    false
                }
                Some(other) => {
                    out.verify(false, &format!("consign {i} answered {other:?}"));
                    false
                }
                None => true,
            }
        });
    }
    out.verify(pending.is_empty(), "consign acks never arrived");

    let mut outstanding: Vec<usize> = (0..n).filter(|&i| ids[i].is_some()).collect();
    let mut done: Vec<usize> = Vec::with_capacity(n);
    while !outstanding.is_empty() && fed.now() < deadline {
        let polls: Vec<(usize, u64)> = outstanding
            .iter()
            .map(|&i| {
                let g = t.enter("core.fed_client_poll", i as u64);
                let job = ids[i].expect("outstanding jobs are consigned");
                let corr = fed.client_poll(vias[i], dn, job, DetailLevel::Tasks);
                t.exit(g);
                (i, corr)
            })
            .collect();
        let round_end = fed.now() + poll_period;
        while fed.now() < round_end {
            let step = watch(fed, &ids).unwrap_or(poll_period);
            let g = t.enter("core.fed_run_until", 0);
            fed.run_until((fed.now() + step).min(round_end));
            t.exit(g);
        }
        for (i, corr) in polls {
            let g = t.enter("core.fed_take_response", i as u64);
            let response = fed.take_client_response(corr);
            t.exit(g);
            let Some(response) = response else { continue };
            match outcome_of(&response) {
                Some(o) if o.status.is_terminal() => {
                    out.verify(
                        o.status.is_success(),
                        &format!("job {i} ended {:?}", o.status),
                    );
                    if keep {
                        out.outcomes.push(o.to_der());
                    }
                    let seen = (fed.now() - submitted_at) as f64 / SEC as f64;
                    out.sample("sim.grid_time_s", seen);
                    outstanding.retain(|&j| j != i);
                    done.push(i);
                }
                Some(_) => {}
                None => out.verify(false, &format!("poll {i} answered {response:?}")),
            }
        }
    }
    watch(fed, &ids);
    out.verify(outstanding.is_empty(), "jobs still running at the deadline");

    // The JMC saved what it wanted; purge keeps the sites stationary.
    let purges: Vec<u64> = done
        .iter()
        .map(|&i| {
            let g = t.enter("core.fed_client_purge", i as u64);
            let job = ids[i].expect("done jobs are consigned");
            let corr = fed.client_request(vias[i], dn, Request::Purge { job });
            t.exit(g);
            corr
        })
        .collect();
    let g = t.enter("core.fed_run_until", 0);
    fed.run_until(fed.now() + ACK_STEP);
    t.exit(g);
    for corr in purges {
        let g = t.enter("core.fed_take_response", 0);
        let response = fed.take_client_response(corr);
        t.exit(g);
        out.verify(
            matches!(response, Some(Response::Purged { .. })),
            "purge refused or unanswered",
        );
    }

    out.count("fed.messages", (fed.messages_sent - messages) as f64);
    out.count("fed.retries", (fed.retries - retries) as f64);
}
