//! `live_consign` — one Usite on the live-wire stack, composed in the
//! harness: the JPA builds the AJO → `Envelope::to_der` → a sealed
//! `SecureChannel` record over a `wire_pair` → the `FrontDoor`
//! connection (resumed once per 64-job batch, full on first contact) →
//! `Gateway::authorize_dn` → `UnicoreServer::handle_request` (admit,
//! consign, WAL on the timing backend) → `step` to terminal while the JMC
//! sweeps multiplexed polls → purge.
//!
//! Every small-message layer is on the critical path; the federation is
//! bypassed. Because the harness composes the layers itself, the span
//! rows here sum to the wall-clock µs/job.

use super::core_step::{CHAIN3_SLEEPS, NJS_COUNTERS};
use super::site::{self, USITE, VSITE};
use super::wire::{self, decode, encode, recv, recv_frames, send, send_frames, Client, Link};
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs::{self, Pki};
use crate::probes::{self, CounterWatch};
use crate::timed_store::{StoreCounters, TimedBackend};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use unicore::protocol::outcome_of;
use unicore::{Body, Envelope, Request, Response, UnicoreServer};
use unicore_ajo::{DetailLevel, JobId, VsiteAddress};
use unicore_client::jmc::PollBook;
use unicore_client::jpa::JobPreparationAgent;
use unicore_codec::DerCodec;
use unicore_gateway::{FrontDoor, MuxFrame};
use unicore_sim::{SimTime, HOUR, SEC};
use unicore_telemetry::{SpanContext, Telemetry};
use unicore_transport::SessionCache;

const BATCH_JOBS: usize = 64;
/// One job in four is a 16-leaf fan, the rest are three-task chains.
const FAN_EVERY: usize = 4;
/// How often the JMC sweeps its poll book, in simulated time.
const POLL_PERIOD: SimTime = 30 * SEC;

pub struct LiveConsign {
    seed: u64,
    pki: Pki,
    dn: String,
    jpa: JobPreparationAgent,
    door: FrontDoor,
    cache: SessionCache,
    server: UnicoreServer,
    store: Arc<StoreCounters>,
    telemetry: Telemetry,
    /// The rebuilt server's simulated clock; restarts with each epoch.
    now: SimTime,
    /// The front door's clock in seconds (certificate validity, ticket
    /// lifetimes). It outlives server epochs and never runs backwards.
    door_secs: u64,
    next_corr: u64,
    connections: u64,
    /// Prepared mix of the next batch: `true` is a fan job.
    mix: Vec<bool>,
    peak_sessions: usize,
}

fn build_server(dn: &str, store: &Arc<StoreCounters>, telemetry: &Telemetry) -> UnicoreServer {
    site::build_server(dn, TimedBackend::new(store.clone()).open_store(), telemetry)
}

/// What kind of sweep a batched record carries (names its spans).
#[derive(Clone, Copy)]
struct SweepKind {
    client: &'static str,
    handle: &'static str,
}

const POLL_SWEEP: SweepKind = SweepKind {
    client: "client.pollbook_sweep",
    handle: "core.handle_poll",
};
const PURGE_SWEEP: SweepKind = SweepKind {
    client: "client.purge_sweep",
    handle: "core.handle_purge",
};

impl LiveConsign {
    fn envelope(&mut self, request: Request, trace: Option<SpanContext>) -> Envelope {
        let corr = self.next_corr;
        self.next_corr += 1;
        Envelope {
            corr,
            from_dn: self.dn.clone(),
            body: Body::Request(request),
            trace,
            seq: None,
            ack: None,
        }
    }

    /// Serves one decoded request on the server side of the link, as the
    /// gateway process would: the authenticated DN comes from the
    /// connection, never from the envelope. Journal time spent below the
    /// call is attributed to the store.
    fn serve(
        &mut self,
        link: &Link,
        env: Envelope,
        span: &'static str,
        id: u64,
        t: &mut Tracer,
    ) -> Envelope {
        let Body::Request(request) = env.body else {
            return reply(env.corr, Response::Error("not a request".into()));
        };
        let before = self.store.snapshot();
        let g = t.enter(span, id);
        let response =
            self.server
                .handle_request_traced(link.server.dn(), request, self.now, env.trace);
        let journal = self.store.snapshot().since(&before);
        t.child("store.append", journal.appends, journal.append_ns);
        t.exit(g);
        reply(env.corr, response)
    }

    /// One request/response exchange over the sealed channel.
    fn round_trip(
        &mut self,
        link: &mut Link,
        env: Envelope,
        handle_span: &'static str,
        id: u64,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Result<Response, String> {
        let der = encode(&env, id, t, out);
        send(&mut link.client, &der, id, t, out)?;
        let raw = recv(&mut link.server.chan, id, t)?;
        let request = decode(&raw, id, t)?;
        let answer = self.serve(link, request, handle_span, id, t);
        let der = encode(&answer, id, t, out);
        send(&mut link.server.chan, &der, id, t, out)?;
        let raw = recv(&mut link.client, id, t)?;
        match decode(&raw, id, t)?.body {
            Body::Response(r) => Ok(r),
            Body::Request(_) => Err("request where a response was due".into()),
        }
    }

    /// One multiplexed sweep: every `(flow, request)` rides one batched
    /// record each way. Returns the responses by flow.
    fn sweep(
        &mut self,
        link: &mut Link,
        requests: Vec<(u64, Request)>,
        kind: SweepKind,
        id: u64,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Result<Vec<(u64, Response)>, String> {
        let frames: Vec<MuxFrame> = requests
            .into_iter()
            .map(|(flow, request)| {
                let env = self.envelope(request, None);
                MuxFrame::new(flow, encode(&env, flow, t, out))
            })
            .collect();
        send_frames(&mut link.client, &frames, id, t, out)?;
        let polls = recv_frames(&mut link.server.chan, id, t)?;
        let mut answers = Vec::with_capacity(polls.len());
        for frame in polls {
            let request = decode(&frame.payload, frame.flow, t)?;
            let answer = self.serve(link, request, kind.handle, frame.flow, t);
            answers.push(MuxFrame::new(
                frame.flow,
                encode(&answer, frame.flow, t, out),
            ));
        }
        send_frames(&mut link.server.chan, &answers, id, t, out)?;
        recv_frames(&mut link.client, id, t)?
            .into_iter()
            .map(|frame| match decode(&frame.payload, frame.flow, t)?.body {
                Body::Response(r) => Ok((frame.flow, r)),
                Body::Request(_) => Err("request where a response was due".to_owned()),
            })
            .collect()
    }

    /// The batch proper; any transport or protocol error aborts it.
    fn run_batch(
        &mut self,
        index: u64,
        keep: bool,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Result<(), String> {
        self.connections += 1;
        let conn_seed = self.seed.wrapping_mul(1_000_003) ^ self.connections;
        let client = Client {
            identity: &self.pki.users[0],
            trust: &self.pki.trust,
            cache: &self.cache,
            usite: USITE,
        };
        self.door_secs += 60;
        let mut link = wire::connect(&mut self.door, &client, self.door_secs, conn_seed, t, out)?;
        self.peak_sessions = self.peak_sessions.max(link.sessions_active);

        let g = t.enter("gateway.authorize", index);
        let decision = self.server.gateway_mut().authorize_dn(
            link.server.dn(),
            VSITE,
            Some(inputs::GROUP),
            self.now / SEC,
        );
        t.exit(g);
        if !decision.is_accepted() {
            return Err("gateway refused the connection's DN".into());
        }

        // Consign: each JPA call waits for its acknowledgement.
        let mut book = PollBook::new();
        let mut submitted: HashMap<JobId, SimTime> = HashMap::new();
        let vsite = VsiteAddress::new(USITE, VSITE);
        for (i, fan) in std::mem::take(&mut self.mix).into_iter().enumerate() {
            let id = i as u64;
            let name = format!("lc-{:x}-{index}-{i}", self.seed);
            let g = t.enter("client.ajo_build", id);
            let ajo = if fan {
                inputs::fan_job(&self.jpa, name, vsite.clone(), 16)
            } else {
                inputs::chain_job(&self.jpa, name, vsite.clone(), &CHAIN3_SLEEPS)
            };
            t.exit(g);
            // Head sampling, as the federation's client port does it: a
            // consign roots a trace when telemetry collects.
            let mut span = self.telemetry.span("client.request", None, self.now);
            let env = self.envelope(Request::Consign { ajo }, span.ctx());
            let started = Instant::now();
            let response = self.round_trip(&mut link, env, "core.handle_consign", id, t, out);
            out.request_ns.push(started.elapsed().as_nanos() as u64);
            span.attr("via", USITE);
            self.telemetry.end(span, self.now);
            match response? {
                Response::Consigned { job } => {
                    book.enroll(job);
                    submitted.insert(job, self.now);
                }
                other => out.verify(false, &format!("consign answered {other:?}")),
            }
        }
        out.ops += BATCH_JOBS as u64;

        // The server works; the JMC sweeps its poll book every period.
        let deadline = self.now + 4 * HOUR;
        let mut done: Vec<JobId> = Vec::with_capacity(book.len());
        while !book.is_empty() && self.now < deadline {
            let poll_at = self.now + POLL_PERIOD;
            while self.now < poll_at {
                self.now = self
                    .server
                    .next_event_time()
                    .unwrap_or(poll_at)
                    .clamp(self.now + SEC, poll_at);
                let before = self.store.snapshot();
                let g = t.enter("core.server_step", index);
                let outbound = self.server.step(self.now);
                let journal = self.store.snapshot().since(&before);
                t.child("store.append", journal.appends, journal.append_ns);
                t.exit(g);
                out.verify(
                    outbound.is_empty(),
                    "a single site forwarded work to a peer",
                );
            }
            let g = t.enter(POLL_SWEEP.client, index);
            let polls = book
                .begin_sweep()
                .into_iter()
                .map(|(flow, job)| {
                    let detail = DetailLevel::Tasks;
                    (flow, Request::Poll { job, detail })
                })
                .collect();
            let answers = self.sweep(&mut link, polls, POLL_SWEEP, index, t, out);
            let mut finished = Vec::new();
            for (flow, response) in answers? {
                let Some(job) = book.settle(flow) else {
                    continue;
                };
                match outcome_of(&response) {
                    Some(o) if o.status.is_terminal() => {
                        out.verify(
                            o.status.is_success(),
                            &format!("job {} ended {:?}", job.0, o.status),
                        );
                        if keep {
                            out.outcomes.push(o.to_der());
                        }
                        finished.push(job);
                    }
                    Some(_) => {}
                    None => out.verify(false, &format!("poll answered {response:?}")),
                }
            }
            for job in finished {
                book.retire(job);
                let turnaround = self.now - submitted[&job];
                out.sample("sim.grid_time_s", turnaround as f64 / SEC as f64);
                done.push(job);
            }
            t.exit(g);
        }
        out.verify(book.is_empty(), "jobs still running at the deadline");

        // The JMC saved what it wanted; purge keeps the site stationary.
        let g = t.enter(PURGE_SWEEP.client, index);
        let purges = done
            .iter()
            .enumerate()
            .map(|(flow, &job)| (flow as u64, Request::Purge { job }))
            .collect();
        let answers = self.sweep(&mut link, purges, PURGE_SWEEP, index, t, out);
        t.exit(g);
        for (_, response) in answers? {
            out.verify(matches!(response, Response::Purged { .. }), "purge refused");
        }

        wire::disconnect(&mut self.door, link);
        Ok(())
    }
}

fn reply(corr: u64, response: Response) -> Envelope {
    Envelope {
        corr,
        from_dn: format!("C=DE, O=Bench, OU=Repro, CN={USITE}-gw"),
        body: Body::Response(response),
        trace: None,
        seq: None,
        ack: None,
    }
}

impl Workload for LiveConsign {
    const NAME: &'static str = "live_consign";
    const EPOCH_BATCHES: u64 = 32;

    const ONE_CPU: bool = true;

    fn threads() -> usize {
        2 // the harness thread plus the server-side handshake thread
    }

    fn setup(seed: u64, collect: bool) -> Self {
        let mut pki = Pki::generate(seed, USITE, 1);
        let dn = pki.user_dn(0);
        let telemetry = site::telemetry(seed, collect);
        let store = Arc::new(StoreCounters::default());
        let server = build_server(&dn, &store, &telemetry);
        let mut door = FrontDoor::new(
            pki.gateway.take().expect("gateway identity"),
            pki.trust.clone(),
            16,
        );
        if collect {
            door.set_telemetry(telemetry.clone());
        }
        LiveConsign {
            seed,
            jpa: JobPreparationAgent::new(
                inputs::user_attrs(&dn),
                server.resource_directory().clone(),
            ),
            pki,
            dn,
            door,
            cache: SessionCache::new(4),
            server,
            store,
            telemetry,
            now: 0,
            door_secs: 100,
            next_corr: 1,
            connections: 0,
            mix: Vec::new(),
            peak_sessions: 0,
        }
    }

    fn renew(&mut self) {
        // The door and its session cache live on: a site restart does not
        // reissue certificates or tickets.
        self.server = build_server(&self.dn, &self.store, &self.telemetry);
        self.now = 0;
        self.next_corr = 1;
    }

    fn prepare(&mut self, index: u64) {
        let mut rng = inputs::batch_rng(self.seed, Self::NAME, index);
        self.mix = (0..BATCH_JOBS).map(|i| i % FAN_EVERY == 0).collect();
        inputs::shuffle(&mut self.mix, &mut rng);
    }

    fn batch(&mut self, index: u64, keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        let before = self.store.snapshot();
        let watch = CounterWatch::begin(NJS_COUNTERS, probes::reader(&self.telemetry));
        if let Err(e) = self.run_batch(index, keep, t, out) {
            out.ops = out.ops.max(BATCH_JOBS as u64);
            out.failed += BATCH_JOBS as u64;
            t.abandon();
            eprintln!("gridbench: live_consign batch aborted: {e}");
        }
        self.store.snapshot().since(&before).count_into(out);
        watch.end(probes::reader(&self.telemetry), out);
    }

    fn layer_metrics(&mut self, totals: &WindowTotals, _t: &Tracer, m: &mut Metrics) {
        wire::front_door_metrics(&self.telemetry, self.peak_sessions, &self.pki, totals, m);
    }
}
