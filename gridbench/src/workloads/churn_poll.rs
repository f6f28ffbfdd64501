//! `churn_poll` — 8 identities reconnecting through one `FrontDoor`:
//! connect → `authorize_dn` → a 5-flow `MuxFrame` poll sweep →
//! disconnect. Every 50th cycle of an identity presents no ticket and
//! pays the full RSA/DH handshake.
//!
//! This uses transport, gateway and crypto the *other* way round from
//! `live_consign`: handshake- and session-cache-bound, almost no record
//! traffic, no NJS. A record-path gain that costs connects, or a
//! resumption gain that costs full handshakes, shows here.

use super::site::{self, USITE, VSITE};
use super::wire::{self, decode, encode, recv_frames, send_frames, Client};
use crate::harness::{BatchOut, Metrics, WindowTotals, Workload};
use crate::inputs::{self, Pki};
use crate::trace::Tracer;
use unicore::protocol::outcome_of;
use unicore::{Body, Envelope, Request, Response};
use unicore_ajo::{ActionStatus, DetailLevel, JobId, JobOutcome, ServiceOutcome};
use unicore_gateway::{FrontDoor, Gateway, MuxFrame, UserEntry, Uudb};
use unicore_telemetry::Telemetry;
use unicore_transport::SessionCache;

const IDENTITIES: usize = 8;
/// Cycles per identity per batch, exactly one of them ticketless — every
/// batch carries the same full/resumed mix, so batch rates compare.
const CYCLES: usize = 50;
const FLOWS: u64 = 5;

pub struct ChurnPoll {
    seed: u64,
    pki: Pki,
    door: FrontDoor,
    gateway: Gateway,
    caches: Vec<SessionCache>,
    telemetry: Telemetry,
    now_secs: u64,
    connections: u64,
    peak_sessions: usize,
    /// Prepared: for each identity, the cycle that presents no ticket.
    ticketless: Vec<usize>,
    /// The canned poll answer the serving side returns for every flow.
    answer: Response,
}

impl ChurnPoll {
    /// One connect → authorize → poll sweep → disconnect cycle.
    fn cycle(
        &mut self,
        user: usize,
        fresh: bool,
        t: &mut Tracer,
        out: &mut BatchOut,
    ) -> Result<(), String> {
        self.connections += 1;
        let id = self.connections;
        if fresh {
            // No ticket to present: the full RSA/DH handshake.
            self.caches[user] = SessionCache::new(4);
        }
        let client = Client {
            identity: &self.pki.users[user],
            trust: &self.pki.trust,
            cache: &self.caches[user],
            usite: USITE,
        };
        let conn_seed = self.seed.wrapping_mul(1_000_003) ^ id;
        let mut link = wire::connect(&mut self.door, &client, self.now_secs, conn_seed, t, out)?;
        self.peak_sessions = self.peak_sessions.max(link.sessions_active);
        if link.resumed == fresh {
            out.verify(false, "handshake kind does not match the ticket presented");
        }
        if link.resumed {
            out.request_ns.push(link.handshake_ns);
        }

        let g = t.enter("gateway.authorize", id);
        let decision =
            self.gateway
                .authorize_dn(link.server.dn(), VSITE, Some(inputs::GROUP), self.now_secs);
        t.exit(g);
        out.verify(decision.is_accepted(), "gateway refused a registered DN");

        // One poll sweep: FLOWS polls in one batched record each way.
        let sweep = t.enter("client.pollbook_sweep", id);
        let dn = link.server.dn().to_owned();
        let mut framed = |body: Body, flow: u64| {
            let env = Envelope {
                corr: flow + 1,
                from_dn: dn.clone(),
                body,
                trace: None,
                seq: None,
                ack: None,
            };
            MuxFrame::new(flow, encode(&env, id, t, out))
        };
        let polls: Vec<MuxFrame> = (0..FLOWS)
            .map(|flow| {
                let job = JobId(flow + 1);
                let detail = DetailLevel::JobOnly;
                framed(Body::Request(Request::Poll { job, detail }), flow)
            })
            .collect();
        let answers: Vec<MuxFrame> = (0..FLOWS)
            .map(|flow| framed(Body::Response(self.answer.clone()), flow))
            .collect();
        send_frames(&mut link.client, &polls, id, t, out)?;
        let asked = recv_frames(&mut link.server.chan, id, t)?;
        out.verify(asked == polls, "poll sweep arrived altered");
        send_frames(&mut link.server.chan, &answers, id, t, out)?;
        let mut answered = 0;
        for frame in recv_frames(&mut link.client, id, t)? {
            if let Body::Response(r) = decode(&frame.payload, id, t)?.body {
                answered += u64::from(outcome_of(&r).is_some());
            }
        }
        t.exit(sweep);
        out.verify(answered == FLOWS, "poll sweep lost a flow");

        wire::disconnect(&mut self.door, link);
        Ok(())
    }
}

impl Workload for ChurnPoll {
    const NAME: &'static str = "churn_poll";
    /// Nothing server-side accumulates: the door's cache and live table
    /// are bounded by the identity set.
    const EPOCH_BATCHES: u64 = u64::MAX;

    const ONE_CPU: bool = true;

    fn threads() -> usize {
        2 // the harness thread plus the server-side handshake thread
    }

    fn setup(seed: u64, collect: bool) -> Self {
        let mut pki = Pki::generate(seed, USITE, IDENTITIES);
        let telemetry = site::telemetry(seed, collect);
        let mut uudb = Uudb::new();
        for i in 0..IDENTITIES {
            uudb.add(
                pki.user_dn(i),
                UserEntry::new(format!("u{i}"), inputs::GROUP),
            );
        }
        let mut gateway = Gateway::new(USITE, uudb);
        let mut door = FrontDoor::new(
            pki.gateway.take().expect("gateway identity"),
            pki.trust.clone(),
            IDENTITIES * 2,
        );
        if collect {
            door.set_telemetry(telemetry.clone());
            gateway.set_telemetry(&telemetry);
        }
        let mut fixture = ChurnPoll {
            seed,
            pki,
            door,
            gateway,
            caches: (0..IDENTITIES).map(|_| SessionCache::new(4)).collect(),
            telemetry,
            now_secs: 100,
            connections: 0,
            peak_sessions: 0,
            ticketless: Vec::new(),
            answer: Response::Service(ServiceOutcome::Query {
                outcome: JobOutcome {
                    status: ActionStatus::Running,
                    children: Vec::new(),
                },
            }),
        };
        // First contact: every identity pays its full handshake once and
        // holds a ticket from then on.
        let mut out = BatchOut::default();
        for user in 0..IDENTITIES {
            fixture
                .cycle(user, true, &mut Tracer::off(), &mut out)
                .expect("first contact through a healthy front door");
        }
        assert_eq!(out.failed, 0, "first contact failed verification");
        fixture
    }

    fn renew(&mut self) {}

    fn prepare(&mut self, index: u64) {
        let mut rng = inputs::batch_rng(self.seed, Self::NAME, index);
        self.ticketless = (0..IDENTITIES)
            .map(|_| rng.next_below(CYCLES as u64) as usize)
            .collect();
    }

    fn batch(&mut self, _index: u64, _keep: bool, t: &mut Tracer, out: &mut BatchOut) {
        for cycle in 0..CYCLES {
            self.now_secs += 1;
            for user in 0..IDENTITIES {
                out.ops += 1;
                let fresh = self.ticketless[user] == cycle;
                if let Err(e) = self.cycle(user, fresh, t, out) {
                    t.abandon();
                    out.verify(false, &e);
                }
            }
        }
    }

    fn layer_metrics(&mut self, totals: &WindowTotals, _t: &Tracer, m: &mut Metrics) {
        wire::front_door_metrics(&self.telemetry, self.peak_sessions, &self.pki, totals, m);
    }
}
