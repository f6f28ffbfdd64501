//! The live-wire pieces `live_consign` and `churn_poll` share: one
//! client connecting through a `FrontDoor` over a `wire_pair`, with the
//! real handshake on both ends.

use crate::harness::{BatchOut, Metrics, WindowTotals};
use crate::inputs::Pki;
use crate::probes;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unicore::Envelope;
use unicore_certs::{Identity, TrustStore};
use unicore_codec::DerCodec;
use unicore_crypto::CryptoRng;
use unicore_gateway::{decode_frames, encode_frames, FrontDoor, FrontDoorConn, MuxFrame};
use unicore_simnet::wire_pair;
use unicore_telemetry::Telemetry;
use unicore_transport::record::{HEADER_LEN, MAC_LEN};
use unicore_transport::{client_handshake, Endpoint, SecureChannel, SessionCache};

/// Generous: every message is already on the wire when it is awaited.
const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Wire bytes of a record carrying `plaintext` bytes.
fn record_bytes(plaintext: usize) -> f64 {
    (HEADER_LEN + plaintext + MAC_LEN) as f64
}

/// `Envelope::to_der` under a `codec.encode` span.
pub fn encode(env: &Envelope, id: u64, t: &mut Tracer, out: &mut BatchOut) -> Vec<u8> {
    let g = t.enter("codec.encode", id);
    let der = env.to_der();
    t.exit(g);
    out.count("codec.bytes", der.len() as f64);
    der
}

/// `Envelope::from_der` under a `codec.decode` span.
pub fn decode(raw: &[u8], id: u64, t: &mut Tracer) -> Result<Envelope, String> {
    let g = t.enter("codec.decode", id);
    let env = Envelope::from_der(raw);
    t.exit(g);
    env.map_err(|e| format!("envelope decode: {e}"))
}

/// One sealed record out (`transport.seal`).
pub fn send(
    chan: &mut SecureChannel,
    der: &[u8],
    id: u64,
    t: &mut Tracer,
    out: &mut BatchOut,
) -> Result<(), String> {
    let g = t.enter("transport.seal", id);
    let sent = chan.send(der);
    t.exit(g);
    out.count("transport.record_bytes", record_bytes(der.len()));
    sent.map_err(|e| format!("send: {e}"))
}

/// One sealed record in (`transport.open`).
pub fn recv(chan: &mut SecureChannel, id: u64, t: &mut Tracer) -> Result<Vec<u8>, String> {
    let g = t.enter("transport.open", id);
    let raw = chan.recv(RECV_TIMEOUT);
    t.exit(g);
    raw.map_err(|e| format!("recv: {e}"))
}

/// A sweep of mux frames out as one batched record.
pub fn send_frames(
    chan: &mut SecureChannel,
    frames: &[MuxFrame],
    id: u64,
    t: &mut Tracer,
    out: &mut BatchOut,
) -> Result<(), String> {
    let g = t.enter("gateway.mux_codec", id);
    let encoded = encode_frames(frames);
    t.exit(g);
    let refs: Vec<&[u8]> = encoded.iter().map(Vec::as_slice).collect();
    let g = t.enter("transport.seal", id);
    let sent = chan.send_frames(&refs);
    t.exit(g);
    let plaintext = encoded.iter().map(|f| 4 + f.len()).sum();
    out.count("transport.record_bytes", record_bytes(plaintext));
    sent.map_err(|e| format!("send_frames: {e}"))
}

/// One batched record in, split back into mux frames.
pub fn recv_frames(
    chan: &mut SecureChannel,
    id: u64,
    t: &mut Tracer,
) -> Result<Vec<MuxFrame>, String> {
    let g = t.enter("transport.open", id);
    let raw = chan.recv_frames(RECV_TIMEOUT);
    t.exit(g);
    let raw = raw.map_err(|e| format!("recv_frames: {e}"))?;
    let g = t.enter("gateway.mux_codec", id);
    let frames = decode_frames(&raw);
    t.exit(g);
    frames.map_err(|e| format!("mux decode: {e}"))
}

/// The client end of a connection attempt.
pub struct Client<'a> {
    pub identity: &'a Arc<Identity>,
    pub trust: &'a Arc<TrustStore>,
    pub cache: &'a SessionCache,
    pub usite: &'a str,
}

/// An established connection: both ends, as the harness plays both.
pub struct Link {
    pub client: SecureChannel,
    pub server: FrontDoorConn,
    pub resumed: bool,
    /// Client-side handshake wall time.
    pub handshake_ns: u64,
    /// Sessions live at the door once this one was accepted.
    pub sessions_active: usize,
}

/// Connects `client` through `door`: `client_handshake` on the harness
/// thread, `FrontDoor::accept` on a scoped server thread (the handshake
/// is a conversation; it needs both ends live). The span is named
/// `transport.handshake_full` or `_resumed` once the outcome is known.
pub fn connect(
    door: &mut FrontDoor,
    client: &Client<'_>,
    now_secs: u64,
    conn_seed: u64,
    t: &mut Tracer,
    out: &mut BatchOut,
) -> Result<Link, String> {
    let (cw, sw) = wire_pair();
    let endpoint = Endpoint {
        identity: client.identity.clone(),
        intermediates: Vec::new(),
        trust: client.trust.clone(),
        now: now_secs,
        timeout: RECV_TIMEOUT,
        ticket_ttl: unicore_transport::DEFAULT_TICKET_TTL,
        telemetry: Telemetry::disabled(),
    };
    let g = t.enter("transport.handshake_full", conn_seed);
    let started = Instant::now();
    let (chan, accepted, accept_ns) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(conn_seed).fork("server");
            let t0 = Instant::now();
            let conn = door.accept(sw, now_secs, &mut rng);
            (conn, t0.elapsed().as_nanos() as u64)
        });
        let mut rng = CryptoRng::from_u64(conn_seed).fork("client");
        let chan = client_handshake(cw, &endpoint, client.usite, client.cache, &mut rng);
        let (conn, accept_ns) = server.join().expect("accept thread panicked");
        (chan, conn, accept_ns)
    });
    let handshake_ns = started.elapsed().as_nanos() as u64;
    let resumed = chan.as_ref().is_ok_and(|c| c.resumed());
    if resumed {
        t.rename("transport.handshake_resumed");
    }
    t.exit(g);
    let client = chan.map_err(|e| format!("client handshake: {e}"))?;
    let server = accepted.map_err(|e| format!("front door: {e}"))?;
    out.count("transport.connects", 1.0);
    out.count("transport.resumed", f64::from(u8::from(resumed)));
    out.timing("gateway.accept_us", accept_ns as f64 / 1e3);
    Ok(Link {
        client,
        server,
        resumed,
        handshake_ns,
        sessions_active: door.active_sessions(),
    })
}

/// Orderly disconnect of both ends.
pub fn disconnect(door: &mut FrontDoor, link: Link) {
    let Link {
        mut client, server, ..
    } = link;
    door.disconnect(server);
    client.close();
}

/// Per-layer metrics of a front-door workload: the product's refusal
/// counters, the session peak, and the crypto probes on the workload's
/// own record size and keys.
pub fn front_door_metrics(
    telemetry: &Telemetry,
    peak_sessions: usize,
    pki: &Pki,
    totals: &WindowTotals,
    m: &mut Metrics,
) {
    let read = probes::reader(telemetry);
    m.put(
        "transport.resume_rejected",
        read("transport.handshake.resume_rejected") as f64,
        "count",
    );
    m.put(
        "gateway.refused",
        (read("gateway.authn.refused") + read("gateway.sessions.failed")) as f64,
        "count",
    );
    m.put(
        "gateway.sessions_active_peak",
        peak_sessions as f64,
        "count",
    );
    let record = totals.count("codec.bytes") / totals.calls("codec.encode").max(1.0);
    probes::crypto_symmetric(record as usize, m);
    probes::crypto_handshake(pki, m);
}
