//! The mutual-authentication handshake.
//!
//! Full flow (paper §4.1: server authenticates first, then the user):
//!
//! ```text
//! C -> S  ClientHello  { c_random, session_id?, ticket? }
//! S -> C  ServerHello  { s_random, session_id, chain, dh_s, sig_s }
//!         sig_s = Sign_S(c_random || s_random || dh_s)
//! C -> S  ClientAuth   { chain, dh_c, sig_c }
//!         sig_c = Sign_C(H(hello transcript) || dh_c || cert_c)
//!         both: master = HKDF-Extract(c_random || s_random, DH shared)
//! C -> S  Finished     (under record keys)
//! S -> C  Finished     (under record keys)
//! S -> C  NewTicket    (under record keys)
//! ```
//!
//! Abbreviated flow: resumption requires a [`ResumptionTicket`] offer that
//! validates against the server's `SessionCache` hit — binder HMAC under
//! the cached master, matching cert fingerprint, inside the TTL window,
//! current cache epoch — *and* a live trust-store check on the cached
//! peer certificate (so a revoked cert cannot resume). The server then
//! replies `resumed = true` with no chain/DH, both sides derive a fresh
//! per-connection master (`HKDF-Extract(c_random || s_random, cached
//! master)`) so resumed connections never reuse record nonces, and
//! exchange Finished in the S → C, C → S order. A fresh ticket is minted
//! on every connection — full or resumed — so tickets rotate per
//! reconnect. Any ticket that fails validation silently falls back to
//! the full handshake.

use crate::channel::SecureChannel;
use crate::error::TransportError;
use crate::messages::{HandshakeMessage, RANDOM_LEN};
use crate::record::RecordKeys;
use crate::session::{CachedSession, SessionCache};
use crate::ticket::ResumptionTicket;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unicore_certs::{Certificate, Identity, RequiredUsage, TrustStore};
use unicore_codec::DerCodec;
use unicore_crypto::bignum::BigUint;
use unicore_crypto::dh::{DhEphemeral, DhGroup};
use unicore_crypto::hmac::hmac_sha256;
use unicore_crypto::rng::CryptoRng;
use unicore_crypto::sha256::Sha256;
use unicore_simnet::WireEnd;
use unicore_telemetry::Telemetry;

/// Default resumption-ticket lifetime (simulation seconds).
pub const DEFAULT_TICKET_TTL: u64 = 3_600;

/// Configuration for one endpoint of the secure transport.
pub struct Endpoint {
    /// This endpoint's certificate and private key.
    pub identity: Arc<Identity>,
    /// Additional intermediate certificates to present with the chain.
    pub intermediates: Vec<Certificate>,
    /// Trust anchors + CRLs used to validate the peer.
    pub trust: Arc<TrustStore>,
    /// Evaluation time for certificate validity (simulation seconds).
    pub now: u64,
    /// Receive timeout for handshake messages.
    pub timeout: Duration,
    /// Lifetime of resumption tickets this endpoint mints (server side).
    pub ticket_ttl: u64,
    /// Telemetry sink for handshake and record-layer metrics; disabled
    /// by default.
    pub telemetry: Telemetry,
}

impl Endpoint {
    /// An endpoint with the default 5-second handshake timeout.
    pub fn new(identity: Identity, trust: Arc<TrustStore>, now: u64) -> Self {
        Endpoint {
            identity: Arc::new(identity),
            intermediates: Vec::new(),
            trust,
            now,
            timeout: Duration::from_secs(5),
            ticket_ttl: DEFAULT_TICKET_TTL,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; handshakes through this endpoint
    /// count under `transport.handshake.*` and channels it produces
    /// count records under `transport.records.*`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the minted-ticket lifetime.
    pub fn with_ticket_ttl(mut self, ttl: u64) -> Self {
        self.ticket_ttl = ttl;
        self
    }

    fn chain(&self) -> Vec<Certificate> {
        let mut chain = vec![self.identity.cert.clone()];
        chain.extend(self.intermediates.iter().cloned());
        chain
    }
}

/// Books a completed handshake: full-vs-resumed counter, wall-clock
/// latency, and the channel's record counters. The registry lookups
/// happen here, once per connect — which on a churning front door is the
/// hot path, but still not once per record.
fn record_handshake(ep: &Endpoint, resumed: bool, started: Instant, chan: &mut SecureChannel) {
    chan.attach_telemetry(&ep.telemetry);
    let name = if resumed {
        "transport.handshake.resumed"
    } else {
        "transport.handshake.full"
    };
    ep.telemetry.counter(name).inc();
    ep.telemetry
        .histogram("transport.handshake.wall.ns")
        .record(started.elapsed().as_nanos() as u64);
}

fn send_msg(
    wire: &mut WireEnd,
    transcript: &mut Sha256,
    msg: &HandshakeMessage,
) -> Result<(), TransportError> {
    let bytes = msg.encode();
    transcript.update(&bytes);
    wire.send(&bytes)?;
    Ok(())
}

fn recv_msg(
    wire: &WireEnd,
    transcript: &mut Sha256,
    timeout: Duration,
) -> Result<HandshakeMessage, TransportError> {
    let bytes = wire.recv_timeout(timeout)?;
    let msg = HandshakeMessage::decode(&bytes)?;
    if let HandshakeMessage::Alert { reason } = &msg {
        return Err(TransportError::PeerAlert(reason.clone()));
    }
    transcript.update(&bytes);
    Ok(msg)
}

fn abort(wire: &mut WireEnd, reason: &str) {
    let _ = wire.send(
        &HandshakeMessage::Alert {
            reason: reason.to_owned(),
        }
        .encode(),
    );
}

/// Derives per-direction record keys from master + connection randoms.
fn connection_keys(master: &[u8], c_random: &[u8], s_random: &[u8]) -> (RecordKeys, RecordKeys) {
    let mut seed = Vec::with_capacity(master.len() + c_random.len() + s_random.len());
    seed.extend_from_slice(master);
    seed.extend_from_slice(c_random);
    seed.extend_from_slice(s_random);
    (
        RecordKeys::derive(&seed, "c2s"),
        RecordKeys::derive(&seed, "s2c"),
    )
}

/// Fresh per-connection master for a resumed session. Mixing the new
/// randoms through HKDF means every reconnect gets distinct record keys
/// and nonce bases even though the cached master is reused — record
/// nonces are never repeated across connections.
fn resumed_master(cached_master: &[u8], c_random: &[u8], s_random: &[u8]) -> Vec<u8> {
    let mut salt = Vec::with_capacity(c_random.len() + s_random.len());
    salt.extend_from_slice(c_random);
    salt.extend_from_slice(s_random);
    unicore_crypto::hkdf_extract(&salt, cached_master).to_vec()
}

fn finished_value(master: &[u8], transcript: &Sha256, label: &str) -> Vec<u8> {
    let digest = transcript.clone().finalize();
    let mut data = digest.to_vec();
    data.extend_from_slice(label.as_bytes());
    hmac_sha256(master, &data).to_vec()
}

/// What the server signs to prove key possession and freshness.
fn server_signed_content(c_random: &[u8], s_random: &[u8], dh_public: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(c_random.len() + s_random.len() + dh_public.len());
    v.extend_from_slice(c_random);
    v.extend_from_slice(s_random);
    v.extend_from_slice(dh_public);
    v
}

/// What the client signs: hello-transcript hash, its DH value and its cert.
fn client_signed_content(
    hello_transcript: &Sha256,
    dh_public: &[u8],
    cert: &Certificate,
) -> Vec<u8> {
    let mut v = hello_transcript.clone().finalize().to_vec();
    v.extend_from_slice(dh_public);
    cert.to_der_into(&mut v);
    v
}

/// Validates a resumption offer against the cache + live trust store.
/// `None` means fall back to the full handshake.
fn validate_resumption(
    ep: &Endpoint,
    cache: &SessionCache,
    offered_id: Option<&Vec<u8>>,
    ticket: Option<&ResumptionTicket>,
) -> Option<CachedSession> {
    let ticket = ticket?;
    let id = offered_id?;
    if *id != ticket.session_id {
        ep.telemetry
            .counter("transport.handshake.resume_rejected")
            .inc();
        return None;
    }
    let Some(session) = cache.lookup_id(id) else {
        // Plain cache miss (e.g. evicted): not an abuse signal.
        return None;
    };
    if ticket
        .verify(
            &session.master,
            &session.peer.certificate().fingerprint(),
            ep.now,
            cache.epoch(),
        )
        .is_err()
    {
        ep.telemetry
            .counter("transport.handshake.resume_rejected")
            .inc();
        return None;
    }
    // Live trust check: the cert was valid when cached, but a CRL may have
    // landed, a window closed or an anchor changed since. A revoked cert
    // must not skip the front door. Only the signature is taken as read.
    if ep
        .trust
        .revalidate(&session.peer, ep.now, RequiredUsage::Any)
        .is_err()
    {
        cache.invalidate(&session.session_id);
        ep.telemetry
            .counter("transport.handshake.resume_rejected")
            .inc();
        return None;
    }
    Some(session)
}

/// Runs the client side of the handshake over `wire`.
///
/// `server_name` keys the session cache; pass the gateway's site name.
pub fn client_handshake(
    mut wire: WireEnd,
    ep: &Endpoint,
    server_name: &str,
    cache: &SessionCache,
    rng: &mut CryptoRng,
) -> Result<SecureChannel, TransportError> {
    let started = Instant::now();
    let mut transcript = Sha256::new();
    let c_random = rng.bytes(RANDOM_LEN);

    // Offer resumption only with a ticket that is still inside its
    // window — an expired offer would just burn a round of validation.
    let offered = cache.lookup_peer(server_name).filter(|s| {
        s.ticket
            .as_ref()
            .is_some_and(|t| t.usable_at(ep.now) && t.session_id == s.session_id)
    });
    send_msg(
        &mut wire,
        &mut transcript,
        &HandshakeMessage::ClientHello {
            random: c_random.clone(),
            session_id: offered.as_ref().map(|s| s.session_id.clone()),
            ticket: offered.as_ref().and_then(|s| s.ticket.clone()),
        },
    )?;

    let server_hello = recv_msg(&wire, &mut transcript, ep.timeout)?;
    let HandshakeMessage::ServerHello {
        random: s_random,
        session_id,
        resumed,
        cert_chain,
        dh_public,
        signature,
    } = server_hello
    else {
        abort(&mut wire, "expected ServerHello");
        return Err(TransportError::Protocol("expected ServerHello"));
    };

    if resumed {
        let Some(session) = offered else {
            abort(&mut wire, "unexpected resumption");
            return Err(TransportError::Protocol("server resumed unoffered session"));
        };
        if session.session_id != session_id {
            abort(&mut wire, "session id mismatch");
            return Err(TransportError::Protocol("resumed wrong session"));
        }
        let rmaster = resumed_master(&session.master, &c_random, &s_random);
        let (c2s, s2c) = connection_keys(&rmaster, &c_random, &s_random);
        let mut chan = SecureChannel::new(
            wire,
            c2s,
            s2c,
            session.peer.clone(),
            true,
            session_id.clone(),
            true,
        );
        // Server finishes first in the abbreviated flow.
        let their = chan.recv_handshake(ep.timeout)?;
        let expect = finished_value(&rmaster, &transcript, "server finished");
        if !unicore_crypto::ct_eq(their, &expect) {
            return Err(TransportError::Protocol("bad server Finished"));
        }
        let mine = finished_value(&rmaster, &transcript, "client finished");
        chan.send_handshake(&mine)?;
        // Rotated ticket for the next reconnect.
        let ticket = ResumptionTicket::from_der(chan.recv_handshake(ep.timeout)?)
            .map_err(|_| TransportError::BadMessage("resumption ticket"))?;
        cache.store_validated(
            server_name,
            CachedSession {
                session_id,
                master: session.master,
                peer: session.peer,
                ticket: Some(ticket),
            },
            &ep.trust,
            ep.now,
        );
        record_handshake(ep, true, started, &mut chan);
        return Ok(chan);
    }

    // Full handshake: validate the server's chain, then its signature.
    let server_cert = match ep
        .trust
        .validate(&cert_chain, ep.now, RequiredUsage::ServerAuth)
    {
        Ok(validated) => validated,
        Err(e) => {
            abort(&mut wire, "server certificate rejected");
            return Err(e.into());
        }
    };
    let signed = server_signed_content(&c_random, &s_random, &dh_public);
    if server_cert
        .certificate()
        .tbs
        .public_key
        .verify(&signed, &signature)
        .is_err()
    {
        abort(&mut wire, "server signature invalid");
        return Err(TransportError::Protocol("server signature invalid"));
    }

    // Key agreement + client authentication.
    let hello_transcript = transcript.clone();
    let dh = DhEphemeral::generate(DhGroup::oakley_group2(), rng);
    let dh_c = dh.public.to_bytes_be();
    let shared = dh.agree(&BigUint::from_bytes_be(&dh_public))?;
    let sig_c = ep
        .identity
        .keypair
        .private
        .sign(&client_signed_content(
            &hello_transcript,
            &dh_c,
            &ep.identity.cert,
        ))
        .map_err(TransportError::Crypto)?;
    send_msg(
        &mut wire,
        &mut transcript,
        &HandshakeMessage::ClientAuth {
            cert_chain: ep.chain(),
            dh_public: dh_c,
            signature: sig_c,
        },
    )?;

    let mut salt = c_random.clone();
    salt.extend_from_slice(&s_random);
    let master = unicore_crypto::hkdf_extract(&salt, &shared).to_vec();
    let (c2s, s2c) = connection_keys(&master, &c_random, &s_random);
    let mut chan = SecureChannel::new(
        wire,
        c2s,
        s2c,
        server_cert.clone(),
        false,
        session_id.clone(),
        true,
    );

    // Client finishes first in the full flow.
    let mine = finished_value(&master, &transcript, "client finished");
    chan.send_handshake(&mine)?;
    let their = chan.recv_handshake(ep.timeout)?;
    let expect = finished_value(&master, &transcript, "server finished");
    if !unicore_crypto::ct_eq(their, &expect) {
        return Err(TransportError::Protocol("bad server Finished"));
    }
    let ticket = ResumptionTicket::from_der(chan.recv_handshake(ep.timeout)?)
        .map_err(|_| TransportError::BadMessage("resumption ticket"))?;

    cache.store_validated(
        server_name,
        CachedSession {
            session_id,
            master,
            peer: server_cert,
            ticket: Some(ticket),
        },
        &ep.trust,
        ep.now,
    );
    record_handshake(ep, false, started, &mut chan);
    Ok(chan)
}

/// Runs the server side of the handshake over `wire`.
pub fn server_handshake(
    mut wire: WireEnd,
    ep: &Endpoint,
    cache: &SessionCache,
    rng: &mut CryptoRng,
) -> Result<SecureChannel, TransportError> {
    let started = Instant::now();
    let mut transcript = Sha256::new();
    let hello = recv_msg(&wire, &mut transcript, ep.timeout)?;
    let HandshakeMessage::ClientHello {
        random: c_random,
        session_id: offered,
        ticket,
    } = hello
    else {
        abort(&mut wire, "expected ClientHello");
        return Err(TransportError::Protocol("expected ClientHello"));
    };
    let s_random = rng.bytes(RANDOM_LEN);

    // Abbreviated flow: only for offers whose ticket validates against
    // the cached session *and* whose cert is still trusted right now.
    if let Some(session) = validate_resumption(ep, cache, offered.as_ref(), ticket.as_ref()) {
        send_msg(
            &mut wire,
            &mut transcript,
            &HandshakeMessage::ServerHello {
                random: s_random.clone(),
                session_id: session.session_id.clone(),
                resumed: true,
                cert_chain: vec![],
                dh_public: vec![],
                signature: vec![],
            },
        )?;
        let rmaster = resumed_master(&session.master, &c_random, &s_random);
        let (c2s, s2c) = connection_keys(&rmaster, &c_random, &s_random);
        let mut chan = SecureChannel::new(
            wire,
            c2s,
            s2c,
            session.peer.clone(),
            true,
            session.session_id.clone(),
            false,
        );
        let mine = finished_value(&rmaster, &transcript, "server finished");
        chan.send_handshake(&mine)?;
        let their = chan.recv_handshake(ep.timeout)?;
        let expect = finished_value(&rmaster, &transcript, "client finished");
        if !unicore_crypto::ct_eq(their, &expect) {
            return Err(TransportError::Protocol("bad client Finished"));
        }
        // Rotate the ticket so the next reconnect carries a fresh window.
        let next = ResumptionTicket::mint(
            &session.master,
            &session.session_id,
            &session.peer.certificate().fingerprint(),
            ep.now,
            ep.ticket_ttl,
            cache.epoch(),
        );
        chan.send_handshake(&next.to_der())?;
        record_handshake(ep, true, started, &mut chan);
        return Ok(chan);
    }

    // Full handshake.
    let session_id = rng.bytes(16);
    let dh = DhEphemeral::generate(DhGroup::oakley_group2(), rng);
    let dh_s = dh.public.to_bytes_be();
    let sig_s = ep
        .identity
        .keypair
        .private
        .sign(&server_signed_content(&c_random, &s_random, &dh_s))
        .map_err(TransportError::Crypto)?;
    send_msg(
        &mut wire,
        &mut transcript,
        &HandshakeMessage::ServerHello {
            random: s_random.clone(),
            session_id: session_id.clone(),
            resumed: false,
            cert_chain: ep.chain(),
            dh_public: dh_s,
            signature: sig_s,
        },
    )?;
    let hello_transcript = transcript.clone();

    let auth = recv_msg(&wire, &mut transcript, ep.timeout)?;
    let HandshakeMessage::ClientAuth {
        cert_chain,
        dh_public: dh_c,
        signature: sig_c,
    } = auth
    else {
        abort(&mut wire, "expected ClientAuth");
        return Err(TransportError::Protocol("expected ClientAuth"));
    };

    let client = match ep
        .trust
        .validate(&cert_chain, ep.now, RequiredUsage::ClientAuth)
    {
        Ok(validated) => validated,
        Err(e) => {
            abort(&mut wire, "client certificate rejected");
            return Err(e.into());
        }
    };
    let client_cert = client.certificate();
    if client_cert
        .tbs
        .public_key
        .verify(
            &client_signed_content(&hello_transcript, &dh_c, client_cert),
            &sig_c,
        )
        .is_err()
    {
        abort(&mut wire, "client signature invalid");
        return Err(TransportError::Protocol("client signature invalid"));
    }

    let shared = dh.agree(&BigUint::from_bytes_be(&dh_c))?;
    let mut salt = c_random.clone();
    salt.extend_from_slice(&s_random);
    let master = unicore_crypto::hkdf_extract(&salt, &shared).to_vec();
    let (c2s, s2c) = connection_keys(&master, &c_random, &s_random);
    let mut chan = SecureChannel::new(
        wire,
        c2s,
        s2c,
        client.clone(),
        false,
        session_id.clone(),
        false,
    );

    let their = chan.recv_handshake(ep.timeout)?;
    let expect = finished_value(&master, &transcript, "client finished");
    if !unicore_crypto::ct_eq(their, &expect) {
        return Err(TransportError::Protocol("bad client Finished"));
    }
    let mine = finished_value(&master, &transcript, "server finished");
    chan.send_handshake(&mine)?;

    let next = ResumptionTicket::mint(
        &master,
        &session_id,
        &client_cert.fingerprint(),
        ep.now,
        ep.ticket_ttl,
        cache.epoch(),
    );
    chan.send_handshake(&next.to_der())?;

    // Store-time validation matters: if a CRL landed between the chain
    // check above and here, the session must not become resumable.
    cache.store_validated(
        &client_cert.tbs.subject.to_string(),
        CachedSession {
            session_id,
            master,
            peer: client,
            ticket: None,
        },
        &ep.trust,
        ep.now,
    );
    record_handshake(ep, false, started, &mut chan);
    Ok(chan)
}
