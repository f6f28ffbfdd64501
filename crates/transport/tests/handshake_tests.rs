//! End-to-end handshake tests: real crypto over in-process wires.

use std::sync::Arc;
use std::time::Duration;
use unicore_certs::{
    CertificateAuthority, DistinguishedName, Identity, KeyUsage, RequiredUsage, TrustStore,
    Validity,
};
use unicore_crypto::CryptoRng;
use unicore_simnet::{wire_pair, WireFaultPlan};
use unicore_transport::{
    client_handshake, server_handshake, Endpoint, SessionCache, TransportError,
};

struct World {
    ca: CertificateAuthority,
    trust: Arc<TrustStore>,
    rng: CryptoRng,
}

fn dn(cn: &str) -> DistinguishedName {
    DistinguishedName::new("DE", "FZJ", "ZAM", cn)
}

fn world(seed: u64) -> World {
    let mut rng = CryptoRng::from_u64(seed);
    let ca = CertificateAuthority::new_root(
        dn("UNICORE CA"),
        Validity::starting_at(0, 100_000),
        512,
        &mut rng,
    );
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone()).unwrap();
    World {
        ca,
        trust: Arc::new(trust),
        rng,
    }
}

fn identity(w: &mut World, cn: &str, usage: KeyUsage) -> Identity {
    w.ca.issue_identity(dn(cn), usage, Validity::starting_at(0, 10_000), &mut w.rng)
        .unwrap()
}

fn endpoints(w: &mut World) -> (Endpoint, Endpoint) {
    let user = identity(w, "alice", KeyUsage::user());
    let server = identity(w, "fzj-gateway", KeyUsage::server());
    (
        Endpoint::new(user, w.trust.clone(), 100),
        Endpoint::new(server, w.trust.clone(), 100),
    )
}

/// Runs both sides of a handshake on two threads.
fn run_handshake(
    client_ep: &Endpoint,
    server_ep: &Endpoint,
    client_cache: &SessionCache,
    server_cache: &SessionCache,
    seed: u64,
) -> (
    Result<unicore_transport::SecureChannel, TransportError>,
    Result<unicore_transport::SecureChannel, TransportError>,
) {
    let (cw, sw) = wire_pair();
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(seed).fork("server");
            server_handshake(sw, server_ep, server_cache, &mut rng)
        });
        let mut rng = CryptoRng::from_u64(seed).fork("client");
        let client = client_handshake(cw, client_ep, "FZJ", client_cache, &mut rng);
        (client, server.join().unwrap())
    })
}

#[test]
fn full_handshake_and_data_exchange() {
    let mut w = world(1);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 1);
    let mut client = client.unwrap();
    let mut server = server.unwrap();

    assert!(!client.resumed());
    assert!(!server.resumed());
    // Mutual authentication: each side sees the other's DN.
    assert_eq!(client.peer().tbs.subject.common_name, "fzj-gateway");
    assert_eq!(server.peer().tbs.subject.common_name, "alice");

    // Bidirectional data.
    client.send(b"consign AJO").unwrap();
    assert_eq!(server.recv(Duration::from_secs(1)).unwrap(), b"consign AJO");
    server.send(b"outcome").unwrap();
    assert_eq!(client.recv(Duration::from_secs(1)).unwrap(), b"outcome");
}

#[test]
fn session_resumption_skips_certificates() {
    let mut w = world(2);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 10);
    c1.unwrap();
    s1.unwrap();
    assert_eq!(cc.len(), 1);

    let (c2, s2) = run_handshake(&cep, &sep, &cc, &sc, 11);
    let mut c2 = c2.unwrap();
    let mut s2 = s2.unwrap();
    assert!(c2.resumed());
    assert!(s2.resumed());
    // The resumed channel still authenticates and still carries data.
    assert_eq!(c2.peer().tbs.subject.common_name, "fzj-gateway");
    c2.send(b"again").unwrap();
    assert_eq!(s2.recv(Duration::from_secs(1)).unwrap(), b"again");
}

#[test]
fn untrusted_client_rejected() {
    let mut w = world(3);
    let (_, sep) = endpoints(&mut w);
    // Client from a rogue CA the server does not trust.
    let mut rogue_rng = CryptoRng::from_u64(999);
    let mut rogue = CertificateAuthority::new_root(
        dn("Rogue CA"),
        Validity::starting_at(0, 100_000),
        512,
        &mut rogue_rng,
    );
    let mallory = rogue
        .issue_identity(
            dn("mallory"),
            KeyUsage::user(),
            Validity::starting_at(0, 1_000),
            &mut rogue_rng,
        )
        .unwrap();
    let mut rogue_trust = TrustStore::new();
    rogue_trust.add_anchor(w.ca.certificate().clone()).unwrap();
    let cep = Endpoint::new(mallory, Arc::new(rogue_trust), 100);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 12);
    assert!(matches!(server, Err(TransportError::Cert(_))));
    // The client has already switched to record protection when the alert
    // arrives, so it surfaces either as a peer alert or a record error.
    assert!(client.is_err());
}

#[test]
fn untrusted_server_rejected_by_client() {
    let mut w = world(4);
    let (cep, _) = endpoints(&mut w);
    let mut rogue_rng = CryptoRng::from_u64(998);
    let mut rogue = CertificateAuthority::new_root(
        dn("Rogue CA"),
        Validity::starting_at(0, 100_000),
        512,
        &mut rogue_rng,
    );
    let fake_server = rogue
        .issue_identity(
            dn("fake-gw"),
            KeyUsage::server(),
            Validity::starting_at(0, 1_000),
            &mut rogue_rng,
        )
        .unwrap();
    let mut rogue_trust = TrustStore::new();
    rogue_trust.add_anchor(rogue.certificate().clone()).unwrap();
    let sep = Endpoint::new(fake_server, Arc::new(rogue_trust), 100);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 13);
    assert!(matches!(client, Err(TransportError::Cert(_))));
    // Server sees an alert (or a dead wire, depending on timing).
    assert!(server.is_err());
}

#[test]
fn expired_certificate_rejected() {
    let mut w = world(5);
    let user = identity(&mut w, "alice", KeyUsage::user());
    let server = identity(&mut w, "gw", KeyUsage::server());
    // Evaluate far after expiry.
    let cep = Endpoint::new(user, w.trust.clone(), 50_000);
    let sep = Endpoint::new(server, w.trust.clone(), 50_000);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, _server) = run_handshake(&cep, &sep, &cc, &sc, 14);
    assert!(client.is_err());
}

#[test]
fn wrong_usage_certificate_rejected() {
    let mut w = world(6);
    // "Server" presenting a user (client-auth-only) certificate.
    let not_server = identity(&mut w, "imposter", KeyUsage::user());
    let user = identity(&mut w, "alice", KeyUsage::user());
    let cep = Endpoint::new(user, w.trust.clone(), 100);
    let sep = Endpoint::new(not_server, w.trust.clone(), 100);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, _server) = run_handshake(&cep, &sep, &cc, &sc, 15);
    assert!(matches!(client, Err(TransportError::Cert(_))));
}

#[test]
fn revoked_client_rejected() {
    let mut w = world(7);
    let user = identity(&mut w, "alice", KeyUsage::user());
    let server = identity(&mut w, "gw", KeyUsage::server());
    let serial = user.cert.tbs.serial;
    w.ca.revoke(serial);
    let crl = w.ca.publish_crl(60);
    // Server-side trust store learns the CRL.
    let mut server_trust = TrustStore::new();
    server_trust.add_anchor(w.ca.certificate().clone()).unwrap();
    server_trust.install_crl(crl).unwrap();
    let cep = Endpoint::new(user, w.trust.clone(), 100);
    let sep = Endpoint::new(server, Arc::new(server_trust), 100);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 16);
    assert!(matches!(server, Err(TransportError::Cert(_))));
    assert!(client.is_err());
}

#[test]
fn corrupted_record_detected() {
    let mut w = world(8);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 17);
    let mut client = client.unwrap();
    let mut server = server.unwrap();
    // Corrupt the next message the client sends.
    let next = client.wire_mut().sent_count() + 1;
    client.wire_mut().set_faults(WireFaultPlan {
        corrupt_seq: vec![next],
        ..Default::default()
    });
    client.send(b"secret job").unwrap();
    assert!(matches!(
        server.recv(Duration::from_secs(1)),
        Err(TransportError::RecordMac) | Err(TransportError::Protocol(_))
    ));
}

#[test]
fn close_is_signalled() {
    let mut w = world(9);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 18);
    let mut client = client.unwrap();
    let mut server = server.unwrap();
    client.close();
    assert!(client.is_closed());
    assert!(matches!(
        server.recv(Duration::from_secs(1)),
        Err(TransportError::PeerAlert(_))
    ));
    assert!(client.send(b"x").is_err());
}

#[test]
fn large_payload_through_channel() {
    let mut w = world(10);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 19);
    let mut client = client.unwrap();
    let mut server = server.unwrap();
    let blob: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
    client.send(&blob).unwrap();
    assert_eq!(server.recv(Duration::from_secs(5)).unwrap(), blob);
}

#[test]
fn handshake_timeout_on_silent_peer() {
    let mut w = world(11);
    let (cep, _) = endpoints(&mut w);
    let mut cep = cep;
    cep.timeout = Duration::from_millis(50);
    let (cw, _sw_keepalive) = wire_pair();
    let cc = SessionCache::new(8);
    let mut rng = CryptoRng::from_u64(20);
    // The server never answers: we expect a timeout error.
    let res = client_handshake(cw, &cep, "FZJ", &cc, &mut rng);
    assert!(matches!(
        res,
        Err(TransportError::Net(unicore_simnet::NetError::Timeout))
    ));
}

#[test]
fn unknown_session_offer_falls_back_to_full_handshake() {
    // The client offers a session id the server has never seen (e.g. the
    // server restarted and lost its cache): the handshake must fall back
    // to the full flow transparently.
    let mut w = world(12);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    // Prime only the CLIENT cache with a fabricated session for "FZJ",
    // complete with a ticket that looks fine from the client's side.
    let fake_master = vec![7u8; 32];
    let ticket = unicore_transport::ResumptionTicket::mint(
        &fake_master,
        &[0xde, 0xad],
        &cep.identity.cert.fingerprint(),
        100,
        1_000,
        0,
    );
    cc.store(
        "FZJ",
        unicore_transport::CachedSession {
            session_id: vec![0xde, 0xad],
            master: fake_master,
            peer: w
                .trust
                .validate(
                    std::slice::from_ref(&sep.identity.cert),
                    100,
                    RequiredUsage::ServerAuth,
                )
                .unwrap(),
            ticket: Some(ticket),
        },
    );
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 30);
    let mut client = client.unwrap();
    let mut server = server.unwrap();
    assert!(!client.resumed(), "must have fallen back to full handshake");
    assert!(!server.resumed());
    client.send(b"works anyway").unwrap();
    assert_eq!(
        server.recv(Duration::from_secs(1)).unwrap(),
        b"works anyway"
    );
    // The stale session has been replaced by the fresh one.
    assert_eq!(
        cc.lookup_peer("FZJ").unwrap().session_id,
        client.session_id()
    );
}

#[test]
fn tampered_ticket_falls_back_to_full_handshake() {
    let mut w = world(13);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 40);
    c1.unwrap();
    s1.unwrap();

    // Corrupt the client's stored ticket binder: the server must reject
    // the offer and run the full flow — no panic, no failure.
    let mut session = cc.lookup_peer("FZJ").unwrap();
    let mut ticket = session.ticket.take().unwrap();
    ticket.binder[0] ^= 0xff;
    session.ticket = Some(ticket);
    cc.store("FZJ", session);

    let (c2, s2) = run_handshake(&cep, &sep, &cc, &sc, 41);
    let c2 = c2.unwrap();
    let s2 = s2.unwrap();
    assert!(!c2.resumed(), "tampered ticket must not resume");
    assert!(!s2.resumed());
}

#[test]
fn expired_ticket_falls_back_to_full_handshake() {
    let mut w = world(14);
    let (mut cep, mut sep) = endpoints(&mut w);
    sep.ticket_ttl = 50;
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 42);
    c1.unwrap();
    s1.unwrap();

    // Just inside the window: resumes.
    cep.now = 149;
    sep.now = 149;
    let (c2, s2) = run_handshake(&cep, &sep, &cc, &sc, 43);
    assert!(c2.unwrap().resumed());
    assert!(s2.unwrap().resumed());

    // Exactly at expiry (issued_at 149 + ttl 50 = 199): full handshake.
    cep.now = 199;
    sep.now = 199;
    let (c3, s3) = run_handshake(&cep, &sep, &cc, &sc, 44);
    assert!(!c3.unwrap().resumed());
    assert!(!s3.unwrap().resumed());
}

#[test]
fn epoch_bump_invalidates_outstanding_tickets() {
    let mut w = world(15);
    let (cep, sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 45);
    c1.unwrap();
    s1.unwrap();

    sc.bump_epoch();
    let (c2, s2) = run_handshake(&cep, &sep, &cc, &sc, 46);
    assert!(!c2.unwrap().resumed(), "stale-epoch ticket must not resume");
    assert!(!s2.unwrap().resumed());

    // The fresh full handshake minted a current-epoch ticket: resumable.
    let (c3, s3) = run_handshake(&cep, &sep, &cc, &sc, 47);
    assert!(c3.unwrap().resumed());
    assert!(s3.unwrap().resumed());
}

#[test]
fn store_rejects_certificate_already_on_crl() {
    // Regression: a session whose cert is already revoked must not enter
    // the cache through the validated store path.
    let mut w = world(16);
    let user = identity(&mut w, "alice", KeyUsage::user());
    let user_cert = user.cert.clone();
    w.ca.revoke(user_cert.tbs.serial);
    let crl = w.ca.publish_crl(60);
    let mut trust = TrustStore::new();
    trust.add_anchor(w.ca.certificate().clone()).unwrap();
    trust.install_crl(crl).unwrap();

    let sc = SessionCache::new(8);
    let stored = sc.store_validated(
        "alice",
        unicore_transport::CachedSession {
            session_id: vec![1, 2, 3],
            master: vec![9u8; 32],
            // Authenticated by a store the CRL has not reached.
            peer: w
                .trust
                .validate(&[user_cert], 100, RequiredUsage::ClientAuth)
                .unwrap(),
            ticket: None,
        },
        &trust,
        100,
    );
    assert!(!stored, "revoked cert must be refused at store time");
    assert!(sc.is_empty());
}

#[test]
fn revocation_kills_resumption_of_cached_session() {
    let mut w = world(17);
    let (cep, mut sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 48);
    c1.unwrap();
    s1.unwrap();
    assert_eq!(sc.len(), 1);

    // The client's cert lands on a CRL after the session was cached.
    let revoked_serial = cep.identity.cert.tbs.serial;
    w.ca.revoke(revoked_serial);
    let crl = w.ca.publish_crl(110);
    let mut trust = TrustStore::new();
    trust.add_anchor(w.ca.certificate().clone()).unwrap();
    trust.install_crl(crl).unwrap();
    sep.trust = Arc::new(trust);
    sep.now = 120;

    // The resumption offer must be refused by the live CRL check, and the
    // full-handshake fallback then rejects the revoked chain outright.
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 49);
    assert!(matches!(server, Err(TransportError::Cert(_))));
    assert!(client.is_err());
    // The poisoned session is gone from the server cache.
    assert!(sc.is_empty());
}

#[test]
fn certificate_expired_since_caching_does_not_resume() {
    // The session cache holds the peer certificate as validated; what
    // that spares a reconnect is the signature check, not the calendar.
    let mut w = world(18);
    let user =
        w.ca.issue_identity(
            dn("alice"),
            KeyUsage::user(),
            Validity::starting_at(0, 500),
            &mut w.rng,
        )
        .unwrap();
    let server = identity(&mut w, "fzj-gateway", KeyUsage::server());
    let mut cep = Endpoint::new(user, w.trust.clone(), 100);
    let mut sep = Endpoint::new(server, w.trust.clone(), 100);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 50);
    c1.unwrap();
    s1.unwrap();

    // Still inside the certificate's window and the ticket's: resumes.
    cep.now = 500;
    sep.now = 500;
    let (c2, s2) = run_handshake(&cep, &sep, &cc, &sc, 51);
    assert!(c2.unwrap().resumed());
    assert!(s2.unwrap().resumed());
    assert_eq!(sc.len(), 1);

    // One second past it, with the rotated ticket good for another hour:
    // the offer is refused, the fallback rejects the expired chain, and
    // the session is gone.
    cep.now = 501;
    sep.now = 501;
    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 52);
    assert!(matches!(server, Err(TransportError::Cert(_))));
    assert!(client.is_err());
    assert!(sc.is_empty());
}

#[test]
fn anchor_replaced_by_another_key_under_the_same_name_does_not_resume() {
    let mut w = world(19);
    let (cep, mut sep) = endpoints(&mut w);
    let cc = SessionCache::new(8);
    let sc = SessionCache::new(8);
    let (c1, s1) = run_handshake(&cep, &sep, &cc, &sc, 53);
    let session_id = c1.unwrap().session_id().to_vec();
    s1.unwrap();
    let cached = sc.lookup_id(&session_id).unwrap();

    // The site replaces its CA: same distinguished name, new key. The
    // cached certificate's signature was verified under the old one.
    let replacement = CertificateAuthority::new_root(
        dn("UNICORE CA"),
        Validity::starting_at(0, 100_000),
        512,
        &mut CryptoRng::from_u64(1900),
    );
    assert_ne!(
        replacement.certificate().tbs.public_key,
        w.ca.certificate().tbs.public_key
    );
    let mut trust = TrustStore::new();
    trust.add_anchor(replacement.certificate().clone()).unwrap();
    let trust = Arc::new(trust);
    sep.trust = trust.clone();

    let (client, server) = run_handshake(&cep, &sep, &cc, &sc, 54);
    assert!(matches!(server, Err(TransportError::Cert(_))));
    assert!(client.is_err());
    assert!(sc.is_empty(), "the session must be dropped");
    // Nor does it get back in, by the store path or past a sweep.
    assert!(!sc.store_validated("alice", cached.clone(), &trust, 100));
    assert!(sc.is_empty());
    sc.store("alice", cached);
    assert_eq!(sc.retain_valid(&trust, 100), 1);
    assert!(sc.is_empty());
}
