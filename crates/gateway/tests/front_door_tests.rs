//! Front-door integration: handshakes, resumption, rate limiting, live
//! revocation, and multiplexed poll frames over one sealed connection.

use std::sync::Arc;
use std::time::Duration;
use unicore_certs::{
    CertificateAuthority, DistinguishedName, Identity, KeyUsage, TrustStore, Validity,
};
use unicore_crypto::CryptoRng;
use unicore_gateway::{
    decode_frames, encode_frames, FrontDoor, FrontDoorConn, FrontDoorError, Gateway, MuxFrame,
    RateLimitConfig, UserEntry, Uudb,
};
use unicore_simnet::wire_pair;
use unicore_telemetry::Telemetry;
use unicore_transport::{client_handshake, SecureChannel, SessionCache};

fn dn(cn: &str) -> DistinguishedName {
    DistinguishedName::new("DE", "FZJ", "ZAM", cn)
}

struct World {
    ca: CertificateAuthority,
    trust: Arc<TrustStore>,
    rng: CryptoRng,
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
    w.ca.issue_identity(dn(cn), usage, Validity::starting_at(0, 50_000), &mut w.rng)
        .unwrap()
}

/// Connects `user` through `door`, driving both sides on two threads.
fn connect(
    door: &mut FrontDoor,
    user: &Arc<Identity>,
    trust: &Arc<TrustStore>,
    cache: &SessionCache,
    now: u64,
    seed: u64,
) -> (
    Result<SecureChannel, unicore_transport::TransportError>,
    Result<FrontDoorConn, FrontDoorError>,
) {
    let (cw, sw) = wire_pair();
    let cep = unicore_transport::Endpoint {
        identity: user.clone(),
        intermediates: Vec::new(),
        trust: trust.clone(),
        now,
        timeout: Duration::from_secs(5),
        ticket_ttl: unicore_transport::DEFAULT_TICKET_TTL,
        telemetry: Telemetry::disabled(),
    };
    std::thread::scope(|s| {
        let server = s.spawn(|| {
            let mut rng = CryptoRng::from_u64(seed).fork("server");
            door.accept(sw, now, &mut rng)
        });
        let mut rng = CryptoRng::from_u64(seed).fork("client");
        let client = client_handshake(cw, &cep, "FZJ", cache, &mut rng);
        (client, server.join().unwrap())
    })
}

#[test]
fn accept_resume_and_telemetry() {
    let mut w = world(1);
    let user = Arc::new(identity(&mut w, "alice", KeyUsage::user()));
    let gw_id = identity(&mut w, "fzj-gw", KeyUsage::server());
    let mut door = FrontDoor::new(gw_id, w.trust.clone(), 64);
    let telemetry = Telemetry::collecting(0);
    door.set_telemetry(telemetry.clone());
    let cc = SessionCache::new(8);

    let (c1, s1) = connect(&mut door, &user, &w.trust.clone(), &cc, 100, 11);
    let conn1 = s1.unwrap();
    c1.unwrap();
    assert!(!conn1.resumed());
    assert_eq!(door.active_sessions(), 1);
    door.disconnect(conn1);
    assert_eq!(door.active_sessions(), 0);

    let (c2, s2) = connect(&mut door, &user, &w.trust.clone(), &cc, 101, 12);
    let conn2 = s2.unwrap();
    assert!(c2.unwrap().resumed());
    assert!(conn2.resumed());
    // A resumed connection still names its user: the DN the door reports
    // maps to a login through the UUDB exactly as after a full handshake.
    let alice = user.cert.tbs.subject.to_string();
    assert_eq!(conn2.dn(), alice);
    let mut uudb = Uudb::new();
    uudb.add(alice.as_str(), UserEntry::new("alice", "users"));
    let mut gateway = Gateway::new("FZJ", uudb);
    assert!(gateway
        .authorize_dn(conn2.dn(), "T3E", Some("users"), 101)
        .is_accepted());
    door.disconnect(conn2);

    let snap = telemetry.metrics_snapshot();
    assert_eq!(snap.counter("gateway.sessions.full"), 1);
    assert_eq!(snap.counter("gateway.sessions.resumed"), 1);
    assert_eq!(snap.gauge("gateway.sessions.active"), 0);
}

#[test]
fn connection_rate_limit_turns_away_storms() {
    let mut w = world(2);
    let user = Arc::new(identity(&mut w, "alice", KeyUsage::user()));
    let gw_id = identity(&mut w, "fzj-gw", KeyUsage::server());
    let mut door = FrontDoor::new(gw_id, w.trust.clone(), 64);
    let telemetry = Telemetry::collecting(0);
    door.set_telemetry(telemetry.clone());
    door.set_rate_limit(RateLimitConfig::new(1, 2));
    let cc = SessionCache::new(8);
    let trust = w.trust.clone();

    let mut accepted = 0;
    let mut limited = 0;
    for i in 0..5 {
        let (_c, s) = connect(&mut door, &user, &trust, &cc, 200, 20 + i);
        match s {
            Ok(conn) => {
                accepted += 1;
                door.disconnect(conn);
            }
            Err(FrontDoorError::RateLimited(who)) => {
                limited += 1;
                assert!(who.contains("alice"));
            }
            Err(e) => panic!("unexpected: {e:?}"),
        }
    }
    assert_eq!(accepted, 2, "burst budget");
    assert_eq!(limited, 3);
    let snap = telemetry.metrics_snapshot();
    assert_eq!(snap.counter("gateway.ratelimit.connect.rejected"), 3);

    // A second later one token refills: the storm subsides.
    let (_c, s) = connect(&mut door, &user, &trust, &cc, 201, 30);
    let conn = s.unwrap();
    door.disconnect(conn);
}

#[test]
fn revocation_kills_cache_and_live_connection() {
    let mut w = world(3);
    let alice = Arc::new(identity(&mut w, "alice", KeyUsage::user()));
    let bob = Arc::new(identity(&mut w, "bob", KeyUsage::user()));
    let gw_id = identity(&mut w, "fzj-gw", KeyUsage::server());
    let mut door = FrontDoor::new(gw_id, w.trust.clone(), 64);
    let alice_cache = SessionCache::new(8);
    let bob_cache = SessionCache::new(8);
    let trust = w.trust.clone();

    let (ca1, sa1) = connect(&mut door, &alice, &trust, &alice_cache, 300, 40);
    let alice_conn = sa1.unwrap();
    ca1.unwrap();
    let (cb1, sb1) = connect(&mut door, &bob, &trust, &bob_cache, 300, 41);
    let bob_conn = sb1.unwrap();
    cb1.unwrap();
    assert_eq!(door.cache().len(), 2);

    // Revoke alice mid-session.
    w.ca.revoke(alice.cert.tbs.serial);
    let crl = w.ca.publish_crl(301);
    let sweep = door.install_crl(crl).unwrap();
    assert_eq!(sweep.killed, 1, "alice's live connection killed");
    assert_eq!(sweep.invalidated, 1, "alice's cached session dropped");
    assert!(alice_conn.revoked());
    assert!(!bob_conn.revoked());
    assert_eq!(door.killed_dns(), vec![alice.cert.tbs.subject.to_string()]);

    // Alice cannot resume (her entry is gone) nor full-handshake (CRL).
    let (ca2, sa2) = connect(&mut door, &alice, &trust, &alice_cache, 302, 42);
    assert!(sa2.is_err());
    assert!(ca2.is_err());

    // Bob still resumes fine.
    let (cb2, sb2) = connect(&mut door, &bob, &trust, &bob_cache, 302, 43);
    let bob2 = sb2.unwrap();
    assert!(cb2.unwrap().resumed());

    door.disconnect(alice_conn);
    door.disconnect(bob_conn);
    door.disconnect(bob2);
}

#[test]
fn multiplexed_polls_over_one_sealed_connection() {
    let mut w = world(4);
    let user = Arc::new(identity(&mut w, "alice", KeyUsage::user()));
    let gw_id = identity(&mut w, "fzj-gw", KeyUsage::server());
    let mut door = FrontDoor::new(gw_id, w.trust.clone(), 64);
    let cc = SessionCache::new(8);
    let (c, s) = connect(&mut door, &user, &w.trust.clone(), &cc, 400, 50);
    let mut client = c.unwrap();
    let mut conn = s.unwrap();

    // Client: one poll sweep of 10 logical channels in one record.
    let sweep: Vec<MuxFrame> = (0..10u64)
        .map(|flow| MuxFrame::new(flow, format!("poll job {flow}").into_bytes()))
        .collect();
    let wire_frames = encode_frames(&sweep);
    let refs: Vec<&[u8]> = wire_frames.iter().map(|f| f.as_slice()).collect();
    client.send_frames(&refs).unwrap();

    // Server: unpack, answer each flow in place, send one batch back.
    let raw = conn.chan.recv_frames(Duration::from_secs(1)).unwrap();
    let polls = decode_frames(&raw).unwrap();
    assert_eq!(polls.len(), 10);
    let replies: Vec<MuxFrame> = polls
        .iter()
        .map(|p| {
            assert!(!conn.revoked(), "in-flight polls check the kill switch");
            let mut body = b"status:".to_vec();
            body.extend_from_slice(&p.payload);
            MuxFrame::new(p.flow, body)
        })
        .collect();
    let reply_frames = encode_frames(&replies);
    let refs: Vec<&[u8]> = reply_frames.iter().map(|f| f.as_slice()).collect();
    conn.chan.send_frames(&refs).unwrap();

    // Client fans responses back out by flow id.
    let raw = client.recv_frames(Duration::from_secs(1)).unwrap();
    let answers = decode_frames(&raw).unwrap();
    assert_eq!(answers.len(), 10);
    for a in &answers {
        assert_eq!(
            a.payload,
            format!("status:poll job {}", a.flow).into_bytes()
        );
    }
    door.disconnect(conn);
}
