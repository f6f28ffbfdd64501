//! The connection-scale front door: accepts secure connections for a
//! Usite, tracks live sessions, admits or rejects by rate limit, and
//! enforces CRLs *live* — a revocation kills cached sessions and active
//! connections, not just future handshakes.

use crate::ratelimit::{RateLimitConfig, RateLimiter};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use unicore_certs::{CertError, CertificateRevocationList, Identity, TrustStore};
use unicore_crypto::CryptoRng;
use unicore_simnet::WireEnd;
use unicore_telemetry::{Counter, Gauge, Telemetry};
use unicore_transport::{server_handshake, Endpoint, SecureChannel, SessionCache, TransportError};

/// Why the front door turned a connection away.
#[derive(Debug)]
pub enum FrontDoorError {
    /// The handshake itself failed (bad cert, revoked, protocol error).
    Transport(TransportError),
    /// The DN exceeded its connection rate budget.
    RateLimited(String),
}

impl core::fmt::Display for FrontDoorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrontDoorError::Transport(e) => write!(f, "handshake failed: {e}"),
            FrontDoorError::RateLimited(dn) => write!(f, "rate limit exceeded for {dn}"),
        }
    }
}

impl From<TransportError> for FrontDoorError {
    fn from(e: TransportError) -> Self {
        FrontDoorError::Transport(e)
    }
}

/// What a revocation sweep touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RevocationSweep {
    /// Live connections killed.
    pub killed: usize,
    /// Cached (resumable) sessions invalidated.
    pub invalidated: usize,
}

/// An accepted front-door connection: the secure channel plus the kill
/// switch the door flips when the peer's certificate is revoked.
pub struct FrontDoorConn {
    /// The established secure channel.
    pub chan: SecureChannel,
    conn_id: u64,
    dn: String,
    killed: Arc<AtomicBool>,
}

impl FrontDoorConn {
    /// The peer's DN (rendered once at accept time).
    pub fn dn(&self) -> &str {
        &self.dn
    }

    /// The door-local connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Whether this session resumed a cached one.
    pub fn resumed(&self) -> bool {
        self.chan.resumed()
    }

    /// True once the door has revoked this connection. Serving loops
    /// must check this before (and while) processing polls: a revoked
    /// cert loses its in-flight work, not just its next handshake.
    pub fn revoked(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }
}

struct LiveEntry {
    dn: String,
    serial: u64,
    killed: Arc<AtomicBool>,
}

#[derive(Default)]
struct FrontMetrics {
    active: Gauge,
    full: Counter,
    resumed: Counter,
    failed: Counter,
    killed: Counter,
    invalidated: Counter,
    connect_allowed: Counter,
    connect_rejected: Counter,
}

impl FrontMetrics {
    fn new(t: &Telemetry) -> Self {
        FrontMetrics {
            active: t.gauge("gateway.sessions.active"),
            full: t.counter("gateway.sessions.full"),
            resumed: t.counter("gateway.sessions.resumed"),
            failed: t.counter("gateway.sessions.failed"),
            killed: t.counter("gateway.sessions.killed"),
            invalidated: t.counter("gateway.sessions.invalidated"),
            connect_allowed: t.counter("gateway.ratelimit.connect.allowed"),
            connect_rejected: t.counter("gateway.ratelimit.connect.rejected"),
        }
    }
}

/// The front door of one Usite's gateway.
pub struct FrontDoor {
    identity: Arc<Identity>,
    trust: Arc<TrustStore>,
    cache: SessionCache,
    limiter: Option<RateLimiter>,
    ticket_ttl: u64,
    timeout: Duration,
    next_conn: u64,
    live: HashMap<u64, LiveEntry>,
    telemetry: Telemetry,
    metrics: FrontMetrics,
}

impl FrontDoor {
    /// A front door presenting `identity`, trusting `trust`, caching up
    /// to `session_capacity` resumable sessions.
    pub fn new(identity: Identity, trust: Arc<TrustStore>, session_capacity: usize) -> Self {
        FrontDoor {
            identity: Arc::new(identity),
            trust,
            cache: SessionCache::new(session_capacity),
            limiter: None,
            ticket_ttl: unicore_transport::DEFAULT_TICKET_TTL,
            timeout: Duration::from_secs(5),
            next_conn: 0,
            live: HashMap::new(),
            telemetry: Telemetry::disabled(),
            metrics: FrontMetrics::default(),
        }
    }

    /// Publishes `gateway.sessions.*` / `gateway.ratelimit.connect.*`
    /// into `telemetry`'s registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = FrontMetrics::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// Overrides the minted resumption-ticket lifetime.
    pub fn set_ticket_ttl(&mut self, ttl: u64) {
        self.ticket_ttl = ttl;
    }

    /// Installs (or replaces) the connection rate limit.
    pub fn set_rate_limit(&mut self, cfg: RateLimitConfig) {
        self.limiter = Some(RateLimiter::new(cfg));
    }

    /// The resumable-session cache (shared with the handshakes).
    pub fn cache(&self) -> &SessionCache {
        &self.cache
    }

    /// The current trust store (swapped atomically by [`install_crl`]).
    ///
    /// [`install_crl`]: FrontDoor::install_crl
    pub fn trust(&self) -> &Arc<TrustStore> {
        &self.trust
    }

    /// Number of live (accepted, not yet disconnected) connections.
    pub fn active_sessions(&self) -> usize {
        self.live.len()
    }

    fn endpoint(&self, now: u64) -> Endpoint {
        Endpoint {
            identity: self.identity.clone(),
            intermediates: Vec::new(),
            trust: self.trust.clone(),
            now,
            timeout: self.timeout,
            ticket_ttl: self.ticket_ttl,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Accepts one connection: runs the server handshake (full or
    /// ticket-resumed), charges the peer's DN against the rate limit,
    /// and registers the session for live revocation.
    pub fn accept(
        &mut self,
        wire: WireEnd,
        now: u64,
        rng: &mut CryptoRng,
    ) -> Result<FrontDoorConn, FrontDoorError> {
        let ep = self.endpoint(now);
        let mut chan = match server_handshake(wire, &ep, &self.cache, rng) {
            Ok(c) => c,
            Err(e) => {
                self.metrics.failed.inc();
                return Err(e.into());
            }
        };
        let dn = chan.peer().tbs.subject.to_string();
        if let Some(limiter) = &mut self.limiter {
            if !limiter.check(&dn, now) {
                self.metrics.connect_rejected.inc();
                chan.close();
                return Err(FrontDoorError::RateLimited(dn));
            }
            self.metrics.connect_allowed.inc();
        }
        let serial = chan.peer().tbs.serial;
        let killed = Arc::new(AtomicBool::new(false));
        let conn_id = self.next_conn;
        self.next_conn += 1;
        self.live.insert(
            conn_id,
            LiveEntry {
                dn: dn.clone(),
                serial,
                killed: killed.clone(),
            },
        );
        if chan.resumed() {
            self.metrics.resumed.inc();
        } else {
            self.metrics.full.inc();
        }
        self.metrics.active.add(1);
        Ok(FrontDoorConn {
            chan,
            conn_id,
            dn,
            killed,
        })
    }

    /// Deregisters a connection (normal disconnect or after a kill).
    pub fn disconnect(&mut self, conn: FrontDoorConn) {
        if self.live.remove(&conn.conn_id).is_some() {
            self.metrics.active.add(-1);
        }
        let mut chan = conn.chan;
        chan.close();
    }

    /// Installs a CRL and enforces it immediately: the trust store is
    /// swapped (new handshakes see it), every cached session whose cert
    /// is now revoked is invalidated (resumption dies), and every live
    /// connection on a revoked cert has its kill switch flipped
    /// (in-flight polls die at the next serve check).
    pub fn install_crl(
        &mut self,
        crl: CertificateRevocationList,
    ) -> Result<RevocationSweep, CertError> {
        let mut fresh = (*self.trust).clone();
        fresh.install_crl(crl.clone())?;
        self.trust = Arc::new(fresh);

        let invalidated = self
            .cache
            .invalidate_matching(|s| crl.is_revoked(s.peer.certificate().tbs.serial));
        self.metrics.invalidated.add(invalidated as u64);

        let mut killed = 0usize;
        for entry in self.live.values() {
            if crl.is_revoked(entry.serial) && !entry.killed.swap(true, Ordering::SeqCst) {
                killed += 1;
            }
        }
        self.metrics.killed.add(killed as u64);
        Ok(RevocationSweep {
            killed,
            invalidated,
        })
    }

    /// DNs of connections killed by revocation but not yet disconnected
    /// (monitoring hook).
    pub fn killed_dns(&self) -> Vec<String> {
        let mut dns: Vec<String> = self
            .live
            .values()
            .filter(|e| e.killed.load(Ordering::SeqCst))
            .map(|e| e.dn.clone())
            .collect();
        dns.sort();
        dns.dedup();
        dns
    }
}
