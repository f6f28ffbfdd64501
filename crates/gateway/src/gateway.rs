//! The gateway (Java security servlet) proper: certificate-based
//! authentication, DN → login mapping, optional site-specific checks, and
//! an audit trail.

use crate::ratelimit::{RateLimitConfig, RateLimiter};
use crate::uudb::{MappedUser, MappingError, Uudb};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use unicore_certs::Certificate;
use unicore_telemetry::{Counter, Telemetry};

/// Outcome of an authentication + mapping attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthDecision {
    /// Accepted: the user is mapped. The mapping memo and every request
    /// it accepted share the one `MappedUser`, until the UUDB changes.
    Accepted(Arc<MappedUser>),
    /// Refused with a reason.
    Refused(String),
}

impl AuthDecision {
    /// True when accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, AuthDecision::Accepted(_))
    }
}

/// Text the gateway writes into many audit records: the memo of a
/// mapping holds the DN, the Vsite and the audit detail once, and every
/// request it accepts shares them. It reads as a `str` (through `Deref`,
/// and `Display` / `Debug` print the text), and compares equal to a `str`
/// or a `String` with the same text, from either side.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SharedStr(Arc<str>);

impl Deref for SharedStr {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for SharedStr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for SharedStr {
    fn from(text: &str) -> Self {
        SharedStr(Arc::from(text))
    }
}

impl From<String> for SharedStr {
    fn from(text: String) -> Self {
        SharedStr(Arc::from(text))
    }
}

impl fmt::Display for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl fmt::Debug for SharedStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

/// `SharedStr == T` and `T == SharedStr` for each text type `T`.
macro_rules! eq_text {
    ($($text:ty),*) => {$(
        impl PartialEq<$text> for SharedStr {
            fn eq(&self, other: &$text) -> bool {
                *self.0 == **other
            }
        }

        impl PartialEq<SharedStr> for $text {
            fn eq(&self, other: &SharedStr) -> bool {
                **self == *other.0
            }
        }
    )*};
}

eq_text!(&str, String);

impl PartialEq<str> for SharedStr {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<SharedStr> for str {
    fn eq(&self, other: &SharedStr) -> bool {
        *self == *other.0
    }
}

/// One audit line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// Simulation time of the decision (seconds).
    pub at: u64,
    /// The presented DN.
    pub dn: SharedStr,
    /// The target Vsite.
    pub vsite: SharedStr,
    /// What was decided.
    pub accepted: bool,
    /// Detail (mapped login or refusal reason).
    pub detail: SharedStr,
}

/// Site-specific additional authentication ("for sites that require the
/// use of smart cards or run DCE it also offers an interface for
/// additional site specific authentication", §4.2).
pub type SiteAuthHook =
    Box<dyn Fn(&Certificate, Option<&[u8]>) -> Result<(), String> + Send + Sync>;

/// Default bound of the audit ring buffer.
pub(crate) const DEFAULT_AUDIT_CAPACITY: usize = 10_000;

/// One memoized successful mapping. Valid only while its epoch matches
/// the gateway's current UUDB epoch.
struct CachedMapping {
    epoch: u64,
    vsite: SharedStr,
    account_group: Option<String>,
    mapped: Arc<MappedUser>,
    /// Pre-rendered audit detail (`mapped to <login>`), so the hot path
    /// shares it instead of formatting.
    detail: SharedStr,
}

/// Authentication counters, fetched once from the telemetry registry.
#[derive(Default)]
struct GatewayMetrics {
    accepted: Counter,
    refused: Counter,
    audit_dropped: Counter,
    ratelimit_allowed: Counter,
    ratelimit_rejected: Counter,
    revoked_rejected: Counter,
}

impl GatewayMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        GatewayMetrics {
            accepted: telemetry.counter("gateway.authn.accepted"),
            refused: telemetry.counter("gateway.authn.refused"),
            audit_dropped: telemetry.counter("gateway.audit.dropped"),
            ratelimit_allowed: telemetry.counter("gateway.ratelimit.allowed"),
            ratelimit_rejected: telemetry.counter("gateway.ratelimit.rejected"),
            revoked_rejected: telemetry.counter("gateway.sessions.revoked_rejects"),
        }
    }
}

/// The gateway of one Usite.
///
/// Transport-level certificate *validation* happens in
/// `unicore-transport`; the gateway receives the already-validated peer
/// certificate and performs the UNICORE-level steps: usage check, optional
/// site-specific authentication, and the UUDB mapping.
pub struct Gateway {
    usite: String,
    uudb: Uudb,
    site_hook: Option<SiteAuthHook>,
    /// Bounded ring: the newest `audit_capacity` decisions. Overflow is
    /// counted in `gateway.audit.dropped` rather than growing forever.
    audit: VecDeque<AuditRecord>,
    audit_capacity: usize,
    /// Lifetime count of audit records evicted from the ring. Kept as a
    /// plain field (not only the telemetry counter) so the loss is
    /// reportable even on sites that never enabled telemetry, and
    /// survives a late `set_telemetry` swapping the counter cell.
    audit_dropped_total: u64,
    metrics: GatewayMetrics,
    /// DN → memoized mappings, consulted before walking the UUDB. An
    /// entry is live only while its epoch equals `map_epoch`;
    /// [`Gateway::uudb_mut`] bumps the epoch, invalidating the whole
    /// memo in O(1) without tracking individual edits. The key is the DN
    /// every accepted audit record of that DN shares.
    map_cache: HashMap<SharedStr, Vec<CachedMapping>>,
    map_epoch: u64,
    /// Per-DN request rate limiter; `None` means unlimited (the default,
    /// so existing deployments are unaffected until opted in).
    limiter: Option<RateLimiter>,
    /// DNs refused outright: the request-level mirror of a CRL, kept by
    /// DN because gateway admission happens after the transport already
    /// authenticated the certificate.
    revoked_dns: HashSet<String>,
}

impl Gateway {
    /// A gateway for `usite` with its user database.
    pub fn new(usite: impl Into<String>, uudb: Uudb) -> Self {
        Gateway {
            usite: usite.into(),
            uudb,
            site_hook: None,
            audit: VecDeque::new(),
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
            audit_dropped_total: 0,
            metrics: GatewayMetrics::default(),
            map_cache: HashMap::new(),
            map_epoch: 0,
            limiter: None,
            revoked_dns: HashSet::new(),
        }
    }

    /// Publishes this gateway's counters into `telemetry`'s registry
    /// (`gateway.authn.accepted`, `gateway.authn.refused`,
    /// `gateway.audit.dropped`).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = GatewayMetrics::new(telemetry);
    }

    /// Resizes the audit ring (minimum 1). Shrinking drops the oldest
    /// records, counting them as dropped.
    pub fn set_audit_capacity(&mut self, capacity: usize) {
        self.audit_capacity = capacity.max(1);
        while self.audit.len() > self.audit_capacity {
            self.audit.pop_front();
            self.audit_dropped_total += 1;
            self.metrics.audit_dropped.inc();
        }
    }

    /// Lifetime count of audit records lost to ring overflow — the
    /// operator's data-loss signal in the `Monitor` report.
    pub fn audit_dropped(&self) -> u64 {
        self.audit_dropped_total
    }

    fn push_audit(&mut self, record: AuditRecord) {
        if self.audit.len() >= self.audit_capacity {
            self.audit.pop_front();
            self.audit_dropped_total += 1;
            self.metrics.audit_dropped.inc();
        }
        self.audit.push_back(record);
    }

    /// The Usite this gateway fronts.
    pub fn usite(&self) -> &str {
        &self.usite
    }

    /// Installs the site-specific authentication hook.
    pub fn set_site_hook(&mut self, hook: SiteAuthHook) {
        self.site_hook = Some(hook);
    }

    /// Mutable access to the UUDB (site administration).
    ///
    /// Any mutable access may change mappings, so this advances the
    /// mapping-cache epoch: every memoized mapping becomes stale at once
    /// and the next request per (DN, Vsite, group) re-walks the UUDB.
    pub fn uudb_mut(&mut self) -> &mut Uudb {
        self.map_epoch += 1;
        &mut self.uudb
    }

    /// Read access to the UUDB.
    pub fn uudb(&self) -> &Uudb {
        &self.uudb
    }

    /// DN → login through the mapping memo, with the audit record of the
    /// acceptance at `now`: a hit at the current epoch skips the UUDB
    /// walk, the group resolution, and the audit-detail `format!`, and
    /// hands out the memo's `MappedUser` and strings, shared; a miss maps
    /// normally and memoizes. Only successes are cached — refusals are cold and their
    /// reasons vary.
    fn map_cached(
        &mut self,
        dn: &str,
        vsite: &str,
        account_group: Option<&str>,
        now: u64,
    ) -> Result<(Arc<MappedUser>, AuditRecord), MappingError> {
        let accepted = |dn: &SharedStr, c: &CachedMapping| {
            let record = AuditRecord {
                at: now,
                dn: dn.clone(),
                vsite: c.vsite.clone(),
                accepted: true,
                detail: c.detail.clone(),
            };
            (c.mapped.clone(), record)
        };
        if let Some((key, slots)) = self.map_cache.get_key_value(dn) {
            for c in slots {
                if c.epoch == self.map_epoch
                    && *c.vsite == *vsite
                    && c.account_group.as_deref() == account_group
                {
                    return Ok(accepted(key, c));
                }
            }
        }
        let mapped = self.uudb.map(dn, vsite, account_group)?;
        let detail = format!("mapped to {}", mapped.login);
        let epoch = self.map_epoch;
        let key = match self.map_cache.get_key_value(dn) {
            Some((key, _)) => key.clone(),
            None => SharedStr::from(dn),
        };
        let slots = self.map_cache.entry(key.clone()).or_default();
        slots.retain(|c| c.epoch == epoch);
        slots.push(CachedMapping {
            epoch,
            vsite: vsite.into(),
            account_group: account_group.map(str::to_owned),
            mapped: Arc::new(mapped),
            detail: detail.into(),
        });
        Ok(accepted(&key, slots.last().expect("just pushed")))
    }

    /// Authenticates an already-transport-validated peer for `vsite`,
    /// mapping its DN to a local login.
    pub fn authorize(
        &mut self,
        peer: &Certificate,
        vsite: &str,
        account_group: Option<&str>,
        site_security: Option<&[u8]>,
        now: u64,
    ) -> AuthDecision {
        let dn = peer.tbs.subject.to_string();

        // UNICORE-level usage check: users and peer servers may consign.
        if !peer.tbs.usage.client_auth {
            return self.refuse(
                now,
                &dn,
                vsite,
                "certificate lacks client authentication usage",
            );
        }
        // Site-specific additional authentication.
        if let Some(hook) = &self.site_hook {
            if let Err(reason) = hook(peer, site_security) {
                let msg = format!("site-specific authentication failed: {reason}");
                return self.refuse(now, &dn, vsite, &msg);
            }
        }
        // UUDB mapping.
        match self.map_cached(&dn, vsite, account_group, now) {
            Ok((mapped, record)) => {
                self.metrics.accepted.inc();
                self.push_audit(record);
                AuthDecision::Accepted(mapped)
            }
            Err(e) => {
                let msg = match e {
                    MappingError::UnknownDn(_) => "no UUDB entry".to_owned(),
                    MappingError::Disabled(_) => "entry disabled".to_owned(),
                    MappingError::BadAccountGroup { group, .. } => {
                        format!("account group {group} not permitted")
                    }
                };
                self.refuse(now, &dn, vsite, &msg)
            }
        }
    }

    /// Maps a bare DN (no certificate) for `vsite`.
    ///
    /// Used for NJS–NJS consignment: the *channel* is authenticated by the
    /// peer server's certificate, but the job runs as the original user,
    /// whose DN travels inside the AJO — "the file transfer between
    /// Uspaces has to be accomplished through NJS – NJS communication via
    /// the gateway (security servlet) for user-id mapping" (§5.6).
    pub fn authorize_dn(
        &mut self,
        dn: &str,
        vsite: &str,
        account_group: Option<&str>,
        now: u64,
    ) -> AuthDecision {
        match self.map_cached(dn, vsite, account_group, now) {
            Ok((mapped, record)) => {
                self.metrics.accepted.inc();
                self.push_audit(record);
                AuthDecision::Accepted(mapped)
            }
            Err(e) => {
                let msg = e.to_string();
                self.refuse(now, dn, vsite, &msg)
            }
        }
    }

    /// Installs (or replaces) the per-DN request rate limit.
    pub fn set_rate_limit(&mut self, cfg: RateLimitConfig) {
        self.limiter = Some(RateLimiter::new(cfg));
    }

    /// Marks `dn` as revoked: every subsequent user request is refused
    /// (and audited) until [`reinstate_dn`](Gateway::reinstate_dn).
    pub fn revoke_dn(&mut self, dn: impl Into<String>) {
        self.revoked_dns.insert(dn.into());
    }

    /// Lifts a [`revoke_dn`](Gateway::revoke_dn).
    pub fn reinstate_dn(&mut self, dn: &str) {
        self.revoked_dns.remove(dn);
    }

    /// Whether `dn` is currently revoked at the request level.
    pub fn is_dn_revoked(&self, dn: &str) -> bool {
        self.revoked_dns.contains(dn)
    }

    /// Admission control in front of request dispatch: revocation first,
    /// then the rate limit. Returns `Some(reason)` when the request must
    /// be refused — each refusal is audited exactly once here, so the
    /// caller must not audit again.
    pub fn admit(&mut self, dn: &str, scope: &str, now: u64) -> Option<String> {
        if self.revoked_dns.contains(dn) {
            self.metrics.revoked_rejected.inc();
            let AuthDecision::Refused(reason) = self.refuse(now, dn, scope, "certificate revoked")
            else {
                unreachable!("refuse always refuses")
            };
            return Some(reason);
        }
        if let Some(limiter) = &mut self.limiter {
            if limiter.check(dn, now) {
                self.metrics.ratelimit_allowed.inc();
            } else {
                self.metrics.ratelimit_rejected.inc();
                let AuthDecision::Refused(reason) =
                    self.refuse(now, dn, scope, "rate limit exceeded")
                else {
                    unreachable!("refuse always refuses")
                };
                return Some(reason);
            }
        }
        None
    }

    fn refuse(&mut self, now: u64, dn: &str, vsite: &str, reason: &str) -> AuthDecision {
        self.metrics.refused.inc();
        self.push_audit(AuditRecord {
            at: now,
            dn: dn.into(),
            vsite: vsite.into(),
            accepted: false,
            detail: reason.into(),
        });
        AuthDecision::Refused(reason.to_owned())
    }

    /// The audit trail, oldest first (at most the configured capacity).
    pub fn audit(&self) -> &VecDeque<AuditRecord> {
        &self.audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uudb::UserEntry;
    use unicore_certs::{CertificateAuthority, DistinguishedName, Identity, KeyUsage, Validity};
    use unicore_crypto::CryptoRng;

    fn dn(cn: &str) -> DistinguishedName {
        DistinguishedName::new("DE", "FZJ", "ZAM", cn)
    }

    struct Fixture {
        gw: Gateway,
        alice: Identity,
        server: Identity,
    }

    fn fixture() -> Fixture {
        let mut rng = CryptoRng::from_u64(50);
        let mut ca = CertificateAuthority::new_root(
            dn("CA"),
            Validity::starting_at(0, 100_000),
            512,
            &mut rng,
        );
        let alice = ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 1_000),
                &mut rng,
            )
            .unwrap();
        let server = ca
            .issue_identity(
                dn("peer-njs"),
                KeyUsage::server(),
                Validity::starting_at(0, 1_000),
                &mut rng,
            )
            .unwrap();
        let mut uudb = Uudb::new();
        uudb.add(
            alice.cert.tbs.subject.to_string(),
            UserEntry::new("alice1", "zam"),
        );
        uudb.add(
            server.cert.tbs.subject.to_string(),
            UserEntry::new("unicored", "system"),
        );
        Fixture {
            gw: Gateway::new("FZJ", uudb),
            alice,
            server,
        }
    }

    #[test]
    fn user_is_mapped() {
        let mut fx = fixture();
        let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 10);
        let AuthDecision::Accepted(m) = d else {
            panic!("{d:?}")
        };
        assert_eq!(m.login, "alice1");
        assert_eq!(m.account_group, "zam");
        assert_eq!(fx.gw.audit().len(), 1);
        assert!(fx.gw.audit()[0].accepted);
    }

    #[test]
    fn peer_server_certificates_also_map() {
        // NJS acts as a client towards peer sites (§5.3); server certs
        // carry client_auth and map through the UUDB like users.
        let mut fx = fixture();
        let d = fx.gw.authorize(&fx.server.cert, "T3E", None, None, 10);
        assert!(d.is_accepted());
    }

    #[test]
    fn unknown_dn_refused_and_audited() {
        let mut fx = fixture();
        let mut rng = CryptoRng::from_u64(51);
        let mut other_ca = CertificateAuthority::new_root(
            dn("CA2"),
            Validity::starting_at(0, 100_000),
            512,
            &mut rng,
        );
        let stranger = other_ca
            .issue_identity(
                dn("stranger"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut rng,
            )
            .unwrap();
        let d = fx.gw.authorize(&stranger.cert, "T3E", None, None, 20);
        assert!(matches!(d, AuthDecision::Refused(_)));
        let rec = fx.gw.audit().back().unwrap();
        assert!(!rec.accepted);
        assert_eq!(rec.detail, "no UUDB entry");
    }

    #[test]
    fn audit_trail_is_bounded_and_drops_are_counted() {
        let mut fx = fixture();
        let telemetry = Telemetry::disabled();
        fx.gw.set_telemetry(&telemetry);
        fx.gw.set_audit_capacity(3);
        for t in 0..5 {
            let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, t);
            assert!(d.is_accepted());
        }
        assert_eq!(fx.gw.audit().len(), 3);
        // Oldest two were evicted: the ring holds decisions 2, 3, 4.
        assert_eq!(fx.gw.audit()[0].at, 2);
        assert_eq!(fx.gw.audit().back().unwrap().at, 4);
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("gateway.audit.dropped"), 2);
        assert_eq!(snap.counter("gateway.authn.accepted"), 5);

        // Shrinking also evicts and counts.
        fx.gw.set_audit_capacity(1);
        assert_eq!(fx.gw.audit().len(), 1);
        assert_eq!(
            telemetry
                .metrics_snapshot()
                .counter("gateway.audit.dropped"),
            4
        );
    }

    #[test]
    fn refusals_are_counted() {
        let mut fx = fixture();
        let telemetry = Telemetry::disabled();
        fx.gw.set_telemetry(&telemetry);
        let d = fx
            .gw
            .authorize(&fx.alice.cert, "T3E", Some("physics"), None, 30);
        assert!(!d.is_accepted());
        assert_eq!(
            telemetry
                .metrics_snapshot()
                .counter("gateway.authn.refused"),
            1
        );
    }

    #[test]
    fn bad_account_group_refused() {
        let mut fx = fixture();
        let d = fx
            .gw
            .authorize(&fx.alice.cert, "T3E", Some("physics"), None, 30);
        assert!(matches!(d, AuthDecision::Refused(r) if r.contains("physics")));
    }

    #[test]
    fn site_hook_can_refuse() {
        let mut fx = fixture();
        fx.gw.set_site_hook(Box::new(|_cert, sec| {
            // Simulated smart-card check: require the magic token.
            match sec {
                Some(b"smartcard:42") => Ok(()),
                _ => Err("smart card required".to_owned()),
            }
        }));
        let refused = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 40);
        assert!(matches!(refused, AuthDecision::Refused(r) if r.contains("smart card")));
        let ok = fx
            .gw
            .authorize(&fx.alice.cert, "T3E", None, Some(b"smartcard:42"), 41);
        assert!(ok.is_accepted());
    }

    #[test]
    fn cached_mapping_still_audits_every_request() {
        let mut fx = fixture();
        for t in 0..3 {
            let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, t);
            let AuthDecision::Accepted(m) = d else {
                panic!("{d:?}")
            };
            assert_eq!(m.login, "alice1");
        }
        // Hits 2 and 3 came from the memo but each still left a record.
        assert_eq!(fx.gw.audit().len(), 3);
        assert!(fx
            .gw
            .audit()
            .iter()
            .all(|r| r.accepted && r.detail == "mapped to alice1"));
    }

    #[test]
    fn accepted_records_share_the_memos_text() {
        let mut fx = fixture();
        let dn = fx.alice.cert.tbs.subject.to_string();
        for t in 0..2 {
            assert!(fx
                .gw
                .authorize(&fx.alice.cert, "T3E", None, None, t)
                .is_accepted());
            assert!(fx.gw.authorize_dn(&dn, "T3E", None, t).is_accepted());
        }
        let trail = fx.gw.audit();
        assert_eq!(trail.len(), 4);
        for r in trail {
            // The text reads and compares as the `String`s it replaced.
            assert_eq!((r.dn == dn.as_str(), r.vsite == "T3E"), (true, true));
            assert_eq!(
                format!("{} {:?}", r.detail, r.vsite),
                "mapped to alice1 \"T3E\""
            );
            for (a, b) in [(&r.dn, &trail[0].dn), (&r.vsite, &trail[0].vsite)] {
                assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "one copy of the text");
            }
            assert!(std::ptr::eq(r.detail.as_ptr(), trail[0].detail.as_ptr()));
        }
        // A refusal writes its own text.
        fx.gw.authorize_dn("CN=nobody", "T3E", None, 9);
        let refused = fx.gw.audit().back().expect("a record");
        assert_eq!((refused.accepted, refused.dn == "CN=nobody"), (false, true));
    }

    #[test]
    fn accepted_mappings_share_one_user_until_the_uudb_changes() {
        let mut fx = fixture();
        let dn = fx.alice.cert.tbs.subject.to_string();
        let accept = |gw: &mut Gateway, t| match gw.authorize_dn(&dn, "T3E", None, t) {
            AuthDecision::Accepted(m) => m,
            d => panic!("{d:?}"),
        };
        let (first, second) = (accept(&mut fx.gw, 1), accept(&mut fx.gw, 2));
        assert!(Arc::ptr_eq(&first, &second), "one MappedUser for both");
        let by_cert = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 3);
        assert!(matches!(by_cert, AuthDecision::Accepted(m) if Arc::ptr_eq(&m, &first)));
        // A new UUDB epoch maps afresh, even to the same login.
        fx.gw.uudb_mut();
        let fresh = accept(&mut fx.gw, 4);
        assert!(
            !Arc::ptr_eq(&fresh, &first),
            "a stale mapping was handed out"
        );
        assert_eq!(*fresh, *first);
        assert!(Arc::ptr_eq(&fresh, &accept(&mut fx.gw, 5)));
    }

    #[test]
    fn uudb_mutation_invalidates_cached_mapping() {
        let mut fx = fixture();
        let dn_str = fx.alice.cert.tbs.subject.to_string();
        // Prime the memo...
        assert!(fx
            .gw
            .authorize(&fx.alice.cert, "T3E", None, None, 1)
            .is_accepted());
        // ...then mutate the UUDB through the epoch-bumping accessor.
        fx.gw.uudb_mut().disable(&dn_str);
        let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 2);
        assert!(
            matches!(d, AuthDecision::Refused(ref r) if r.contains("disabled")),
            "stale cache served a disabled user: {d:?}"
        );
        // Re-enabling (via replace) is also seen immediately.
        fx.gw
            .uudb_mut()
            .add(dn_str, UserEntry::new("alice2", "zam"));
        let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 3);
        let AuthDecision::Accepted(m) = d else {
            panic!("{d:?}")
        };
        assert_eq!(m.login, "alice2");
    }

    #[test]
    fn cache_keys_on_vsite_and_group() {
        let mut fx = fixture();
        let dn_str = fx.alice.cert.tbs.subject.to_string();
        fx.gw.uudb_mut().add(
            dn_str,
            UserEntry::new("alice1", "zam").with_vsite_login("SP2", "ali"),
        );
        let a = fx
            .gw
            .authorize_dn(&fx.alice.cert.tbs.subject.to_string(), "T3E", None, 1);
        let b = fx
            .gw
            .authorize_dn(&fx.alice.cert.tbs.subject.to_string(), "SP2", None, 2);
        let AuthDecision::Accepted(ma) = a else {
            panic!("{a:?}")
        };
        let AuthDecision::Accepted(mb) = b else {
            panic!("{b:?}")
        };
        assert_eq!(ma.login, "alice1");
        assert_eq!(mb.login, "ali");
        // Repeat both (now cached) and confirm they stay distinct.
        let a2 = fx.gw.authorize_dn(&ma.dn, "T3E", None, 3);
        let b2 = fx.gw.authorize_dn(&mb.dn, "SP2", None, 4);
        assert!(matches!(a2, AuthDecision::Accepted(m) if m.login == "alice1"));
        assert!(matches!(b2, AuthDecision::Accepted(m) if m.login == "ali"));
    }

    #[test]
    fn admission_open_by_default() {
        let mut fx = fixture();
        let dn = fx.alice.cert.tbs.subject.to_string();
        for t in 0..100 {
            assert!(fx.gw.admit(&dn, "gateway", t).is_none());
        }
        assert!(fx.gw.audit().is_empty(), "admissions are not audited");
    }

    #[test]
    fn rate_limit_refusals_audited_exactly_once() {
        let mut fx = fixture();
        let telemetry = Telemetry::disabled();
        fx.gw.set_telemetry(&telemetry);
        fx.gw
            .set_rate_limit(crate::ratelimit::RateLimitConfig::new(1, 3));
        let dn = fx.alice.cert.tbs.subject.to_string();
        let mut refused = 0;
        for _ in 0..10 {
            if fx.gw.admit(&dn, "gateway", 50).is_some() {
                refused += 1;
            }
        }
        assert_eq!(refused, 7, "burst of 3, then refusals");
        let audited = fx
            .gw
            .audit()
            .iter()
            .filter(|r| !r.accepted && r.detail == "rate limit exceeded")
            .count();
        assert_eq!(audited, refused, "every refusal audited exactly once");
        let snap = telemetry.metrics_snapshot();
        assert_eq!(snap.counter("gateway.ratelimit.rejected"), 7);
        assert_eq!(snap.counter("gateway.ratelimit.allowed"), 3);

        // Recovery: a second later one token has refilled.
        assert!(fx.gw.admit(&dn, "gateway", 51).is_none());
    }

    #[test]
    fn revoked_dn_refused_until_reinstated() {
        let mut fx = fixture();
        let telemetry = Telemetry::disabled();
        fx.gw.set_telemetry(&telemetry);
        let dn = fx.alice.cert.tbs.subject.to_string();
        fx.gw.revoke_dn(dn.clone());
        assert!(fx.gw.is_dn_revoked(&dn));
        let reason = fx.gw.admit(&dn, "gateway", 10).unwrap();
        assert!(reason.contains("revoked"));
        let rec = fx.gw.audit().back().unwrap();
        assert!(!rec.accepted);
        assert_eq!(rec.detail, "certificate revoked");
        assert_eq!(
            telemetry
                .metrics_snapshot()
                .counter("gateway.sessions.revoked_rejects"),
            1
        );
        fx.gw.reinstate_dn(&dn);
        assert!(fx.gw.admit(&dn, "gateway", 11).is_none());
    }

    #[test]
    fn disabled_user_refused() {
        let mut fx = fixture();
        let dn_str = fx.alice.cert.tbs.subject.to_string();
        fx.gw.uudb_mut().disable(&dn_str);
        let d = fx.gw.authorize(&fx.alice.cert, "T3E", None, None, 50);
        assert!(matches!(d, AuthDecision::Refused(r) if r.contains("disabled")));
    }
}
