//! Property tests for the resumption machinery: the ticket codec
//! round-trips exactly and survives arbitrary tampering without panics
//! or forged acceptance, and the session cache keeps its invariants
//! under interleaved store/lookup/invalidate/eviction sequences.

use proptest::prelude::*;
use std::sync::OnceLock;
use unicore_certs::{
    CertificateAuthority, DistinguishedName, KeyUsage, RequiredUsage, TrustStore,
    ValidatedCertificate, Validity,
};
use unicore_codec::DerCodec;
use unicore_crypto::CryptoRng;
use unicore_transport::{CachedSession, ResumptionTicket, SessionCache};

fn master() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 16..48)
}

fn ticket_parts() -> impl Strategy<Value = (Vec<u8>, String, u64, u64, u64)> {
    (
        proptest::collection::vec(any::<u8>(), 1..32),
        "[0-9a-f]{8,64}",
        0u64..1_000_000,
        1u64..100_000,
        0u64..1_000,
    )
}

proptest! {
    /// Minted tickets survive the DER wire byte-exactly and still verify.
    #[test]
    fn ticket_round_trips_and_verifies(
        master in master(),
        (sid, fp, issued_at, ttl, epoch) in ticket_parts(),
    ) {
        let t = ResumptionTicket::mint(&master, &sid, &fp, issued_at, ttl, epoch);
        let back = ResumptionTicket::from_der(&t.to_der()).unwrap();
        prop_assert_eq!(&back, &t);
        prop_assert!(back.verify(&master, &fp, issued_at, epoch).is_ok());
        // The last valid instant and the first invalid one.
        let end = issued_at.saturating_add(ttl);
        prop_assert!(back.usable_at(end - 1));
        prop_assert!(!back.usable_at(end));
    }

    /// Any single-byte corruption of a ticket on the wire either fails to
    /// decode or fails to verify — and never panics. A tampered ticket
    /// can only ever cause a full-handshake fallback.
    #[test]
    fn tampered_ticket_never_verifies_and_never_panics(
        master in master(),
        (sid, fp, issued_at, ttl, epoch) in ticket_parts(),
        idx in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let t = ResumptionTicket::mint(&master, &sid, &fp, issued_at, ttl, epoch);
        let mut der = t.to_der();
        let i = idx.index(der.len());
        der[i] ^= flip;
        match ResumptionTicket::from_der(&der) {
            Err(_) => {} // malformed: decoder refused, no panic
            Ok(back) => {
                // Decoded to *something*; the binder must not verify
                // unless the corruption produced the identical ticket
                // (impossible for a strict codec, but harmless).
                if back != t {
                    prop_assert!(
                        back.verify(&master, &fp, issued_at, epoch).is_err(),
                        "corrupted ticket accepted"
                    );
                }
            }
        }
    }

    /// A truncated ticket never panics the decoder.
    #[test]
    fn truncated_ticket_never_panics(
        master in master(),
        (sid, fp, issued_at, ttl, epoch) in ticket_parts(),
        keep in any::<prop::sample::Index>(),
    ) {
        let der = ResumptionTicket::mint(&master, &sid, &fp, issued_at, ttl, epoch).to_der();
        let cut = keep.index(der.len());
        prop_assert!(ResumptionTicket::from_der(&der[..cut]).is_err());
    }
}

/// One real certificate, minted and validated once — RSA keygen is far too
/// slow to run per proptest case, and the cache invariants do not depend
/// on *which* certificate a session carries.
fn test_cert() -> &'static ValidatedCertificate {
    static CERT: OnceLock<ValidatedCertificate> = OnceLock::new();
    CERT.get_or_init(|| {
        let mut rng = CryptoRng::from_u64(4242);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "FZJ", "ZAM", "prop CA"),
            Validity::starting_at(0, 1_000_000),
            512,
            &mut rng,
        );
        let cert = ca
            .issue_identity(
                DistinguishedName::new("DE", "FZJ", "ZAM", "prop user"),
                KeyUsage::user(),
                Validity::starting_at(0, 1_000_000),
                &mut rng,
            )
            .unwrap()
            .cert;
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone()).unwrap();
        trust.validate(&[cert], 0, RequiredUsage::Any).unwrap()
    })
}

fn session(id: u8) -> CachedSession {
    CachedSession {
        session_id: vec![id, id.wrapping_add(1), id.wrapping_add(2)],
        master: vec![id; 16],
        peer: test_cert().clone(),
        ticket: None,
    }
}

/// One scripted cache operation. Ops are drawn over a small id space so
/// sequences collide on keys (re-store, double-invalidate) and overflow
/// the capacity (eviction) often.
#[derive(Debug, Clone)]
enum CacheOp {
    Store(u8),
    LookupId(u8),
    LookupPeer(u8),
    Invalidate(u8),
    InvalidateEven,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u8..24).prop_map(CacheOp::Store),
        (0u8..24).prop_map(CacheOp::Store),
        (0u8..24).prop_map(CacheOp::LookupId),
        (0u8..24).prop_map(CacheOp::LookupPeer),
        (0u8..24).prop_map(CacheOp::Invalidate),
        Just(CacheOp::InvalidateEven),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of stores, lookups, invalidations, and
    /// LRU eviction pressure, the cache never exceeds its capacity,
    /// lookups return exactly what was stored under the key, a stored
    /// session is immediately resumable, and an invalidated one never is.
    #[test]
    fn session_cache_invariants_under_interleaved_eviction(
        capacity in 1usize..6,
        ops in proptest::collection::vec(cache_op(), 1..80),
    ) {
        let cache = SessionCache::new(capacity);
        for op in ops {
            match op {
                CacheOp::Store(id) => {
                    let s = session(id);
                    let sid = s.session_id.clone();
                    cache.store(&format!("peer-{id}"), s);
                    // The just-stored entry survives its own insertion
                    // (eviction only claims older entries).
                    let got = cache.lookup_id(&sid);
                    prop_assert!(got.is_some(), "fresh store evicted itself");
                    prop_assert_eq!(got.unwrap().master, vec![id; 16]);
                }
                CacheOp::LookupId(id) => {
                    let sid = vec![id, id.wrapping_add(1), id.wrapping_add(2)];
                    if let Some(s) = cache.lookup_id(&sid) {
                        prop_assert_eq!(s.session_id, sid);
                        prop_assert_eq!(s.master, vec![id; 16]);
                    }
                }
                CacheOp::LookupPeer(id) => {
                    if let Some(s) = cache.lookup_peer(&format!("peer-{id}")) {
                        prop_assert_eq!(s.master, vec![id; 16]);
                    }
                }
                CacheOp::Invalidate(id) => {
                    let sid = vec![id, id.wrapping_add(1), id.wrapping_add(2)];
                    cache.invalidate(&sid);
                    prop_assert!(cache.lookup_id(&sid).is_none(), "invalidated id resumable");
                    prop_assert!(
                        cache.lookup_peer(&format!("peer-{id}")).is_none(),
                        "invalidated peer resumable"
                    );
                }
                CacheOp::InvalidateEven => {
                    cache.invalidate_matching(|s| s.master[0] % 2 == 0);
                    for id in (0u8..24).step_by(2) {
                        let sid = vec![id, id.wrapping_add(1), id.wrapping_add(2)];
                        prop_assert!(
                            cache.lookup_id(&sid).is_none(),
                            "matching entry survived invalidate_matching"
                        );
                    }
                }
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
        }
    }
}
