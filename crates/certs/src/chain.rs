//! Certificate chain validation against a trust store.
//!
//! Validation checks, in order: chain links (issuer DN and signature),
//! validity windows at the evaluation time, CA usage on intermediates, the
//! required end-entity usage, and revocation against the freshest CRL known
//! per issuer.
//!
//! A successful validation returns a [`ValidatedCertificate`]: the end
//! entity together with the key its signature verified under. Holders that
//! must check the same certificate again later (a session cache on every
//! reconnect) hand it to [`TrustStore::revalidate`], which repeats every
//! check that depends on the time or on the store and skips only the RSA
//! verification of bytes that cannot have changed, under a key that has not.

use crate::cert::Certificate;
use crate::crl::CertificateRevocationList;
use crate::dn::DistinguishedName;
use crate::error::CertError;
use std::collections::HashMap;
use std::sync::Arc;
use unicore_crypto::rsa::RsaPublicKey;

/// What the verifier requires the end-entity key to be allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequiredUsage {
    /// Client authentication (users connecting to a gateway).
    ClientAuth,
    /// Server authentication (gateway presenting itself).
    ServerAuth,
    /// Software signature verification (applets).
    CodeSign,
    /// No usage requirement.
    Any,
}

/// An end-entity certificate that [`TrustStore::validate`] accepted.
///
/// Immutable, cheap to clone (one `Arc`), and only ever built by a
/// successful `validate` — there is no constructor from a bare
/// [`Certificate`]. It proves one thing that stays true: the certificate's
/// signature verifies under the recorded issuer key (the next chain
/// element's, or the anchor's when the end entity was presented alone).
/// Whether that key is still an anchor, the validity windows, revocation and
/// usage are *not* proven for any later moment or any other store:
/// [`TrustStore::revalidate`] checks them every time.
///
/// ```compile_fail
/// use unicore_certs::{Certificate, ValidatedCertificate};
/// // The field is private: only `TrustStore::validate` makes one.
/// fn forge(certificate: Certificate) -> ValidatedCertificate {
///     ValidatedCertificate(certificate.into())
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ValidatedCertificate(Arc<Proof>);

#[derive(Debug)]
struct Proof {
    certificate: Certificate,
    /// The key `certificate.signature` was verified under.
    issuer_key: RsaPublicKey,
}

impl ValidatedCertificate {
    /// The validated end-entity certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.0.certificate
    }
}

/// A set of trust anchors plus CRLs, shared by gateways and clients.
///
/// `Clone` supports live CRL refresh: clone the store, install the new
/// CRL, and swap the clone in atomically behind an `Arc`.
#[derive(Default, Clone)]
pub struct TrustStore {
    anchors: Vec<Certificate>,
    crls: HashMap<String, CertificateRevocationList>,
}

impl TrustStore {
    /// An empty store (trusts nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trust anchor (typically a self-signed root).
    ///
    /// Anchors must carry the `cert_sign` usage; others are rejected.
    pub fn add_anchor(&mut self, cert: Certificate) -> Result<(), CertError> {
        if !cert.tbs.usage.cert_sign {
            return Err(CertError::UsageViolation {
                subject: cert.tbs.subject.to_string(),
                needed: "cert_sign",
            });
        }
        self.anchors.push(cert);
        Ok(())
    }

    /// Installs (or replaces with a newer) CRL for its issuer.
    ///
    /// The CRL signature must verify under a known anchor or previously
    /// validated intermediate; here we require an anchor with a matching
    /// subject DN. Stale CRLs (sequence not newer) are ignored.
    pub fn install_crl(&mut self, crl: CertificateRevocationList) -> Result<(), CertError> {
        let anchor = self
            .anchors
            .iter()
            .find(|a| a.tbs.subject == crl.issuer)
            .ok_or_else(|| CertError::UnknownIssuer {
                issuer: crl.issuer.to_string(),
            })?;
        crl.verify(&anchor.tbs.public_key)?;
        let key = crl.issuer.to_string();
        match self.crls.get(&key) {
            Some(existing) if existing.sequence >= crl.sequence => Ok(()),
            _ => {
                self.crls.insert(key, crl);
                Ok(())
            }
        }
    }

    /// Looks up the anchor with `subject`.
    fn anchor_for(&self, subject: &DistinguishedName) -> Option<&Certificate> {
        self.anchors.iter().find(|a| &a.tbs.subject == subject)
    }

    /// Validates `chain` (end entity first, then intermediates toward the
    /// root) at time `now` for `usage`, verifying every signature link.
    ///
    /// The chain may omit the anchor itself; the last element's issuer must
    /// match an installed anchor. Returns the end entity as a
    /// [`ValidatedCertificate`].
    pub fn validate(
        &self,
        chain: &[Certificate],
        now: u64,
        usage: RequiredUsage,
    ) -> Result<ValidatedCertificate, CertError> {
        let issuer_key = self.check(chain, now, usage, None)?;
        Ok(ValidatedCertificate(Arc::new(Proof {
            certificate: chain[0].clone(),
            issuer_key: issuer_key.clone(),
        })))
    }

    /// Checks a certificate some `validate` accepted earlier — possibly on
    /// another store — against *this* store at `now`, as a chain of one.
    ///
    /// Everything `validate` checks is checked again — usage, the validity
    /// window of the certificate and of its anchor, the issuer's CRL, the
    /// issuer being an anchor here — except that the signature is not
    /// verified a second time when the anchor's key is the key it verified
    /// under before. An anchor with another key under the same name gets the
    /// full verification (and fails it).
    pub fn revalidate(
        &self,
        validated: &ValidatedCertificate,
        now: u64,
        usage: RequiredUsage,
    ) -> Result<(), CertError> {
        let proof = &*validated.0;
        self.check(
            std::slice::from_ref(&proof.certificate),
            now,
            usage,
            Some(&proof.issuer_key),
        )
        .map(|_| ())
    }

    /// The checks behind [`validate`](Self::validate) and
    /// [`revalidate`](Self::revalidate). `end_verified_under` is the key the
    /// end entity's signature is already known to verify under; that one
    /// RSA operation is skipped when the issuer found for it has that key.
    /// Returns the key of the end entity's issuer.
    fn check<'a>(
        &'a self,
        chain: &'a [Certificate],
        now: u64,
        usage: RequiredUsage,
        end_verified_under: Option<&RsaPublicKey>,
    ) -> Result<&'a RsaPublicKey, CertError> {
        let end = chain.first().ok_or(CertError::EmptyChain)?;

        // End-entity usage.
        let usage_ok = match usage {
            RequiredUsage::ClientAuth => end.tbs.usage.client_auth,
            RequiredUsage::ServerAuth => end.tbs.usage.server_auth,
            RequiredUsage::CodeSign => end.tbs.usage.code_sign,
            RequiredUsage::Any => true,
        };
        if !usage_ok {
            return Err(CertError::UsageViolation {
                subject: end.tbs.subject.to_string(),
                needed: match usage {
                    RequiredUsage::ClientAuth => "client_auth",
                    RequiredUsage::ServerAuth => "server_auth",
                    RequiredUsage::CodeSign => "code_sign",
                    RequiredUsage::Any => unreachable!(),
                },
            });
        }

        let mut end_issuer_key = None;
        for (i, cert) in chain.iter().enumerate() {
            // Validity window.
            if !cert.tbs.validity.contains(now) {
                return Err(CertError::Expired {
                    subject: cert.tbs.subject.to_string(),
                    at: now,
                });
            }
            // Intermediates must be CAs.
            if i > 0 && !cert.tbs.usage.cert_sign {
                return Err(CertError::UsageViolation {
                    subject: cert.tbs.subject.to_string(),
                    needed: "cert_sign",
                });
            }
            // Revocation: consult the issuer's CRL if installed.
            if let Some(crl) = self.crls.get(&cert.tbs.issuer.to_string()) {
                if crl.is_revoked(cert.tbs.serial) {
                    return Err(CertError::Revoked {
                        subject: cert.tbs.subject.to_string(),
                        serial: cert.tbs.serial,
                    });
                }
            }
            // Signature link: next chain element, or an anchor.
            let issuer_cert = match chain.get(i + 1) {
                Some(next) => {
                    if next.tbs.subject != cert.tbs.issuer {
                        return Err(CertError::BrokenChain {
                            subject: cert.tbs.subject.to_string(),
                            expected_issuer: cert.tbs.issuer.to_string(),
                        });
                    }
                    next
                }
                None => {
                    self.anchor_for(&cert.tbs.issuer)
                        .ok_or_else(|| CertError::UnknownIssuer {
                            issuer: cert.tbs.issuer.to_string(),
                        })?
                }
            };
            let issuer_key = &issuer_cert.tbs.public_key;
            if i == 0 {
                end_issuer_key = Some(issuer_key);
            }
            if i > 0 || end_verified_under != Some(issuer_key) {
                cert.verify_signature(issuer_key)?;
            }
        }

        // The anchor linking the top of the chain must itself be in window.
        if let Some(top) = chain.last() {
            if let Some(anchor) = self.anchor_for(&top.tbs.issuer) {
                if !anchor.tbs.validity.contains(now) {
                    return Err(CertError::Expired {
                        subject: anchor.tbs.subject.to_string(),
                        at: now,
                    });
                }
            }
        }
        Ok(end_issuer_key.expect("the chain is not empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::cert::{KeyUsage, Validity};
    use unicore_crypto::rng::CryptoRng;

    fn dn(cn: &str) -> DistinguishedName {
        DistinguishedName::new("DE", "FZJ", "ZAM", cn)
    }

    struct Fixture {
        store: TrustStore,
        ca: CertificateAuthority,
        rng: CryptoRng,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut rng = CryptoRng::from_u64(seed);
        let ca = CertificateAuthority::new_root(
            dn("UNICORE CA"),
            Validity::starting_at(0, 10_000),
            512,
            &mut rng,
        );
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        Fixture { store, ca, rng }
    }

    #[test]
    fn valid_user_chain() {
        let mut fx = fixture(30);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        fx.store
            .validate(&[id.cert], 50, RequiredUsage::ClientAuth)
            .unwrap();
    }

    #[test]
    fn expired_cert_rejected() {
        let mut fx = fixture(31);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        assert!(matches!(
            fx.store
                .validate(&[id.cert], 101, RequiredUsage::ClientAuth),
            Err(CertError::Expired { .. })
        ));
    }

    #[test]
    fn not_yet_valid_rejected() {
        let mut fx = fixture(32);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(10, 100),
                &mut fx.rng,
            )
            .unwrap();
        assert!(fx
            .store
            .validate(&[id.cert], 5, RequiredUsage::ClientAuth)
            .is_err());
    }

    #[test]
    fn usage_mismatch_rejected() {
        let mut fx = fixture(33);
        let id = fx
            .ca
            .issue_identity(
                dn("host"),
                KeyUsage::server(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        // Server cert presented where code signing is required.
        assert!(matches!(
            fx.store
                .validate(std::slice::from_ref(&id.cert), 10, RequiredUsage::CodeSign),
            Err(CertError::UsageViolation { .. })
        ));
        // Same cert is fine for server auth.
        fx.store
            .validate(&[id.cert], 10, RequiredUsage::ServerAuth)
            .unwrap();
    }

    #[test]
    fn unknown_issuer_rejected() {
        let mut fx = fixture(34);
        // A certificate from a different, untrusted CA.
        let mut other_rng = CryptoRng::from_u64(99);
        let mut other_ca = CertificateAuthority::new_root(
            dn("Rogue CA"),
            Validity::starting_at(0, 10_000),
            512,
            &mut other_rng,
        );
        let id = other_ca
            .issue_identity(
                dn("mallory"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut other_rng,
            )
            .unwrap();
        assert!(matches!(
            fx.store.validate(&[id.cert], 10, RequiredUsage::ClientAuth),
            Err(CertError::UnknownIssuer { .. })
        ));
        let _ = &mut fx; // fixture kept for symmetry
    }

    #[test]
    fn intermediate_chain_validates() {
        let mut fx = fixture(35);
        let mut inter = fx
            .ca
            .issue_intermediate(
                dn("Site CA"),
                Validity::starting_at(0, 5_000),
                512,
                &mut fx.rng,
            )
            .unwrap();
        let leaf = inter
            .issue_identity(
                dn("bob"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        fx.store
            .validate(
                &[leaf.cert, inter.certificate().clone()],
                50,
                RequiredUsage::ClientAuth,
            )
            .unwrap();
    }

    #[test]
    fn chain_with_wrong_order_rejected() {
        let mut fx = fixture(36);
        let mut inter = fx
            .ca
            .issue_intermediate(
                dn("Site CA"),
                Validity::starting_at(0, 5_000),
                512,
                &mut fx.rng,
            )
            .unwrap();
        let leaf = inter
            .issue_identity(
                dn("bob"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        // Swapped order: intermediate first.
        assert!(fx
            .store
            .validate(
                &[inter.certificate().clone(), leaf.cert],
                50,
                RequiredUsage::Any,
            )
            .is_err());
    }

    #[test]
    fn revoked_cert_rejected() {
        let mut fx = fixture(37);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let serial = id.cert.tbs.serial;
        fx.ca.revoke(serial);
        let crl = fx.ca.publish_crl(60);
        fx.store.install_crl(crl).unwrap();
        assert!(matches!(
            fx.store.validate(&[id.cert], 70, RequiredUsage::ClientAuth),
            Err(CertError::Revoked { .. })
        ));
    }

    #[test]
    fn stale_crl_does_not_replace_newer() {
        let mut fx = fixture(38);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        fx.ca.revoke(id.cert.tbs.serial);
        let newer = fx.ca.publish_crl(10); // sequence 1, contains the serial
                                           // Manufacture an older-looking empty CRL with a lower sequence by
                                           // publishing first and reusing; instead simply install newer, then
                                           // try to install a fresh CA's sequence-1-equivalent: publish again
                                           // gives sequence 2 — so test the ignore path via same-sequence.
        fx.store.install_crl(newer.clone()).unwrap();
        fx.store.install_crl(newer).unwrap(); // same sequence: ignored, no error
        assert!(matches!(
            fx.store.validate(&[id.cert], 20, RequiredUsage::ClientAuth),
            Err(CertError::Revoked { .. })
        ));
    }

    #[test]
    fn revocation_effective_at_exact_publication_instant() {
        // A CRL published at the very second a handshake happens already
        // revokes: there is no grace window between publication and
        // enforcement, even at `now == issued_at` (or earlier — a CRL is
        // a set of bad serials, not a time-scoped statement).
        let mut fx = fixture(41);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        fx.ca.revoke(id.cert.tbs.serial);
        let crl = fx.ca.publish_crl(60);
        assert_eq!(crl.issued_at, 60);
        fx.store.install_crl(crl).unwrap();
        assert!(matches!(
            fx.store.validate(
                std::slice::from_ref(&id.cert),
                60,
                RequiredUsage::ClientAuth
            ),
            Err(CertError::Revoked { .. })
        ));
        // And one second before publication time, too.
        assert!(matches!(
            fx.store.validate(&[id.cert], 59, RequiredUsage::ClientAuth),
            Err(CertError::Revoked { .. })
        ));
    }

    #[test]
    fn crl_refresh_supersedes_by_sequence() {
        // Live refresh: a later CRL (higher sequence) replaces the
        // installed one wholesale — serials it adds become revoked,
        // and the freshest snapshot is always the one consulted.
        let mut fx = fixture(42);
        let alice = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let bob = fx
            .ca
            .issue_identity(
                dn("bob"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        fx.ca.revoke(alice.cert.tbs.serial);
        fx.store.install_crl(fx.ca.publish_crl(10)).unwrap();
        fx.store
            .validate(
                std::slice::from_ref(&bob.cert),
                20,
                RequiredUsage::ClientAuth,
            )
            .unwrap();
        // Refresh adds bob.
        fx.ca.revoke(bob.cert.tbs.serial);
        fx.store.install_crl(fx.ca.publish_crl(30)).unwrap();
        assert!(matches!(
            fx.store
                .validate(&[bob.cert], 40, RequiredUsage::ClientAuth),
            Err(CertError::Revoked { .. })
        ));
        assert!(matches!(
            fx.store
                .validate(&[alice.cert], 40, RequiredUsage::ClientAuth),
            Err(CertError::Revoked { .. })
        ));
    }

    #[test]
    fn empty_crl_fast_path_accepts_everything() {
        // An installed-but-empty CRL must not slow down or reject
        // anything: validation takes the is_revoked fast path (binary
        // search over zero serials) and succeeds.
        let mut fx = fixture(43);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let crl = fx.ca.publish_crl(5);
        assert!(crl.revoked_serials.is_empty());
        fx.store.install_crl(crl).unwrap();
        fx.store
            .validate(&[id.cert], 10, RequiredUsage::ClientAuth)
            .unwrap();
    }

    /// What `revalidate` must still refuse although the signature is taken
    /// as read: every check that depends on the time or on the store.
    #[test]
    fn revalidate_repeats_every_time_and_store_dependent_check() {
        let mut fx = fixture(44);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(10, 90),
                &mut fx.rng,
            )
            .unwrap();
        let proof = fx
            .store
            .validate(
                std::slice::from_ref(&id.cert),
                50,
                RequiredUsage::ClientAuth,
            )
            .unwrap();
        assert_eq!(proof.certificate(), &id.cert);
        fx.store
            .revalidate(&proof, 50, RequiredUsage::ClientAuth)
            .unwrap();
        fx.store
            .revalidate(&proof, 100, RequiredUsage::Any)
            .unwrap();

        // Window of the certificate, on both sides.
        for now in [9, 101] {
            assert!(matches!(
                fx.store.revalidate(&proof, now, RequiredUsage::Any),
                Err(CertError::Expired { .. })
            ));
        }
        // Usage.
        assert!(matches!(
            fx.store.revalidate(&proof, 50, RequiredUsage::ServerAuth),
            Err(CertError::UsageViolation { .. })
        ));
        // Revocation that landed after the validation.
        let mut revoking = fx.store.clone();
        fx.ca.revoke(id.cert.tbs.serial);
        revoking.install_crl(fx.ca.publish_crl(60)).unwrap();
        assert!(matches!(
            revoking.revalidate(&proof, 70, RequiredUsage::Any),
            Err(CertError::Revoked { .. })
        ));
        // Window of the anchor: same key, shorter life.
        let mut short_rng = CryptoRng::from_u64(44);
        let short_lived = CertificateAuthority::new_root(
            dn("UNICORE CA"),
            Validity::starting_at(0, 60),
            512,
            &mut short_rng,
        );
        assert_eq!(
            short_lived.certificate().tbs.public_key,
            fx.ca.certificate().tbs.public_key
        );
        let mut aging = TrustStore::new();
        aging.add_anchor(short_lived.certificate().clone()).unwrap();
        aging.revalidate(&proof, 60, RequiredUsage::Any).unwrap();
        assert!(matches!(
            aging.revalidate(&proof, 61, RequiredUsage::Any),
            Err(CertError::Expired { .. })
        ));
    }

    /// A proof says which key the signature verified under, not that any
    /// store trusts that key: a store that never saw the certificate decides
    /// from its own anchors.
    #[test]
    fn proof_from_one_store_does_not_satisfy_another() {
        let mut fx = fixture(45);
        let id = fx
            .ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let proof = fx
            .store
            .validate(&[id.cert], 50, RequiredUsage::ClientAuth)
            .unwrap();

        // No anchor for the issuer at all.
        assert!(matches!(
            TrustStore::new().revalidate(&proof, 50, RequiredUsage::Any),
            Err(CertError::UnknownIssuer { .. })
        ));
        // An anchor of the same name with another key: the signature is
        // verified in full under that key, and does not hold.
        let impostor = CertificateAuthority::new_root(
            dn("UNICORE CA"),
            Validity::starting_at(0, 10_000),
            512,
            &mut CryptoRng::from_u64(4500),
        );
        assert_ne!(
            impostor.certificate().tbs.public_key,
            fx.ca.certificate().tbs.public_key
        );
        let mut other = TrustStore::new();
        other.add_anchor(impostor.certificate().clone()).unwrap();
        assert!(matches!(
            other.revalidate(&proof, 50, RequiredUsage::Any),
            Err(CertError::BadSignature { .. })
        ));
        // The same anchor in another store is the same trust decision
        // `validate` would reach there.
        let mut same = TrustStore::new();
        same.add_anchor(fx.ca.certificate().clone()).unwrap();
        same.revalidate(&proof, 50, RequiredUsage::Any).unwrap();
    }

    /// Behind an intermediate, the end entity's signature was verified under
    /// the intermediate's key. Revalidated as the chain of one it is cached
    /// as, its issuer is no anchor — exactly what `validate` says of it.
    #[test]
    fn proof_through_an_intermediate_revalidates_like_the_bare_end_entity() {
        let mut fx = fixture(46);
        let mut inter = fx
            .ca
            .issue_intermediate(
                dn("Site CA"),
                Validity::starting_at(0, 5_000),
                512,
                &mut fx.rng,
            )
            .unwrap();
        let leaf = inter
            .issue_identity(
                dn("bob"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let proof = fx
            .store
            .validate(
                &[leaf.cert.clone(), inter.certificate().clone()],
                50,
                RequiredUsage::ClientAuth,
            )
            .unwrap();
        assert_eq!(proof.certificate(), &leaf.cert);
        assert!(matches!(
            fx.store.validate(&[leaf.cert], 50, RequiredUsage::Any),
            Err(CertError::UnknownIssuer { .. })
        ));
        assert!(matches!(
            fx.store.revalidate(&proof, 50, RequiredUsage::Any),
            Err(CertError::UnknownIssuer { .. })
        ));
    }

    #[test]
    fn empty_chain_rejected() {
        let fx = fixture(39);
        assert!(matches!(
            fx.store.validate(&[], 0, RequiredUsage::Any),
            Err(CertError::EmptyChain)
        ));
    }

    #[test]
    fn anchor_must_be_ca() {
        let mut fx = fixture(40);
        let id = fx
            .ca
            .issue_identity(
                dn("user"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut fx.rng,
            )
            .unwrap();
        let mut store = TrustStore::new();
        assert!(store.add_anchor(id.cert).is_err());
    }
}
