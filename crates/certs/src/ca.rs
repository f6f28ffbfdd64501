//! The Certificate Authority.
//!
//! The paper (§5.2) assumes "the existence of a Certificate Authority (CA)
//! to generate the X.509v3 certificates for the server systems, the software
//! developers, and the users", following DFN-PCA practice. This module is
//! that CA: a root (or intermediate) that issues, logs and revokes
//! certificates and publishes signed CRLs.

use crate::cert::{Certificate, KeyUsage, TbsCertificate, Validity};
use crate::crl::CertificateRevocationList;
use crate::dn::DistinguishedName;
use crate::error::CertError;
use unicore_codec::DerCodec;
use unicore_crypto::rng::CryptoRng;
use unicore_crypto::rsa::{RsaKeyPair, RsaPublicKey};

/// Default RSA modulus size for generated identities (kept small enough for
/// fast simulation; real deployments would use ≥ 2048).
pub const DEFAULT_KEY_BITS: usize = 512;

/// A certificate authority with its key pair and revocation state.
pub struct CertificateAuthority {
    keypair: RsaKeyPair,
    cert: Certificate,
    next_serial: u64,
    revoked: Vec<u64>,
    crl_sequence: u64,
}

/// A subject identity: certificate plus matching private key.
///
/// Users, servers and software signers each hold one of these.
pub struct Identity {
    /// The issued certificate.
    pub cert: Certificate,
    /// The private key matching `cert.tbs.public_key`.
    pub keypair: RsaKeyPair,
}

impl CertificateAuthority {
    /// Creates a self-signed root CA.
    pub fn new_root(
        dn: DistinguishedName,
        validity: Validity,
        key_bits: usize,
        rng: &mut CryptoRng,
    ) -> Self {
        let keypair = RsaKeyPair::generate(key_bits, rng);
        let tbs = TbsCertificate {
            serial: 0,
            issuer: dn.clone(),
            subject: dn,
            validity,
            public_key: keypair.public.clone(),
            usage: KeyUsage::ca(),
        };
        let signature = keypair
            .private
            .sign(&tbs.to_der())
            .expect("root CA self-signature");
        CertificateAuthority {
            keypair,
            cert: Certificate { tbs, signature },
            next_serial: 1,
            revoked: Vec::new(),
            crl_sequence: 0,
        }
    }

    /// The CA's own certificate (the trust anchor when this is a root).
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Issues a certificate over an externally generated public key.
    pub fn issue(
        &mut self,
        subject: DistinguishedName,
        public_key: RsaPublicKey,
        usage: KeyUsage,
        validity: Validity,
    ) -> Result<Certificate, CertError> {
        if !self.cert.tbs.usage.cert_sign {
            return Err(CertError::UsageViolation {
                subject: self.cert.tbs.subject.to_string(),
                needed: "cert_sign",
            });
        }
        let tbs = TbsCertificate {
            serial: self.next_serial,
            issuer: self.cert.tbs.subject.clone(),
            subject,
            validity,
            public_key,
            usage,
        };
        let signature = self
            .keypair
            .private
            .sign(&tbs.to_der())
            .map_err(|_| CertError::SigningFailed)?;
        self.next_serial += 1;
        Ok(Certificate { tbs, signature })
    }

    /// Generates a fresh key pair and issues a certificate for it.
    pub fn issue_identity(
        &mut self,
        subject: DistinguishedName,
        usage: KeyUsage,
        validity: Validity,
        rng: &mut CryptoRng,
    ) -> Result<Identity, CertError> {
        let keypair = RsaKeyPair::generate(DEFAULT_KEY_BITS, rng);
        let cert = self.issue(subject, keypair.public.clone(), usage, validity)?;
        Ok(Identity { cert, keypair })
    }

    /// Issues an intermediate CA under this one.
    pub fn issue_intermediate(
        &mut self,
        subject: DistinguishedName,
        validity: Validity,
        key_bits: usize,
        rng: &mut CryptoRng,
    ) -> Result<CertificateAuthority, CertError> {
        let keypair = RsaKeyPair::generate(key_bits, rng);
        let cert = self.issue(subject, keypair.public.clone(), KeyUsage::ca(), validity)?;
        Ok(CertificateAuthority {
            keypair,
            cert,
            next_serial: 1,
            revoked: Vec::new(),
            crl_sequence: 0,
        })
    }

    /// Revokes a serial number (idempotent).
    pub fn revoke(&mut self, serial: u64) {
        if !self.revoked.contains(&serial) {
            self.revoked.push(serial);
        }
    }

    /// Publishes a signed CRL snapshot at `issued_at`.
    pub fn publish_crl(&mut self, issued_at: u64) -> CertificateRevocationList {
        self.crl_sequence += 1;
        let mut serials = self.revoked.clone();
        serials.sort_unstable();
        CertificateRevocationList::new_signed(
            self.cert.tbs.subject.clone(),
            self.crl_sequence,
            issued_at,
            serials,
            &self.keypair.private,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(cn: &str) -> DistinguishedName {
        DistinguishedName::new("DE", "DFN", "PCA", cn)
    }

    fn root(rng: &mut CryptoRng) -> CertificateAuthority {
        CertificateAuthority::new_root(dn("root"), Validity::starting_at(0, 1_000_000), 512, rng)
    }

    #[test]
    fn root_is_self_signed() {
        let mut rng = CryptoRng::from_u64(10);
        let ca = root(&mut rng);
        assert!(ca.certificate().is_self_signed());
        assert!(ca.certificate().tbs.usage.cert_sign);
    }

    #[test]
    fn issued_cert_verifies_under_root() {
        let mut rng = CryptoRng::from_u64(11);
        let mut ca = root(&mut rng);
        let id = ca
            .issue_identity(
                dn("alice"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut rng,
            )
            .unwrap();
        id.cert
            .verify_signature(&ca.certificate().tbs.public_key)
            .unwrap();
        assert_eq!(id.cert.tbs.serial, 1);
        assert!(id.cert.tbs.usage.client_auth);
    }

    #[test]
    fn serials_increment() {
        let mut rng = CryptoRng::from_u64(12);
        let mut ca = root(&mut rng);
        let v = Validity::starting_at(0, 100);
        let a = ca
            .issue_identity(dn("a"), KeyUsage::user(), v, &mut rng)
            .unwrap();
        let b = ca
            .issue_identity(dn("b"), KeyUsage::user(), v, &mut rng)
            .unwrap();
        assert_eq!(a.cert.tbs.serial + 1, b.cert.tbs.serial);
    }

    #[test]
    fn intermediate_chain() {
        let mut rng = CryptoRng::from_u64(13);
        let mut root_ca = root(&mut rng);
        let mut inter = root_ca
            .issue_intermediate(
                dn("intermediate"),
                Validity::starting_at(0, 500),
                512,
                &mut rng,
            )
            .unwrap();
        // Intermediate's cert verifies under root.
        inter
            .certificate()
            .verify_signature(&root_ca.certificate().tbs.public_key)
            .unwrap();
        // Leaf issued by the intermediate verifies under the intermediate.
        let leaf = inter
            .issue_identity(
                dn("leaf"),
                KeyUsage::server(),
                Validity::starting_at(0, 100),
                &mut rng,
            )
            .unwrap();
        leaf.cert
            .verify_signature(&inter.certificate().tbs.public_key)
            .unwrap();
        // ...but not under the root directly.
        assert!(leaf
            .cert
            .verify_signature(&root_ca.certificate().tbs.public_key)
            .is_err());
    }

    #[test]
    fn non_ca_cannot_issue() {
        let mut rng = CryptoRng::from_u64(14);
        let mut ca = root(&mut rng);
        let user = ca
            .issue_identity(
                dn("user"),
                KeyUsage::user(),
                Validity::starting_at(0, 100),
                &mut rng,
            )
            .unwrap();
        // Build a fake CA around the user's (non-cert-sign) identity.
        let mut fake = CertificateAuthority {
            keypair: user.keypair,
            cert: user.cert,
            next_serial: 1,
            revoked: Vec::new(),
            crl_sequence: 0,
        };
        let another = RsaKeyPair::generate(512, &mut rng);
        assert!(matches!(
            fake.issue(
                dn("victim"),
                another.public,
                KeyUsage::user(),
                Validity::starting_at(0, 1)
            ),
            Err(CertError::UsageViolation { .. })
        ));
    }

    #[test]
    fn revocation_appears_in_crl() {
        let mut rng = CryptoRng::from_u64(15);
        let mut ca = root(&mut rng);
        ca.revoke(5);
        ca.revoke(3);
        ca.revoke(5); // idempotent
        let crl = ca.publish_crl(42);
        assert_eq!(crl.revoked_serials, vec![3, 5]);
        assert_eq!(crl.issued_at, 42);
        crl.verify(&ca.certificate().tbs.public_key).unwrap();
        // Sequence numbers advance.
        let crl2 = ca.publish_crl(43);
        assert!(crl2.sequence > crl.sequence);
    }
}
