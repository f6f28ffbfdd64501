//! Certificate revocation lists.

use crate::dn::DistinguishedName;
use crate::error::CertError;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_crypto::rsa::{RsaPrivateKey, RsaPublicKey};

/// A signed snapshot of revoked serial numbers from one issuer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateRevocationList {
    /// The issuing CA's DN.
    pub issuer: DistinguishedName,
    /// Monotonically increasing CRL sequence number.
    pub sequence: u64,
    /// Publication time (simulation seconds).
    pub issued_at: u64,
    /// Revoked serials, sorted ascending.
    pub revoked_serials: Vec<u64>,
    /// CA signature over the body.
    pub signature: Vec<u8>,
}

impl CertificateRevocationList {
    /// Builds and signs a CRL (used by the CA).
    pub fn new_signed(
        issuer: DistinguishedName,
        sequence: u64,
        issued_at: u64,
        revoked_serials: Vec<u64>,
        key: &RsaPrivateKey,
    ) -> Self {
        let mut crl = CertificateRevocationList {
            issuer,
            sequence,
            issued_at,
            revoked_serials,
            signature: Vec::new(),
        };
        crl.signature = key.sign(&crl.body_der()).expect("CRL signing");
        crl
    }

    /// The signed fields, in wire order.
    fn write_body(&self, w: &mut DerWriter) {
        self.issuer.write_der(w);
        w.u64(self.sequence);
        w.u64(self.issued_at);
        w.sequence_of(&self.revoked_serials, |w, &s| w.u64(s));
    }

    fn body_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.sequence(|w| self.write_body(w));
        w.into_vec()
    }

    /// Verifies the CA signature.
    pub fn verify(&self, issuer_key: &RsaPublicKey) -> Result<(), CertError> {
        issuer_key
            .verify(&self.body_der(), &self.signature)
            .map_err(|_| CertError::BadCrlSignature)
    }

    /// Whether `serial` is revoked in this snapshot (binary search — the
    /// list is sorted by construction).
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked_serials.binary_search(&serial).is_ok()
    }
}

impl DerCodec for CertificateRevocationList {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.write_body(w);
            w.bytes(&self.signature);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("CertificateRevocationList", |f| {
            Ok(CertificateRevocationList {
                issuer: DistinguishedName::read_der(f)?,
                sequence: f.next_u64()?,
                issued_at: f.next_u64()?,
                revoked_serials: f.sequence_of("revoked serials", |s| s.next_u64())?,
                signature: f.next_bytes()?.to_vec(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_crypto::rng::CryptoRng;
    use unicore_crypto::rsa::RsaKeyPair;

    fn dn() -> DistinguishedName {
        DistinguishedName::new("DE", "DFN", "PCA", "root")
    }

    #[test]
    fn signed_crl_verifies() {
        let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(20));
        let crl = CertificateRevocationList::new_signed(dn(), 1, 50, vec![2, 9], &kp.private);
        crl.verify(&kp.public).unwrap();
        assert!(crl.is_revoked(2));
        assert!(crl.is_revoked(9));
        assert!(!crl.is_revoked(3));
    }

    #[test]
    fn tampered_crl_fails() {
        let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(21));
        let mut crl = CertificateRevocationList::new_signed(dn(), 1, 50, vec![2], &kp.private);
        crl.revoked_serials.push(99);
        assert!(crl.verify(&kp.public).is_err());
    }

    #[test]
    fn der_round_trip() {
        let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(22));
        let crl = CertificateRevocationList::new_signed(dn(), 7, 123, vec![1, 5, 100], &kp.private);
        let back = CertificateRevocationList::from_der(&crl.to_der()).unwrap();
        assert_eq!(back, crl);
        back.verify(&kp.public).unwrap();
    }

    #[test]
    fn empty_crl_is_valid() {
        let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(23));
        let crl = CertificateRevocationList::new_signed(dn(), 1, 0, vec![], &kp.private);
        crl.verify(&kp.public).unwrap();
        assert!(!crl.is_revoked(0));
    }
}
