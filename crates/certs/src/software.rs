//! Signed software bundles — the "signed applets" of the paper.
//!
//! UNICORE loads the JPA/JMC applets from the server and checks "the applet
//! certificate ... to assure the user that the software has not been
//! tampered with and can be trusted" (§4.1). A [`SignedSoftware`] bundles a
//! named code blob, a version, the developer's signature and certificate.

use crate::cert::Certificate;
use crate::chain::{RequiredUsage, TrustStore};
use crate::error::CertError;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_crypto::rsa::RsaPrivateKey;

/// A software bundle with a code-signing signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedSoftware {
    /// Bundle name, e.g. `"JPA"` or `"JMC"`.
    pub name: String,
    /// Version string.
    pub version: String,
    /// The code payload.
    pub payload: Vec<u8>,
    /// Developer's signature over `(name, version, payload)`.
    pub signature: Vec<u8>,
    /// Developer's code-signing certificate.
    pub signer: Certificate,
}

impl SignedSoftware {
    /// Signs `payload` as `name`/`version` with the developer's key.
    pub fn sign(
        name: impl Into<String>,
        version: impl Into<String>,
        payload: Vec<u8>,
        signer: Certificate,
        key: &RsaPrivateKey,
    ) -> Result<Self, CertError> {
        let name = name.into();
        let version = version.into();
        let body = Self::signed_body(&name, &version, &payload);
        let signature = key.sign(&body).map_err(|_| CertError::SigningFailed)?;
        Ok(SignedSoftware {
            name,
            version,
            payload,
            signature,
            signer,
        })
    }

    fn signed_body(name: &str, version: &str, payload: &[u8]) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.sequence(|w| {
            w.str(name);
            w.str(version);
            w.bytes(payload);
        });
        w.into_vec()
    }

    /// Full verification: the signer chain must validate for code signing
    /// in `store` at `now`, and the signature must cover the payload.
    pub fn verify(&self, store: &TrustStore, now: u64) -> Result<(), CertError> {
        store.validate(
            std::slice::from_ref(&self.signer),
            now,
            RequiredUsage::CodeSign,
        )?;
        let body = Self::signed_body(&self.name, &self.version, &self.payload);
        self.signer
            .tbs
            .public_key
            .verify(&body, &self.signature)
            .map_err(|_| CertError::TamperedSoftware {
                name: self.name.clone(),
            })
    }
}

impl DerCodec for SignedSoftware {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.str(&self.name);
            w.str(&self.version);
            w.bytes(&self.payload);
            w.bytes(&self.signature);
            self.signer.write_der(w);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("SignedSoftware", |f| {
            Ok(SignedSoftware {
                name: f.next_string()?,
                version: f.next_string()?,
                payload: f.next_bytes()?.to_vec(),
                signature: f.next_bytes()?.to_vec(),
                signer: Certificate::read_der(f)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use crate::cert::{KeyUsage, Validity};
    use crate::dn::DistinguishedName;
    use unicore_crypto::rng::CryptoRng;

    fn setup() -> (TrustStore, SignedSoftware) {
        let mut rng = CryptoRng::from_u64(60);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "FZJ", "ZAM", "UNICORE CA"),
            Validity::starting_at(0, 10_000),
            512,
            &mut rng,
        );
        let dev = ca
            .issue_identity(
                DistinguishedName::new("DE", "Pallas", "Dev", "applet-signer"),
                KeyUsage::software(),
                Validity::starting_at(0, 1_000),
                &mut rng,
            )
            .unwrap();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let sw = SignedSoftware::sign(
            "JPA",
            "4.0",
            b"job preparation agent bytecode".to_vec(),
            dev.cert.clone(),
            &dev.keypair.private,
        )
        .unwrap();
        (store, sw)
    }

    #[test]
    fn valid_software_verifies() {
        let (store, sw) = setup();
        sw.verify(&store, 100).unwrap();
    }

    #[test]
    fn tampered_payload_rejected() {
        let (store, mut sw) = setup();
        sw.payload[0] ^= 0xff;
        assert!(matches!(
            sw.verify(&store, 100),
            Err(CertError::TamperedSoftware { .. })
        ));
    }

    #[test]
    fn version_swap_rejected() {
        let (store, mut sw) = setup();
        sw.version = "3.9".into(); // rollback attempt
        assert!(sw.verify(&store, 100).is_err());
    }

    #[test]
    fn wrong_usage_cert_rejected() {
        // Sign with a user (not code-signing) certificate.
        let mut rng = CryptoRng::from_u64(61);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "FZJ", "ZAM", "UNICORE CA"),
            Validity::starting_at(0, 10_000),
            512,
            &mut rng,
        );
        let user = ca
            .issue_identity(
                DistinguishedName::new("DE", "FZJ", "ZAM", "not-a-signer"),
                KeyUsage::user(),
                Validity::starting_at(0, 1_000),
                &mut rng,
            )
            .unwrap();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let sw = SignedSoftware::sign(
            "JMC",
            "1.0",
            b"code".to_vec(),
            user.cert.clone(),
            &user.keypair.private,
        )
        .unwrap();
        assert!(matches!(
            sw.verify(&store, 100),
            Err(CertError::UsageViolation { .. })
        ));
    }

    #[test]
    fn expired_signer_rejected() {
        let (store, sw) = setup();
        assert!(sw.verify(&store, 5_000).is_err());
    }

    #[test]
    fn der_round_trip() {
        let (store, sw) = setup();
        let back = SignedSoftware::from_der(&sw.to_der()).unwrap();
        assert_eq!(back, sw);
        back.verify(&store, 100).unwrap();
    }
}
