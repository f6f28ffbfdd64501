//! Certificates: the to-be-signed body, key usage flags, and signature
//! verification.

use crate::dn::DistinguishedName;
use crate::error::CertError;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_crypto::bignum::BigUint;
use unicore_crypto::rsa::RsaPublicKey;

/// What a certificate's key is allowed to do.
///
/// UNICORE distinguishes user certificates (client auth), server
/// certificates (server auth), CA certificates (cert signing) and software
/// signing certificates for the applets (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyUsage {
    /// May sign other certificates and CRLs (CA certificates).
    pub cert_sign: bool,
    /// May authenticate as a server (gateway / NJS endpoints).
    pub server_auth: bool,
    /// May authenticate as a client (users, peer NJS in client role).
    pub client_auth: bool,
    /// May sign software bundles (applet signing).
    pub code_sign: bool,
}

impl KeyUsage {
    /// Usage profile for a CA.
    pub fn ca() -> Self {
        KeyUsage {
            cert_sign: true,
            ..Default::default()
        }
    }

    /// Usage profile for a UNICORE user.
    pub fn user() -> Self {
        KeyUsage {
            client_auth: true,
            ..Default::default()
        }
    }

    /// Usage profile for a UNICORE server (gateway; also acts as a client
    /// towards peer sites, mirroring NJS's dual role in the protocol).
    pub fn server() -> Self {
        KeyUsage {
            server_auth: true,
            client_auth: true,
            ..Default::default()
        }
    }

    /// Usage profile for software (applet) signing.
    pub fn software() -> Self {
        KeyUsage {
            code_sign: true,
            ..Default::default()
        }
    }

    fn bits(&self) -> u32 {
        (self.cert_sign as u32)
            | (self.server_auth as u32) << 1
            | (self.client_auth as u32) << 2
            | (self.code_sign as u32) << 3
    }

    fn from_bits(bits: u32) -> Result<Self, CodecError> {
        if bits >= 16 {
            return Err(CodecError::BadValue("unknown key usage bits"));
        }
        Ok(KeyUsage {
            cert_sign: bits & 1 != 0,
            server_auth: bits & 2 != 0,
            client_auth: bits & 4 != 0,
            code_sign: bits & 8 != 0,
        })
    }
}

/// Inclusive validity window in simulation seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    /// First instant (seconds) at which the certificate is valid.
    pub not_before: u64,
    /// Last instant (seconds) at which the certificate is valid.
    pub not_after: u64,
}

impl Validity {
    /// A window `[start, start + duration]`.
    pub fn starting_at(start: u64, duration: u64) -> Self {
        Validity {
            not_before: start,
            not_after: start.saturating_add(duration),
        }
    }

    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// The signed body of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    /// Serial number, unique per issuer.
    pub serial: u64,
    /// Issuer DN.
    pub issuer: DistinguishedName,
    /// Subject DN.
    pub subject: DistinguishedName,
    /// Validity window.
    pub validity: Validity,
    /// Subject's RSA public key.
    pub public_key: RsaPublicKey,
    /// Permitted key usages.
    pub usage: KeyUsage,
}

/// A certificate: TBS body plus the issuer's RSA signature over the body's
/// canonical DER encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The signed body.
    pub tbs: TbsCertificate,
    /// Issuer's signature over `tbs.to_der()`.
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Verifies the signature with the purported issuer's public key.
    ///
    /// This checks the signature only; chain building, validity windows,
    /// usage and revocation live in [`crate::chain`].
    pub fn verify_signature(&self, issuer_key: &RsaPublicKey) -> Result<(), CertError> {
        issuer_key
            .verify(&self.tbs.to_der(), &self.signature)
            .map_err(|_| CertError::BadSignature {
                subject: self.tbs.subject.to_string(),
            })
    }

    /// True when this certificate is self-signed (issuer == subject) and the
    /// signature verifies under its own key.
    pub fn is_self_signed(&self) -> bool {
        self.tbs.issuer == self.tbs.subject && self.verify_signature(&self.tbs.public_key).is_ok()
    }

    /// Stable short fingerprint (hex SHA-256 prefix of the DER encoding).
    pub fn fingerprint(&self) -> String {
        let digest = unicore_crypto::sha256(&self.to_der());
        digest[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Reads an unsigned big integer carried as OCTET STRING: big-endian with
/// no leading zero octet, the one form `to_bytes_be` writes.
fn read_biguint(r: &mut DerReader<'_>) -> Result<BigUint, CodecError> {
    let bytes = r.next_bytes()?;
    if bytes.first() == Some(&0) {
        return Err(CodecError::BadValue("leading zero in big integer"));
    }
    Ok(BigUint::from_bytes_be(bytes))
}

impl DerCodec for TbsCertificate {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            w.u64(self.serial);
            self.issuer.write_der(w);
            self.subject.write_der(w);
            w.u64(self.validity.not_before);
            w.u64(self.validity.not_after);
            w.bytes(&self.public_key.n.to_bytes_be());
            w.bytes(&self.public_key.e.to_bytes_be());
            w.enumerated(self.usage.bits());
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("TbsCertificate", |f| {
            Ok(TbsCertificate {
                serial: f.next_u64()?,
                issuer: DistinguishedName::read_der(f)?,
                subject: DistinguishedName::read_der(f)?,
                validity: Validity {
                    not_before: f.next_u64()?,
                    not_after: f.next_u64()?,
                },
                public_key: RsaPublicKey {
                    n: read_biguint(f)?,
                    e: read_biguint(f)?,
                },
                usage: KeyUsage::from_bits(f.next_enum()?)?,
            })
        })
    }
}

impl DerCodec for Certificate {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.tbs.write_der(w);
            w.bytes(&self.signature);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("Certificate", |f| {
            Ok(Certificate {
                tbs: TbsCertificate::read_der(f)?,
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

    fn dn(cn: &str) -> DistinguishedName {
        DistinguishedName::new("DE", "FZJ", "ZAM", cn)
    }

    fn make_cert(signer: &RsaKeyPair, subject_key: &RsaPublicKey) -> Certificate {
        let tbs = TbsCertificate {
            serial: 7,
            issuer: dn("UNICORE CA"),
            subject: dn("user1"),
            validity: Validity::starting_at(100, 1000),
            public_key: subject_key.clone(),
            usage: KeyUsage::user(),
        };
        let signature = signer.private.sign(&tbs.to_der()).unwrap();
        Certificate { tbs, signature }
    }

    #[test]
    fn key_usage_bits_round_trip() {
        for usage in [
            KeyUsage::ca(),
            KeyUsage::user(),
            KeyUsage::server(),
            KeyUsage::software(),
            KeyUsage::default(),
        ] {
            assert_eq!(KeyUsage::from_bits(usage.bits()), Ok(usage));
        }
    }

    #[test]
    fn key_and_usage_have_one_spelling() {
        use unicore_codec::{decode, encode, Value};
        let kp = RsaKeyPair::generate(512, &mut CryptoRng::from_u64(11));
        let tbs = make_cert(&kp, &kp.public).tbs;
        let Value::Sequence(fields) = decode(&tbs.to_der()).unwrap() else {
            unreachable!()
        };
        // Field 5 is the modulus, field 7 the usage bits.
        let mut padded = fields.clone();
        let Value::OctetString(n) = &mut padded[5] else {
            unreachable!()
        };
        n.insert(0, 0);
        assert!(TbsCertificate::from_der(&encode(&Value::Sequence(padded))).is_err());
        let mut unknown_bit = fields;
        unknown_bit[7] = Value::Enumerated(16);
        assert!(TbsCertificate::from_der(&encode(&Value::Sequence(unknown_bit))).is_err());
    }

    #[test]
    fn validity_window() {
        let v = Validity::starting_at(10, 5);
        assert!(!v.contains(9));
        assert!(v.contains(10));
        assert!(v.contains(15));
        assert!(!v.contains(16));
    }

    #[test]
    fn signature_verifies_with_issuer_key() {
        let mut rng = CryptoRng::from_u64(1);
        let ca = RsaKeyPair::generate(512, &mut rng);
        let user = RsaKeyPair::generate(512, &mut rng);
        let cert = make_cert(&ca, &user.public);
        cert.verify_signature(&ca.public).unwrap();
    }

    #[test]
    fn signature_fails_with_wrong_key() {
        let mut rng = CryptoRng::from_u64(2);
        let ca = RsaKeyPair::generate(512, &mut rng);
        let other = RsaKeyPair::generate(512, &mut rng);
        let user = RsaKeyPair::generate(512, &mut rng);
        let cert = make_cert(&ca, &user.public);
        assert!(matches!(
            cert.verify_signature(&other.public),
            Err(CertError::BadSignature { .. })
        ));
    }

    #[test]
    fn tampered_body_fails() {
        let mut rng = CryptoRng::from_u64(3);
        let ca = RsaKeyPair::generate(512, &mut rng);
        let user = RsaKeyPair::generate(512, &mut rng);
        let mut cert = make_cert(&ca, &user.public);
        cert.tbs.subject = dn("mallory");
        assert!(cert.verify_signature(&ca.public).is_err());
    }

    #[test]
    fn der_round_trip() {
        let mut rng = CryptoRng::from_u64(4);
        let ca = RsaKeyPair::generate(512, &mut rng);
        let user = RsaKeyPair::generate(512, &mut rng);
        let cert = make_cert(&ca, &user.public);
        let back = Certificate::from_der(&cert.to_der()).unwrap();
        assert_eq!(back, cert);
        back.verify_signature(&ca.public).unwrap();
    }

    #[test]
    fn fingerprint_stable_and_distinct() {
        let mut rng = CryptoRng::from_u64(5);
        let ca = RsaKeyPair::generate(512, &mut rng);
        let u1 = RsaKeyPair::generate(512, &mut rng);
        let cert1 = make_cert(&ca, &u1.public);
        let mut cert2 = cert1.clone();
        cert2.tbs.serial = 8;
        assert_eq!(cert1.fingerprint(), cert1.fingerprint());
        assert_ne!(cert1.fingerprint(), cert2.fingerprint());
        assert_eq!(cert1.fingerprint().len(), 16);
    }
}
