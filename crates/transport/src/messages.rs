//! Handshake message encoding (DER, via `unicore-codec`).

use crate::error::TransportError;
use crate::ticket::ResumptionTicket;
use unicore_certs::Certificate;
use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// Length of hello randoms.
pub const RANDOM_LEN: usize = 32;

/// The handshake messages of the UNICORE secure transport.
///
/// The flow mirrors SSL with mutual authentication (paper §4.1): the server
/// presents its certificate first, then the client presents its own —
/// "during the SSL handshake ... the server first presents its X.509
/// certificate to the browser in order to be validated. Then the user's
/// certificate is given to the Web server for user authentication."
#[derive(Debug, Clone, PartialEq)]
pub enum HandshakeMessage {
    /// Client opens, optionally offering a session for resumption.
    ClientHello {
        /// Fresh client randomness.
        random: Vec<u8>,
        /// Session id to resume, if any.
        session_id: Option<Vec<u8>>,
        /// Resumption ticket proving the right to resume `session_id`.
        /// A session-id offer without a valid ticket gets a full
        /// handshake.
        ticket: Option<ResumptionTicket>,
    },
    /// Server replies with identity and key-agreement material.
    ServerHello {
        /// Fresh server randomness.
        random: Vec<u8>,
        /// Session id assigned (or confirmed, when resuming).
        session_id: Vec<u8>,
        /// True when the offered session was accepted (abbreviated flow).
        resumed: bool,
        /// Server certificate chain (end entity first); empty when resumed.
        cert_chain: Vec<Certificate>,
        /// Server's ephemeral DH public value; empty when resumed.
        dh_public: Vec<u8>,
        /// Signature over the transcript + DH value; empty when resumed.
        signature: Vec<u8>,
    },
    /// Client authenticates (full handshake only).
    ClientAuth {
        /// Client certificate chain (end entity first).
        cert_chain: Vec<Certificate>,
        /// Client's ephemeral DH public value.
        dh_public: Vec<u8>,
        /// Signature over the transcript so far.
        signature: Vec<u8>,
    },
    /// Key-confirmation MAC over the full transcript.
    Finished {
        /// `HMAC(master, transcript || role-label)`.
        verify_data: Vec<u8>,
    },
    /// Fatal failure notice.
    Alert {
        /// Human-readable reason.
        reason: String,
    },
}

impl HandshakeMessage {
    /// Serialises the message for the wire.
    pub fn encode(&self) -> Vec<u8> {
        self.to_der()
    }

    /// Parses a wire message.
    pub fn decode(bytes: &[u8]) -> Result<Self, TransportError> {
        Self::from_der(bytes).map_err(|_| TransportError::BadMessage("handshake decode"))
    }
}

fn write_chain(w: &mut DerWriter, chain: &[Certificate]) {
    w.sequence_of(chain, |w, c| c.write_der(w));
}

fn read_chain(r: &mut DerReader<'_>) -> Result<Vec<Certificate>, CodecError> {
    r.sequence_of("certificate chain", Certificate::read_der)
}

impl DerCodec for HandshakeMessage {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| match self {
            HandshakeMessage::ClientHello {
                random,
                session_id,
                ticket,
            } => {
                w.enumerated(1);
                w.bytes(random);
                if let Some(sid) = session_id {
                    w.tagged(0, |w| w.bytes(sid));
                }
                if let Some(t) = ticket {
                    w.tagged(1, |w| t.write_der(w));
                }
            }
            HandshakeMessage::ServerHello {
                random,
                session_id,
                resumed,
                cert_chain,
                dh_public,
                signature,
            } => {
                w.enumerated(2);
                w.bytes(random);
                w.bytes(session_id);
                w.bool(*resumed);
                write_chain(w, cert_chain);
                w.bytes(dh_public);
                w.bytes(signature);
            }
            HandshakeMessage::ClientAuth {
                cert_chain,
                dh_public,
                signature,
            } => {
                w.enumerated(3);
                write_chain(w, cert_chain);
                w.bytes(dh_public);
                w.bytes(signature);
            }
            HandshakeMessage::Finished { verify_data } => {
                w.enumerated(4);
                w.bytes(verify_data);
            }
            HandshakeMessage::Alert { reason } => {
                w.enumerated(5);
                w.str(reason);
            }
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("HandshakeMessage", |f| match f.next_enum()? {
            1 => Ok(HandshakeMessage::ClientHello {
                random: f.next_bytes()?.to_vec(),
                session_id: f.optional_tagged(0, |t| Ok(t.next_bytes()?.to_vec()))?,
                ticket: f.optional_tagged(1, ResumptionTicket::read_der)?,
            }),
            2 => Ok(HandshakeMessage::ServerHello {
                random: f.next_bytes()?.to_vec(),
                session_id: f.next_bytes()?.to_vec(),
                resumed: f.next_bool()?,
                cert_chain: read_chain(f)?,
                dh_public: f.next_bytes()?.to_vec(),
                signature: f.next_bytes()?.to_vec(),
            }),
            3 => Ok(HandshakeMessage::ClientAuth {
                cert_chain: read_chain(f)?,
                dh_public: f.next_bytes()?.to_vec(),
                signature: f.next_bytes()?.to_vec(),
            }),
            4 => Ok(HandshakeMessage::Finished {
                verify_data: f.next_bytes()?.to_vec(),
            }),
            5 => Ok(HandshakeMessage::Alert {
                reason: f.next_string()?,
            }),
            _ => Err(CodecError::BadValue("handshake message kind")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicore_certs::{CertificateAuthority, DistinguishedName, KeyUsage, Validity};
    use unicore_codec::Value;
    use unicore_crypto::CryptoRng;

    fn sample_cert() -> Certificate {
        let mut rng = CryptoRng::from_u64(70);
        let mut ca = CertificateAuthority::new_root(
            DistinguishedName::new("DE", "FZJ", "ZAM", "CA"),
            Validity::starting_at(0, 1000),
            512,
            &mut rng,
        );
        ca.issue_identity(
            DistinguishedName::new("DE", "FZJ", "ZAM", "srv"),
            KeyUsage::server(),
            Validity::starting_at(0, 100),
            &mut rng,
        )
        .unwrap()
        .cert
    }

    #[test]
    fn client_hello_round_trip() {
        for session_id in [None, Some(vec![1u8, 2, 3])] {
            let m = HandshakeMessage::ClientHello {
                random: vec![7u8; RANDOM_LEN],
                session_id,
                ticket: None,
            };
            assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
        }
    }

    #[test]
    fn client_hello_with_ticket_round_trip() {
        let ticket = ResumptionTicket::mint(b"master", &[1, 2, 3], "ab12cd34ef56ab78", 5, 600, 1);
        let m = HandshakeMessage::ClientHello {
            random: vec![7u8; RANDOM_LEN],
            session_id: Some(vec![1, 2, 3]),
            ticket: Some(ticket),
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn server_hello_round_trip() {
        let m = HandshakeMessage::ServerHello {
            random: vec![9u8; RANDOM_LEN],
            session_id: vec![4, 5],
            resumed: false,
            cert_chain: vec![sample_cert()],
            dh_public: vec![1; 128],
            signature: vec![2; 64],
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn resumed_server_hello_round_trip() {
        let m = HandshakeMessage::ServerHello {
            random: vec![1u8; RANDOM_LEN],
            session_id: vec![4, 5],
            resumed: true,
            cert_chain: vec![],
            dh_public: vec![],
            signature: vec![],
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn client_auth_round_trip() {
        let m = HandshakeMessage::ClientAuth {
            cert_chain: vec![sample_cert(), sample_cert()],
            dh_public: vec![3; 128],
            signature: vec![4; 64],
        };
        assert_eq!(HandshakeMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn finished_and_alert_round_trip() {
        let f = HandshakeMessage::Finished {
            verify_data: vec![6; 32],
        };
        assert_eq!(HandshakeMessage::decode(&f.encode()).unwrap(), f);
        let a = HandshakeMessage::Alert {
            reason: "bad certificate".into(),
        };
        assert_eq!(HandshakeMessage::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn garbage_rejected() {
        assert!(HandshakeMessage::decode(b"not der at all").is_err());
        assert!(HandshakeMessage::decode(&[]).is_err());
        // Valid DER, wrong shape.
        let v = Value::Sequence(vec![Value::Enumerated(99)]);
        assert!(HandshakeMessage::decode(&unicore_codec::encode(&v)).is_err());
    }
}
