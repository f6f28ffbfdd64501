//! Resumption tickets: the proof a client holds that lets it skip the
//! RSA/DH work on reconnect.
//!
//! A ticket is minted by the server at handshake completion and rotated
//! on every resumption. It is *not* a bearer secret: its binder is an
//! HMAC keyed by the negotiated master secret over the session id, the
//! client certificate's fingerprint, the issue time, the TTL, and the
//! server's cache epoch. A peer that does not hold the master secret
//! cannot forge one, and a stolen ticket is useless without the master
//! it is bound to. The server validates the binder against its own
//! cached session before granting the abbreviated flow; any mismatch —
//! tampered bytes, expired window, stale epoch, different certificate —
//! silently falls back to the full handshake.

use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};
use unicore_crypto::ct::ct_eq;
use unicore_crypto::hmac::hmac_sha256;

/// Why a ticket offer was refused (full-handshake fallback follows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketReject {
    /// The binder HMAC does not verify under the cached master secret.
    BadBinder,
    /// The ticket's validity window does not contain the evaluation time.
    Expired,
    /// The ticket was minted under an older cache epoch (a revocation or
    /// administrative flush has happened since).
    StaleEpoch,
    /// The certificate fingerprint does not match the cached session's
    /// authenticated peer.
    WrongCertificate,
}

impl core::fmt::Display for TicketReject {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            TicketReject::BadBinder => "binder HMAC mismatch",
            TicketReject::Expired => "outside validity window",
            TicketReject::StaleEpoch => "stale cache epoch",
            TicketReject::WrongCertificate => "certificate fingerprint mismatch",
        };
        f.write_str(s)
    }
}

/// A session-resumption ticket (see module docs for the trust model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumptionTicket {
    /// The cached session this ticket resumes.
    pub session_id: Vec<u8>,
    /// Fingerprint of the authenticated client certificate the session
    /// was established under ([`unicore_certs::Certificate::fingerprint`]).
    pub fingerprint: String,
    /// Mint time (simulation seconds).
    pub issued_at: u64,
    /// Lifetime in seconds; the ticket is valid while
    /// `issued_at <= now < issued_at + ttl`.
    pub ttl: u64,
    /// Server cache epoch at mint time; a bumped epoch (revocation,
    /// administrative flush) invalidates every outstanding ticket.
    pub epoch: u64,
    /// `HMAC-SHA256(master, body DER)` over all fields above.
    pub binder: Vec<u8>,
}

impl ResumptionTicket {
    /// The fields the binder covers, in wire order.
    fn write_body(&self, w: &mut DerWriter) {
        w.bytes(&self.session_id);
        w.str(&self.fingerprint);
        w.u64(self.issued_at);
        w.u64(self.ttl);
        w.u64(self.epoch);
    }

    /// The unsigned body, DER-encoded — the exact bytes the binder MACs.
    fn body_der(&self) -> Vec<u8> {
        let mut w = DerWriter::new();
        w.sequence(|w| self.write_body(w));
        w.into_vec()
    }

    /// Mints a ticket bound to `master` for the session/certificate pair.
    pub fn mint(
        master: &[u8],
        session_id: &[u8],
        fingerprint: &str,
        issued_at: u64,
        ttl: u64,
        epoch: u64,
    ) -> Self {
        let mut t = ResumptionTicket {
            session_id: session_id.to_vec(),
            fingerprint: fingerprint.to_owned(),
            issued_at,
            ttl,
            epoch,
            binder: Vec::new(),
        };
        t.binder = hmac_sha256(master, &t.body_der()).to_vec();
        t
    }

    /// Validates the ticket against the cached session's `master` and
    /// authenticated `fingerprint` at time `now` under the cache's
    /// current `epoch`. The binder is checked first (constant-time), so
    /// a forged ticket learns nothing from the error it gets back.
    pub fn verify(
        &self,
        master: &[u8],
        fingerprint: &str,
        now: u64,
        epoch: u64,
    ) -> Result<(), TicketReject> {
        let expect = hmac_sha256(master, &self.body_der());
        if !ct_eq(&expect, &self.binder) {
            return Err(TicketReject::BadBinder);
        }
        if self.fingerprint != fingerprint {
            return Err(TicketReject::WrongCertificate);
        }
        if self.epoch != epoch {
            return Err(TicketReject::StaleEpoch);
        }
        let end = self.issued_at.saturating_add(self.ttl);
        if now < self.issued_at || now >= end {
            return Err(TicketReject::Expired);
        }
        Ok(())
    }

    /// Whether the validity window contains `now` (no crypto; used by
    /// clients deciding whether an offer is worth making).
    pub fn usable_at(&self, now: u64) -> bool {
        now >= self.issued_at && now < self.issued_at.saturating_add(self.ttl)
    }
}

impl DerCodec for ResumptionTicket {
    fn write_der(&self, w: &mut DerWriter) {
        w.sequence(|w| {
            self.write_body(w);
            w.bytes(&self.binder);
        });
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        r.sequence("ResumptionTicket", |f| {
            Ok(ResumptionTicket {
                session_id: f.next_bytes()?.to_vec(),
                fingerprint: f.next_string()?,
                issued_at: f.next_u64()?,
                ttl: f.next_u64()?,
                epoch: f.next_u64()?,
                binder: f.next_bytes()?.to_vec(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MASTER: &[u8] = b"a negotiated master secret";

    fn ticket() -> ResumptionTicket {
        ResumptionTicket::mint(MASTER, &[1, 2, 3], "abcdef0123456789", 100, 600, 2)
    }

    #[test]
    fn mint_verify_round_trip() {
        let t = ticket();
        t.verify(MASTER, "abcdef0123456789", 100, 2).unwrap();
        t.verify(MASTER, "abcdef0123456789", 699, 2).unwrap();
    }

    #[test]
    fn der_round_trip() {
        let t = ticket();
        let back = ResumptionTicket::from_der(&t.to_der()).unwrap();
        assert_eq!(back, t);
        back.verify(MASTER, "abcdef0123456789", 150, 2).unwrap();
    }

    #[test]
    fn expiry_is_half_open() {
        let t = ticket();
        // Valid right up to the boundary, invalid exactly at it.
        assert!(t.usable_at(699));
        assert!(!t.usable_at(700));
        assert_eq!(
            t.verify(MASTER, "abcdef0123456789", 700, 2),
            Err(TicketReject::Expired)
        );
        // Before issue is also outside the window.
        assert_eq!(
            t.verify(MASTER, "abcdef0123456789", 99, 2),
            Err(TicketReject::Expired)
        );
    }

    #[test]
    fn wrong_master_rejected() {
        let t = ticket();
        assert_eq!(
            t.verify(b"other master", "abcdef0123456789", 150, 2),
            Err(TicketReject::BadBinder)
        );
    }

    #[test]
    fn tampered_fields_rejected() {
        let mut t = ticket();
        t.ttl += 1; // extend lifetime without re-MACing
        assert_eq!(
            t.verify(MASTER, "abcdef0123456789", 150, 2),
            Err(TicketReject::BadBinder)
        );
        let mut t = ticket();
        t.epoch = 3;
        assert_eq!(
            t.verify(MASTER, "abcdef0123456789", 150, 3),
            Err(TicketReject::BadBinder)
        );
    }

    #[test]
    fn epoch_and_fingerprint_enforced() {
        let t = ticket();
        assert_eq!(
            t.verify(MASTER, "abcdef0123456789", 150, 3),
            Err(TicketReject::StaleEpoch)
        );
        assert_eq!(
            t.verify(MASTER, "0000000000000000", 150, 2),
            Err(TicketReject::WrongCertificate)
        );
    }
}
