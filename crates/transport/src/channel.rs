//! The established secure channel.

use crate::error::TransportError;
use crate::record::{RecordKeys, RecordType};
use std::time::Duration;
use unicore_certs::{Certificate, ValidatedCertificate};
use unicore_simnet::WireEnd;
use unicore_telemetry::{Counter, Telemetry};

/// An authenticated, encrypted, ordered message channel.
///
/// Produced by [`crate::handshake::client_handshake`] /
/// [`crate::handshake::server_handshake`]; both ends then exchange
/// arbitrary application messages (AJOs, outcomes, file data).
pub struct SecureChannel {
    wire: WireEnd,
    tx: RecordKeys,
    rx: RecordKeys,
    peer: ValidatedCertificate,
    resumed: bool,
    session_id: Vec<u8>,
    closed: bool,
    sealed: Counter,
    opened: Counter,
    /// Scratch for outgoing records: one buffer serves every send.
    seal_buf: Vec<u8>,
    /// Scratch for incoming payloads read in place (batches, handshake
    /// messages): one buffer serves every such receive.
    open_buf: Vec<u8>,
}

impl SecureChannel {
    pub(crate) fn new(
        wire: WireEnd,
        c2s: RecordKeys,
        s2c: RecordKeys,
        peer: ValidatedCertificate,
        resumed: bool,
        session_id: Vec<u8>,
        is_client: bool,
    ) -> Self {
        let (tx, rx) = if is_client { (c2s, s2c) } else { (s2c, c2s) };
        SecureChannel {
            wire,
            tx,
            rx,
            peer,
            resumed,
            session_id,
            closed: false,
            sealed: Counter::detached(),
            opened: Counter::detached(),
            seal_buf: Vec::new(),
            open_buf: Vec::new(),
        }
    }

    /// Wires the record-layer counters (`transport.records.sealed` /
    /// `transport.records.opened`) into `telemetry`'s registry. The
    /// handshake calls this with the endpoint's handle.
    pub(crate) fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.sealed = telemetry.counter("transport.records.sealed");
        self.opened = telemetry.counter("transport.records.opened");
    }

    /// The peer's authenticated end-entity certificate.
    pub fn peer(&self) -> &Certificate {
        self.peer.certificate()
    }

    /// Whether this connection resumed a cached session.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The session id (usable for later resumption).
    pub fn session_id(&self) -> &[u8] {
        &self.session_id
    }

    /// Sends an application message.
    pub fn send(&mut self, data: &[u8]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        self.tx
            .seal_into(RecordType::Data, data, &mut self.seal_buf);
        self.sealed.inc();
        self.wire.send(&self.seal_buf)?;
        Ok(())
    }

    /// Sends many application frames in one batched record — one
    /// sequence number, one ChaCha20 pass, one HMAC for the whole batch.
    /// The receiver gets them back intact from
    /// [`recv_frames`](Self::recv_frames).
    pub fn send_frames(&mut self, frames: &[&[u8]]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        self.tx.seal_frames_into(frames, &mut self.seal_buf);
        self.sealed.inc();
        self.wire.send(&self.seal_buf)?;
        Ok(())
    }

    /// Receives one record's worth of application frames: a batched
    /// record yields every frame it carries; a plain data record yields
    /// a single frame. Peer alerts close the channel as in
    /// [`recv`](Self::recv).
    pub fn recv_frames(&mut self, timeout: Duration) -> Result<Vec<Vec<u8>>, TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let raw = self.wire.recv_timeout(timeout)?;
        let rtype = self.rx.open_into(&raw, &mut self.open_buf)?;
        self.opened.inc();
        match rtype {
            RecordType::Batch => RecordKeys::split_frames(&self.open_buf),
            // The one frame is the whole payload: hand the buffer over.
            RecordType::Data => Ok(vec![std::mem::take(&mut self.open_buf)]),
            RecordType::Alert => {
                self.closed = true;
                Err(TransportError::PeerAlert(
                    String::from_utf8_lossy(&self.open_buf).into_owned(),
                ))
            }
            RecordType::Handshake => Err(TransportError::Protocol("handshake after establishment")),
        }
    }

    /// Receives an application message, waiting up to `timeout`.
    pub fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let mut buf = Vec::new();
        self.recv_into(timeout, &mut buf)?;
        Ok(buf)
    }

    /// [`recv`](Self::recv) into a caller-owned buffer (cleared first) —
    /// loops receiving many messages amortise one allocation.
    pub fn recv_into(
        &mut self,
        timeout: Duration,
        buf: &mut Vec<u8>,
    ) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        let raw = self.wire.recv_timeout(timeout)?;
        let rtype = self.rx.open_into(&raw, buf)?;
        self.opened.inc();
        match rtype {
            RecordType::Data => Ok(()),
            RecordType::Batch => Err(TransportError::Protocol(
                "batched record on plain recv (use recv_frames)",
            )),
            RecordType::Alert => {
                self.closed = true;
                Err(TransportError::PeerAlert(
                    String::from_utf8_lossy(buf).into_owned(),
                ))
            }
            RecordType::Handshake => Err(TransportError::Protocol("handshake after establishment")),
        }
    }

    /// Closes the channel, notifying the peer with an alert.
    pub fn close(&mut self) {
        if !self.closed {
            self.tx
                .seal_into(RecordType::Alert, b"close", &mut self.seal_buf);
            let _ = self.wire.send(&self.seal_buf);
            self.closed = true;
        }
    }

    /// True once closed locally or by a peer alert.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Injects a fault plan on the underlying wire (test hook).
    pub fn wire_mut(&mut self) -> &mut WireEnd {
        &mut self.wire
    }

    pub(crate) fn send_handshake(&mut self, data: &[u8]) -> Result<(), TransportError> {
        self.tx
            .seal_into(RecordType::Handshake, data, &mut self.seal_buf);
        self.sealed.inc();
        self.wire.send(&self.seal_buf)?;
        Ok(())
    }

    /// The next record's payload, borrowed from the channel's buffer
    /// until the next receive.
    pub(crate) fn recv_handshake(&mut self, timeout: Duration) -> Result<&[u8], TransportError> {
        let raw = self.wire.recv_timeout(timeout)?;
        let rtype = self.rx.open_into(&raw, &mut self.open_buf)?;
        self.opened.inc();
        match rtype {
            RecordType::Handshake => Ok(&self.open_buf),
            _ => Err(TransportError::Protocol("expected handshake record")),
        }
    }
}
