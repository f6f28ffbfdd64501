//! Live in-process wires: message-oriented duplex channels with optional
//! fault injection.
//!
//! Where the discrete-event [`crate::topology::Network`] models *timing*,
//! these wires carry *real* bytes between real threads — the secure
//! transport's handshake and record protocol run over them unchanged, which
//! is how the E4 security benchmarks measure genuine cryptographic cost.

use crate::error::NetError;
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Maximum message size accepted by a wire (matches the transport record
/// limit with headroom).
pub const MAX_WIRE_MESSAGE: usize = 1 << 24;

/// A message-oriented, reliable-by-default duplex endpoint.
pub struct WireEnd {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    faults: Arc<Mutex<WireFaultPlan>>,
    sent: u64,
}

/// Programmable fault injection applied on the *send* side.
#[derive(Debug, Default, Clone)]
pub struct WireFaultPlan {
    /// Drop every message whose 1-based sequence number is in this list.
    pub drop_seq: Vec<u64>,
    /// Drop all messages after this many sends (simulates an outage).
    pub cut_after: Option<u64>,
    /// Flip the lowest bit of the first byte of these sequence numbers
    /// (corruption — the transport MAC must catch it).
    pub corrupt_seq: Vec<u64>,
}

/// Creates a connected pair of wire endpoints.
pub fn wire_pair() -> (WireEnd, WireEnd) {
    let (tx_ab, rx_ab) = channel();
    let (tx_ba, rx_ba) = channel();
    let a = WireEnd {
        tx: tx_ab,
        rx: rx_ba,
        faults: Arc::new(Mutex::new(WireFaultPlan::default())),
        sent: 0,
    };
    let b = WireEnd {
        tx: tx_ba,
        rx: rx_ab,
        faults: Arc::new(Mutex::new(WireFaultPlan::default())),
        sent: 0,
    };
    (a, b)
}

impl WireEnd {
    /// Installs a fault plan on this endpoint's outgoing traffic.
    pub fn set_faults(&self, plan: WireFaultPlan) {
        *self.faults.lock() = plan;
    }

    /// Sends one message.
    pub fn send(&mut self, data: &[u8]) -> Result<(), NetError> {
        if data.len() > MAX_WIRE_MESSAGE {
            return Err(NetError::MessageTooLarge {
                size: data.len(),
                max: MAX_WIRE_MESSAGE,
            });
        }
        self.sent += 1;
        let seq = self.sent;
        let mut payload = data.to_vec();
        {
            let plan = self.faults.lock();
            if let Some(cut) = plan.cut_after {
                if seq > cut {
                    return Ok(()); // silently dropped: the link is down
                }
            }
            if plan.drop_seq.contains(&seq) {
                return Ok(());
            }
            if plan.corrupt_seq.contains(&seq) {
                if let Some(first) = payload.first_mut() {
                    *first ^= 0x01;
                }
            }
        }
        self.tx.send(payload).map_err(|_| NetError::Disconnected)
    }

    /// Receives one message, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Receives one message, blocking indefinitely.
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.rx.try_recv().ok()
    }

    /// Messages sent so far (including dropped ones).
    pub fn sent_count(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_both_directions() {
        let (mut a, mut b) = wire_pair();
        a.send(b"ping").unwrap();
        assert_eq!(b.recv().unwrap(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv().unwrap(), b"pong");
    }

    #[test]
    fn messages_preserve_order() {
        let (mut a, b) = wire_pair();
        for i in 0..100u8 {
            a.send(&[i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn cross_thread_transfer() {
        let (mut a, b) = wire_pair();
        let handle = std::thread::spawn(move || {
            let m = b.recv().unwrap();
            m.len()
        });
        a.send(&vec![7u8; 4096]).unwrap();
        assert_eq!(handle.join().unwrap(), 4096);
    }

    #[test]
    fn timeout_fires() {
        let (a, _b) = wire_pair();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn disconnect_detected() {
        let (mut a, b) = wire_pair();
        drop(b);
        assert_eq!(a.send(b"x"), Err(NetError::Disconnected));
    }

    #[test]
    fn drop_fault_swallows_message() {
        let (mut a, b) = wire_pair();
        a.set_faults(WireFaultPlan {
            drop_seq: vec![2],
            ..Default::default()
        });
        a.send(b"one").unwrap();
        a.send(b"two").unwrap(); // dropped
        a.send(b"three").unwrap();
        assert_eq!(b.recv().unwrap(), b"one");
        assert_eq!(b.recv().unwrap(), b"three");
    }

    #[test]
    fn cut_after_simulates_outage() {
        let (mut a, b) = wire_pair();
        a.set_faults(WireFaultPlan {
            cut_after: Some(1),
            ..Default::default()
        });
        a.send(b"gets through").unwrap();
        a.send(b"lost").unwrap();
        a.send(b"also lost").unwrap();
        assert_eq!(b.recv().unwrap(), b"gets through");
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn corruption_flips_bit() {
        let (mut a, b) = wire_pair();
        a.set_faults(WireFaultPlan {
            corrupt_seq: vec![1],
            ..Default::default()
        });
        a.send(&[0x10, 0x20]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![0x11, 0x20]);
    }

    #[test]
    fn oversized_message_rejected() {
        let (mut a, _b) = wire_pair();
        let big = vec![0u8; MAX_WIRE_MESSAGE + 1];
        assert!(matches!(
            a.send(&big),
            Err(NetError::MessageTooLarge { .. })
        ));
    }
}
