//! # unicore-transport
//!
//! The SSL-style secure transport of the UNICORE reproduction: an
//! authenticated, encrypted, ordered message channel with mutual X.509-style
//! certificate authentication and session resumption.
//!
//! The paper's security architecture (§4.1, §5.2) rests on https: "During
//! the SSL handshake between the UNICORE server and the user's Web browser
//! the server first presents its X.509 certificate to the browser in order
//! to be validated. Then the user's certificate is given to the Web server
//! for user authentication." This crate reproduces that flow on its own
//! primitives: ephemeral Diffie-Hellman key agreement authenticated by RSA
//! certificate signatures, HKDF key derivation, and a ChaCha20 +
//! HMAC-SHA256 record layer with strict sequence numbers.
//!
//! - [`messages`] — DER-encoded handshake messages
//! - [`handshake`] — full and abbreviated (resumed) flows
//! - [`ticket`] — HMAC-bound resumption tickets (TTL + epoch)
//! - [`record`] — MAC-then-encrypt record protection, with batched frames
//! - [`session`] — session cache for resumption
//! - [`channel`] — the established [`SecureChannel`]

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod channel;
pub mod error;
pub mod handshake;
pub mod messages;
pub mod record;
pub mod session;
pub mod ticket;

pub use channel::SecureChannel;
pub use error::TransportError;
pub use handshake::{client_handshake, server_handshake, Endpoint, DEFAULT_TICKET_TTL};
pub use messages::HandshakeMessage;
pub use record::{RecordKeys, RecordType};
pub use session::{CachedSession, SessionCache};
pub use ticket::{ResumptionTicket, TicketReject};
