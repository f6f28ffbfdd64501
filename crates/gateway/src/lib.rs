//! # unicore-gateway
//!
//! The UNICORE gateway — the "Java security servlet" of the paper's server
//! level (§4.2, §5.2): it maps the user's certificate (validated by the
//! transport layer) to the user's local login via the per-site UNICORE
//! user database, optionally runs site-specific additional authentication
//! (smart cards, DCE), and keeps an audit trail.
//!
//! The mapping design is what gives UNICORE its *site autonomy*: no
//! uniform uid/gid pairs across sites, no interference with local user
//! administration — each site's [`uudb::Uudb`] is independent.

//!
//! At connection scale the gateway is also the *front door*
//! ([`FrontDoor`]): resumable secure sessions, JMC poll multiplexing
//! ([`mux`]), per-DN token-bucket rate limiting ([`ratelimit`]), and
//! live CRL enforcement that kills cached sessions and in-flight
//! connections, not just new handshakes.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod front_door;
pub mod gateway;
pub mod mux;
pub mod ratelimit;
pub mod uudb;

pub use front_door::{FrontDoor, FrontDoorConn, FrontDoorError, RevocationSweep};
pub use gateway::{AuditRecord, AuthDecision, Gateway, SharedStr, SiteAuthHook};
pub use mux::{decode_frames, encode_frames, MuxFrame};
pub use ratelimit::RateLimitConfig;
pub use uudb::{MappedUser, MappingError, UserEntry, Uudb};
