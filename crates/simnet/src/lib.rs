//! # unicore-simnet
//!
//! Network substrate for the UNICORE reproduction, in two complementary
//! halves:
//!
//! - [`topology`] — a discrete-event WAN simulator (latency, bandwidth,
//!   FIFO link serialisation, Bernoulli loss, jitter, per-node firewalls)
//!   used to reproduce the *timing* behaviour of the 1999 deployment.
//! - [`faults`] — seeded, replayable fault schedules for the topology
//!   half: per-link drop/duplicate/reorder windows plus site-level
//!   partition and crash-restart directives, all drawn from a dedicated
//!   RNG so a faulted run replays byte-for-byte.
//! - [`wire`] — live in-process duplex channels with programmable fault
//!   injection, over which the real `unicore-transport` handshake and
//!   record protocol run byte-for-byte.
//! - [`germany`] — the six sites of the paper's §5.7 status report (FZJ,
//!   RUS, RUKA, LRZ, ZIB, DWD) and their B-WiN-era WAN latencies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod faults;
pub mod germany;
pub mod gridgen;
pub mod topology;
pub mod wire;

pub use error::NetError;
pub use faults::{CrashWindow, FaultKind, FaultPlan, LinkFault, PartitionWindow};
pub use germany::{inter_site_latency, SITE_NAMES};
pub use gridgen::{synthetic_latency, synthetic_site_names};
pub use topology::{Firewall, LinkParams, LinkStats, Message, Network, NodeId};
pub use wire::{wire_pair, WireEnd, WireFaultPlan, MAX_WIRE_MESSAGE};
