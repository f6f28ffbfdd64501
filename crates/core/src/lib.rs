//! # unicore
//!
//! The UNICORE architecture, reproduced: a three-tier system giving
//! seamless, secure access to heterogeneous supercomputing resources.
//!
//! This crate is the façade over the workspace's subsystem crates:
//!
//! - [`protocol`] — the high-level asynchronous protocol (§5.3): DER
//!   envelopes carrying consign/poll/control/list/fetch requests between
//!   JPA/JMC and NJS, and consign-sub-job / deliver-outcome / push-file
//!   requests between peer NJSs.
//! - [`server`] — [`server::UnicoreServer`]: one Usite's gateway + NJS +
//!   resource pages (Figure 1's middle tier).
//! - [`federation`] — [`federation::Federation`]: multiple servers over a
//!   simulated WAN (Figure 2), with the asynchronous retry protocol and a
//!   synchronous strawman for the E8 ablation.
//! - [`link`] — what one network message of the federation is: a record
//!   of every envelope one node wrote for one peer in one tick.
//! - `reliability` (private) — sequence stamps, retry timers, circuit
//!   breakers and the at-most-once reply cache between the two.
//! - [`grid`] — the aggregation plane (E17) and its relay.
//!
//! The live security path (real mutual-auth handshake, encrypted records)
//! lives in `unicore-transport` and is exercised by the security example
//! and the E4 benchmarks; the federation charges the handshake's wire cost
//! in simulated time while job routing, translation, staging and batch
//! execution all run for real.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod federation;
pub mod grid;
pub mod link;
pub mod protocol;
mod reliability;
pub mod server;

pub use config::{SiteConfig, VsiteConfig};
pub use federation::{Federation, FederationConfig, SiteSpec, GATEWAY_PORT};
pub use grid::{AggregationTree, GridPush, PlaneNode};
pub use protocol::{list_jobs_of, outcome_of, Body, Envelope, Request, Response};
pub use server::{OutboundRequest, UnicoreServer};

// Re-export the subsystem crates so downstream users need only `unicore`.
pub use unicore_ajo as ajo;
pub use unicore_batch as batch;
pub use unicore_broker as broker;
pub use unicore_certs as certs;
pub use unicore_codec as codec;
pub use unicore_crypto as crypto;
pub use unicore_gateway as gateway;
pub use unicore_njs as njs;
pub use unicore_resources as resources;
pub use unicore_sim as sim;
pub use unicore_simnet as simnet;
pub use unicore_transport as transport;
pub use unicore_uspace as uspace;
