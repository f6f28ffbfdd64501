//! # unicore-sim
//!
//! Discrete-event simulation core: a deterministic event queue with a
//! virtual microsecond clock, plus log₂ histograms and workload
//! distributions.
//!
//! The UNICORE paper was evaluated on a live deployment of six German
//! computing centres (§5.7). This crate is the substrate that lets the
//! reproduction stand in for that testbed: `unicore-simnet` models the WAN
//! links between Usites and `unicore-batch` models the vendor batch systems,
//! both driven by [`EventQueue`]s so every experiment replays exactly from
//! its seed.
//!
//! [`LogHistogram`] is the reference model that telemetry's histogram test
//! (`histogram_bucket_geometry_matches_sim`) compares its lock-free
//! histogram against.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod dist;
pub mod queue;
pub mod stats;
pub mod time;

pub use queue::{EventId, EventQueue};
pub use stats::{log2_bucket, log2_bucket_limit, LogHistogram};
pub use time::{format_time, secs, secs_f64, SimTime, HOUR, MILLI, MINUTE, SEC};
