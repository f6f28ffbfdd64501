//! # unicore-client
//!
//! The user level of the UNICORE architecture: the engines of the two
//! signed applets of §5.2 —
//!
//! - [`jpa`] — the Job Preparation Agent: fluent construction of AJOs with
//!   dependency wiring, portfolio handling for workstation files, and
//!   pre-submission checks against the destination's resource pages.
//! - [`jmc`] — the Job Monitor Controller: colour-coded status trees at
//!   selectable detail, output listing/saving, and failure lookup.
//!
//! The applet GUIs were presentation; the seamlessness property lives in
//! the AJOs the JPA emits, which these APIs build faithfully.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

pub mod jmc;
pub mod jpa;
pub mod monitor;

pub use jmc::{
    collect_outputs, first_failure, render, render_offers, status_rows, PollBook, StatusRow,
    TaskOutput,
};
pub use jpa::{JobBuilder, JobPreparationAgent, JpaError, PlacementView};
pub use monitor::{render_flight, render_grid};
