//! The six workloads. Names are fixed; later issues refer to them.

pub mod churn_poll;
pub mod core_step;
pub mod crash_recover;
pub mod fed_burst;
pub mod live_consign;
pub mod transfer_stream;

mod fed;
mod site;
mod wire;
