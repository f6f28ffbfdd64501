//! Simulated time.
//!
//! All simulated clocks in the workspace use microsecond ticks stored in a
//! `u64`, giving ~584 thousand years of range — enough for any deployment
//! simulation while keeping arithmetic exact.

/// A point in simulated time, in microseconds since simulation start.
pub type SimTime = u64;
/// One millisecond in ticks.
pub const MILLI: SimTime = 1_000;
/// One second in ticks.
pub const SEC: SimTime = 1_000_000;
/// One minute in ticks.
pub const MINUTE: SimTime = 60 * SEC;
/// One hour in ticks.
pub const HOUR: SimTime = 60 * MINUTE;

/// Converts whole seconds to ticks.
pub const fn secs(s: u64) -> SimTime {
    s * SEC
}

/// Converts fractional seconds to ticks (rounding down).
pub fn secs_f64(s: f64) -> SimTime {
    debug_assert!(s >= 0.0, "negative duration");
    (s * SEC as f64) as SimTime
}

/// Renders a tick count as a human-readable duration.
pub fn format_time(t: SimTime) -> String {
    if t >= HOUR {
        format!("{:.2}h", t as f64 / HOUR as f64)
    } else if t >= MINUTE {
        format!("{:.2}min", t as f64 / MINUTE as f64)
    } else if t >= SEC {
        format!("{:.3}s", t as f64 / SEC as f64)
    } else if t >= MILLI {
        format!("{:.3}ms", t as f64 / MILLI as f64)
    } else {
        format!("{t}us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(secs(2), 2_000_000);
        assert_eq!(secs_f64(0.5), 500_000);
        assert_eq!(secs_f64(0.0), 0);
    }

    #[test]
    fn formatting() {
        assert_eq!(format_time(5), "5us");
        assert_eq!(format_time(2_500), "2.500ms");
        assert_eq!(format_time(1_500_000), "1.500s");
        assert_eq!(format_time(90 * SEC), "1.50min");
        assert_eq!(format_time(2 * HOUR), "2.00h");
    }
}
