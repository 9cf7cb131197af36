//! Protocol time.
//!
//! The protocol state machine is agnostic to wall-clock time: every driver
//! (discrete-event simulator, threaded runtime, UDP runtime) supplies `now`
//! as milliseconds on a monotonically non-decreasing axis starting at an
//! arbitrary origin.

/// A point in protocol time, in milliseconds since the driver's origin.
pub type TimeMs = u64;

/// A span of protocol time, in milliseconds.
pub type DurMs = u64;

/// One second in protocol time.
pub const SECOND: DurMs = 1_000;

/// One minute in protocol time — the paper's default protocol period and
/// monitoring period (§5).
pub const MINUTE: DurMs = 60 * SECOND;

/// One hour in protocol time.
pub const HOUR: DurMs = 60 * MINUTE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(MINUTE, 60_000);
        assert_eq!(HOUR, 3_600_000);
    }
}
