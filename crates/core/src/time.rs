//! Protocol time.
//!
//! The protocol state machine is agnostic to wall-clock time: every driver
//! (discrete-event simulator, threaded runtime, UDP runtime) supplies `now`
//! as milliseconds on a monotonically non-decreasing axis starting at an
//! arbitrary origin.

use std::fmt;
use std::num::NonZeroU64;

use serde::{DeError, Deserialize, Serialize, Value};

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

/// A point in protocol time that leaves a niche, so an optional one packs
/// into 8 bytes: `Option<Stamp>` is the size of a [`TimeMs`], where
/// `Option<TimeMs>` is 16. Fields that are "a time, if any" — a target
/// record's last pong, session start and unresponsive streak, a node's
/// last probe arrivals — use it. It holds the complement of the time, so
/// `TimeMs::MAX` is the one value it cannot hold; [`Stamp::new`] clamps
/// it to one millisecond earlier (both are 5.8 × 10^8 years from any
/// origin). On the wire it is the plain number, so an optional stamp reads
/// and writes `null` or a number, as `Option<TimeMs>` does.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp(NonZeroU64);

impl Stamp {
    /// The stamp of `at`.
    #[must_use]
    pub fn new(at: TimeMs) -> Self {
        Stamp(NonZeroU64::new(!at).unwrap_or(NonZeroU64::MIN))
    }

    /// The time this stamp holds.
    #[must_use]
    pub fn ms(self) -> TimeMs {
        !self.0.get()
    }
}

impl fmt::Debug for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Stamp").field(&self.ms()).finish()
    }
}

impl Serialize for Stamp {
    fn to_value(&self) -> Value {
        self.ms().to_value()
    }
}

impl Deserialize for Stamp {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        TimeMs::from_value(value).map(Stamp::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_hold_their_time_in_a_niche() {
        assert_eq!(std::mem::size_of::<Option<Stamp>>(), 8);
        for at in [0, 1, MINUTE, TimeMs::MAX - 1] {
            assert_eq!(Stamp::new(at).ms(), at);
        }
        assert_eq!(Stamp::new(TimeMs::MAX).ms(), TimeMs::MAX - 1);
        assert_eq!(format!("{:?}", Some(Stamp::new(7))), "Some(Stamp(7))");
    }

    #[test]
    fn conversions() {
        assert_eq!(MINUTE, 60_000);
        assert_eq!(HOUR, 3_600_000);
    }
}
