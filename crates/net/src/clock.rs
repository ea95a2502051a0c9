//! Wall-clock nanoseconds for frame timestamps.
//!
//! Frame stamps must be comparable between the master and the slaves, so
//! they come from `SystemTime` (shared across processes on one host)
//! rather than `Instant` (whose epoch is per-process). All arithmetic on
//! them saturates: `SystemTime` is not monotonic, and a stage observed
//! "backwards" by a few nanoseconds must clamp to zero, not wrap.

use kvs_simcore::SimTime;
use std::time::{SystemTime, UNIX_EPOCH};

/// Current wall-clock time, nanoseconds since the UNIX epoch.
///
/// Fits a `u64` until the year 2554; a pre-epoch clock reads as 0.
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// The wall clock as the coordinators' time base: both state machines
/// take `SimTime`, and over sockets that time is [`wall_ns`].
pub fn now() -> SimTime {
    SimTime::from_nanos(wall_ns())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_sane() {
        let a = wall_ns();
        let b = wall_ns();
        // 2020-01-01 in nanoseconds — the container clock is past that.
        assert!(a > 1_577_836_800_000_000_000);
        assert!(b >= a.saturating_sub(1_000_000));
    }
}
