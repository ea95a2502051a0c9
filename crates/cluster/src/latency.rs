//! Online per-node response-latency tracking for hedged reads.
//!
//! Hedging needs a per-node answer to "how long is *unusually* long for
//! this node right now?" — the hedge delay is a configurable quantile of
//! the node's observed send→response latency. The tracker keeps:
//!
//! * an **EWMA** of the latency, for cheap smoothing and reporting;
//! * a **log-spaced histogram** (power-of-two microsecond buckets), from
//!   which any quantile is read in one pass. Log spacing keeps the whole
//!   structure at 64 counters while resolving both 100 µs loopback RTTs
//!   and multi-second straggler stalls to within a factor of two — more
//!   than enough precision for a hedge trigger.
//!
//! Both adapt online: on an overloaded machine the observed quantile
//! inflates and hedges fire later, instead of storming healthy-but-slow
//! replicas.

use kvs_simcore::SimDuration;

/// Power-of-two microsecond buckets: bucket `i` covers `[2^i, 2^(i+1))` µs.
const BUCKETS: usize = 40;
/// EWMA smoothing factor.
const ALPHA: f64 = 0.1;

/// Online latency summary for one node.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    buckets: [u64; BUCKETS],
    samples: u64,
    ewma_us: f64,
}

impl Default for LatencyTracker {
    fn default() -> Self {
        LatencyTracker {
            buckets: [0; BUCKETS],
            samples: 0,
            ewma_us: 0.0,
        }
    }
}

impl LatencyTracker {
    /// Records one send→response latency.
    pub fn record(&mut self, latency: SimDuration) {
        let us = (latency.as_nanos() / 1_000).max(1);
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.samples += 1;
        let us = us as f64;
        self.ewma_us = if self.samples == 1 {
            us
        } else {
            ALPHA * us + (1.0 - ALPHA) * self.ewma_us
        };
    }

    /// Latencies recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Smoothed latency.
    pub fn ewma(&self) -> SimDuration {
        SimDuration::from_micros(self.ewma_us as u64)
    }

    /// The `q`-quantile (`0 < q ≤ 1`) of recorded latencies, reported as
    /// the covering bucket's *upper* bound — deliberately conservative so
    /// a hedge never fires below genuinely observed latencies. `None`
    /// until any sample exists.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.samples == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.samples as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(SimDuration::from_micros(1 << (i + 1)));
            }
        }
        Some(SimDuration::from_micros(1 << BUCKETS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs_simcore::SimDuration as Duration;

    #[test]
    fn empty_tracker_has_no_quantile() {
        let t = LatencyTracker::default();
        assert_eq!(t.quantile(0.95), None);
        assert_eq!(t.samples(), 0);
    }

    #[test]
    fn quantile_bounds_the_observed_tail() {
        let mut t = LatencyTracker::default();
        // 99 fast samples around 200 µs, one 50 ms straggler.
        for _ in 0..99 {
            t.record(Duration::from_micros(200));
        }
        t.record(Duration::from_millis(50));
        let p95 = t.quantile(0.95).unwrap();
        assert!(p95 >= Duration::from_micros(200));
        assert!(p95 < Duration::from_millis(1), "p95 excludes the straggler");
        let p100 = t.quantile(1.0).unwrap();
        assert!(
            p100 >= Duration::from_millis(50),
            "max covers the straggler"
        );
    }

    #[test]
    fn quantile_is_conservative_upper_bound() {
        let mut t = LatencyTracker::default();
        t.record(Duration::from_micros(300)); // bucket [256, 512)
        assert_eq!(t.quantile(0.5).unwrap(), Duration::from_micros(512));
    }

    #[test]
    fn ewma_tracks_shifts() {
        let mut t = LatencyTracker::default();
        for _ in 0..50 {
            t.record(Duration::from_micros(100));
        }
        let before = t.ewma();
        for _ in 0..50 {
            t.record(Duration::from_millis(10));
        }
        assert!(t.ewma() > before * 10);
    }
}
