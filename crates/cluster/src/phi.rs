//! Phi-accrual failure detection (Hayashibara et al., SRDS 2004).
//!
//! The binary alive/dead heuristic of PR 2 ("retry budget exhausted ⇒
//! dead") is a blunt instrument: it only fires after the full timeout ×
//! retries window, and it cannot express "this node is *probably* slow,
//! prefer another replica". The phi-accrual detector replaces the binary
//! verdict with a continuous suspicion level computed from the observed
//! inter-arrival distribution of a node's responses:
//!
//! ```text
//! phi(t_now) = -log10( P(next arrival > t_now − t_last) )
//! ```
//!
//! where the arrival distribution is modelled as a normal fit over a
//! sliding window of recent inter-arrival gaps. A node that answers every
//! few hundred microseconds accrues suspicion within a handful of
//! milliseconds of going quiet; a node with naturally lumpy traffic needs
//! proportionally longer silence before the same phi. The master uses phi
//! both to order replicas (hedge and fail over toward the *least* suspect
//! node) and to stop hedging toward nodes that are probably dying.
//!
//! A threshold of `phi ≥ 8` means "the chance this silence is ordinary
//! jitter is ≤ 10⁻⁸" — the conventional production setting, and the
//! default in [`crate::read_path::NetConfig`]. Time is a [`SimTime`]
//! parameter, so the detector runs on the wall clock over sockets and on
//! simulated time in [`crate::read_path::simulate`] alike.

use kvs_simcore::SimTime;
use std::collections::VecDeque;

/// Sliding-window phi-accrual detector for one node.
#[derive(Debug, Default)]
pub struct PhiAccrual {
    /// The `WINDOW` most recent inter-arrival gaps, seconds.
    gaps: VecDeque<f64>,
    last_arrival: Option<SimTime>,
}

/// Gaps retained for the distribution fit.
const WINDOW: usize = 128;
/// Arrivals required before the detector expresses an opinion; below
/// this, [`PhiAccrual::phi`] is `0.0` (no suspicion) so cold starts do
/// not condemn a node that simply has not been talked to yet.
const MIN_SAMPLES: usize = 8;
/// Floor on the fitted standard deviation, seconds. Loopback arrivals
/// can be near-metronomic; without a floor the normal fit collapses and
/// a microsecond of jitter reads as certain death.
const MIN_STDDEV: f64 = 500e-6;

impl PhiAccrual {
    /// Records an arrival (any frame from the node — response, busy or
    /// expired all prove liveness).
    pub fn heartbeat(&mut self, now: SimTime) {
        if let Some(last) = self.last_arrival {
            let gap = now.since(last).as_secs_f64();
            if self.gaps.len() == WINDOW {
                self.gaps.pop_front();
            }
            self.gaps.push_back(gap);
        }
        self.last_arrival = Some(now);
    }

    /// Current suspicion level. `0.0` until enough arrivals have been
    /// seen; grows without bound the longer the node stays silent past
    /// its fitted arrival distribution.
    pub fn phi(&self, now: SimTime) -> f64 {
        let Some(last) = self.last_arrival else {
            return 0.0;
        };
        if self.gaps.len() < MIN_SAMPLES {
            return 0.0;
        }
        let silence = now.since(last).as_secs_f64();
        let n = self.gaps.len() as f64;
        let mean = self.gaps.iter().sum::<f64>() / n;
        let var = self.gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let stddev = var.sqrt().max(MIN_STDDEV);
        let y = (silence - mean) / stddev;
        // Logistic approximation of the normal CDF (Bowling et al. 2009,
        // accurate to ~1.4e-4): P(arrival later) = 1 / (1 + e^g) with
        // g = y·(1.5976 + 0.070566·y²), so phi = log10(1 + e^g). Computed
        // in log space: a deeply silent node keeps accruing suspicion
        // monotonically instead of saturating at the first f64 underflow.
        let g = y * (1.5976 + 0.070566 * y * y);
        if g > 30.0 {
            g / std::f64::consts::LN_10
        } else {
            g.exp().ln_1p() / std::f64::consts::LN_10
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvs_simcore::SimDuration as Duration;

    fn fed(gap: Duration, beats: usize) -> (PhiAccrual, SimTime) {
        let mut d = PhiAccrual::default();
        let mut t = SimTime::ZERO;
        for _ in 0..beats {
            d.heartbeat(t);
            t += gap;
        }
        // `t` is one gap past the last heartbeat.
        (d, t - gap)
    }

    #[test]
    fn silent_before_enough_samples() {
        let (d, last) = fed(Duration::from_millis(1), MIN_SAMPLES); // MIN_SAMPLES−1 gaps
        assert_eq!(d.phi(last + Duration::from_secs(10)), 0.0);
    }

    #[test]
    fn regular_heartbeats_keep_phi_low() {
        let (d, last) = fed(Duration::from_millis(1), 64);
        // Right at the expected next arrival: suspicion ≈ coin flip or less.
        assert!(d.phi(last + Duration::from_millis(1)) < 1.0);
    }

    #[test]
    fn silence_accrues_suspicion_monotonically() {
        let (d, last) = fed(Duration::from_millis(1), 64);
        let p5 = d.phi(last + Duration::from_millis(5));
        let p20 = d.phi(last + Duration::from_millis(20));
        let p100 = d.phi(last + Duration::from_millis(100));
        assert!(p5 < p20 && p20 < p100, "{p5} {p20} {p100}");
        assert!(p100 > 8.0, "long silence must cross the usual threshold");
    }

    #[test]
    fn lumpy_traffic_needs_longer_silence() {
        // Same mean gap, much larger spread ⇒ slower suspicion accrual.
        let mut lumpy = PhiAccrual::default();
        let mut t = SimTime::ZERO;
        for i in 0..64 {
            lumpy.heartbeat(t);
            t += Duration::from_millis(if i % 2 == 0 { 1 } else { 19 });
        }
        let last = t - Duration::from_millis(19);
        let (steady, steady_last) = fed(Duration::from_millis(10), 64);
        let after = Duration::from_millis(25);
        assert!(lumpy.phi(last + after) < steady.phi(steady_last + after));
    }

    #[test]
    fn heartbeat_resets_suspicion() {
        let (mut d, last) = fed(Duration::from_millis(1), 64);
        let late = last + Duration::from_millis(200);
        assert!(d.phi(late) > 8.0);
        d.heartbeat(late);
        assert!(d.phi(late + Duration::from_millis(1)) < 8.0);
    }
}
