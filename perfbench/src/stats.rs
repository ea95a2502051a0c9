//! Summary statistics and failure accounting.

/// Tail percentiles a run may report, highest first.
const TAILS: [f64; 2] = [99.0, 90.0];

/// The highest tail percentile with at least ten samples beyond it among
/// `n` samples, or `None` when even p90 would rest on fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile of `samples` (any order). NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Completions per second, robust to bursts of interference: the
/// measured phase is cut into one-second windows, each window's rate is
/// `(n − 1) / (last − first)` over the completions inside it, and the
/// median window rate is reported. `completions` are seconds since the
/// phase began, in any order. NaN when no window holds two completions.
pub fn windowed_rate(completions: &[f64]) -> f64 {
    let mut by_window: std::collections::BTreeMap<u64, (usize, f64, f64)> = Default::default();
    for &t in completions {
        let w = by_window.entry(t as u64).or_insert((0, f64::MAX, f64::MIN));
        *w = (w.0 + 1, w.1.min(t), w.2.max(t));
    }
    let rates: Vec<f64> = by_window
        .values()
        .filter(|&&(n, first, last)| n >= 2 && last > first)
        .map(|&(n, first, last)| (n - 1) as f64 / (last - first))
        .collect();
    median(&rates)
}

/// How one client operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered in full.
    Done,
    /// A replica refused it (`Busy`/`Expired`) and it never completed.
    Refused,
    /// It ran out of retries, replicas or time.
    Exhausted,
    /// It completed without an answer for some partition.
    Partial,
}

/// Attempted and failed client operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Done {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(50_000), Some(99.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.0), 3.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn windowed_rate_is_the_median_window_and_ignores_one_slow_window() {
        // 100/s for four windows, 10/s in one disturbed window.
        let mut t: Vec<f64> = Vec::new();
        for w in 0..5 {
            let step = if w == 2 { 0.1 } else { 0.01 };
            let n = if w == 2 { 10 } else { 100 };
            t.extend((0..n).map(|i| w as f64 + 0.001 + i as f64 * step));
        }
        let rate = windowed_rate(&t);
        assert!((rate - 100.0).abs() < 1e-6, "{rate}");
        assert!(windowed_rate(&[0.5]).is_nan());
    }

    #[test]
    fn refused_exhausted_and_partial_ops_count_as_failed() {
        let mut t = Tally::default();
        for o in [
            Outcome::Done,
            Outcome::Refused,
            Outcome::Exhausted,
            Outcome::Partial,
            Outcome::Done,
        ] {
            t.record(o);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
        assert_eq!(t.failed_frac(), 0.6);
        let mut sum = Tally::default();
        sum.merge(t);
        sum.merge(t);
        assert_eq!(sum.failed_frac(), 0.6);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
