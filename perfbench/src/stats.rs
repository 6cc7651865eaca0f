//! Latency digests and the failure tally.

/// Samples needed beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Rank (1-based, nearest-rank method) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// The highest quantile no higher than `q` that leaves at least
/// [`MIN_BEYOND`] of `n` samples above it, or `None` when `n` is too
/// small for any.
pub fn supported_quantile(n: usize, q: f64) -> Option<f64> {
    if n <= MIN_BEYOND {
        return None;
    }
    if n - rank(n, q) >= MIN_BEYOND {
        Some(q)
    } else {
        Some((n - MIN_BEYOND) as f64 / n as f64)
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// A digest of one latency population.
#[derive(Debug, Clone)]
pub struct Digest {
    sorted: Vec<u64>,
}

/// One reported quantile: the one asked for, the one the sample
/// supports, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reported {
    /// Quantile the metric names (0.99 for `_p99`).
    pub asked: f64,
    /// Quantile actually reported (lower when the sample is small).
    pub used: f64,
    /// The value at `used`, in the samples' unit.
    pub value: u64,
}

impl Digest {
    /// Digest `samples` (any order).
    pub fn new(mut samples: Vec<u64>) -> Digest {
        samples.sort_unstable();
        Digest { sorted: samples }
    }

    /// Sample count.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Quantile `q`, lowered to the highest one the sample supports;
    /// `None` when there are too few samples for any tail.
    pub fn at(&self, q: f64) -> Option<Reported> {
        let used = if q <= 0.5 {
            (!self.sorted.is_empty()).then_some(q)?
        } else {
            supported_quantile(self.sorted.len(), q)?
        };
        Some(Reported {
            asked: q,
            used,
            value: quantile_sorted(&self.sorted, used),
        })
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.sorted.last().copied().unwrap_or(0)
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Every request attempted and every way one can fail.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent (or due to be sent), both phases.
    pub attempted: u64,
    /// `Failed` replies.
    pub failed: u64,
    /// `Busy` replies (admission control shed the request).
    pub busy: u64,
    /// Requests whose reply never came.
    pub missing: u64,
    /// Replies of the wrong shape for their request.
    pub wrong: u64,
    /// Oracle or follower mismatches found by the checks.
    pub mismatches: u64,
}

impl Tally {
    /// Every failure counted against `attempted`.
    pub fn failures(&self) -> u64 {
        self.failed + self.busy + self.missing + self.wrong + self.mismatches
    }

    /// Failures as a share of the attempted requests.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failures() as f64 / self.attempted as f64
    }

    /// Fold `other` into this tally.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.busy += other.busy;
        self.missing += other.missing;
        self.wrong += other.wrong;
        self.mismatches += other.mismatches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100,000 samples support P999 (100 beyond it).
        assert_eq!(supported_quantile(100_000, 0.999), Some(0.999));
        // Exactly ten beyond: 10,000 samples, rank 9,990.
        assert_eq!(supported_quantile(10_000, 0.999), Some(0.999));
        // 5,000 samples leave only 5 beyond P999: fall back to the
        // rank with ten beyond it, 4,990 / 5,000.
        assert_eq!(supported_quantile(5_000, 0.999), Some(0.998));
        assert_eq!(supported_quantile(500, 0.99), Some(0.98));
        assert_eq!(supported_quantile(10, 0.99), None);

        let d = Digest::new((1..=5_000).rev().collect());
        let r = d.at(0.999).unwrap();
        assert_eq!(r.used, 0.998);
        assert_eq!(r.value, 4_990);
        assert_eq!(d.count(), 5_000);
        // Ten samples strictly beyond the reported value.
        assert_eq!((1..=5_000u64).filter(|&v| v > r.value).count(), MIN_BEYOND);
        assert_eq!(d.at(0.5).unwrap().value, 2_500);
        assert!(Digest::new(vec![1, 2, 3]).at(0.99).is_none());
    }

    #[test]
    fn failed_frac_counts_busy_failed_missing_and_mismatches() {
        let t = Tally {
            attempted: 1_000,
            failed: 2,
            busy: 3,
            missing: 1,
            wrong: 1,
            mismatches: 4,
        };
        assert_eq!(t.failures(), 11);
        assert!((t.failed_frac() - 0.011).abs() < 1e-12);
        let mut sum = Tally::default();
        sum.add(&t);
        sum.add(&Tally {
            attempted: 1_000,
            ..Tally::default()
        });
        assert!((sum.failed_frac() - 0.0055).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
