//! Small statistics toolkit: running moments, binomial-proportion confidence
//! intervals, and histograms. The Monte-Carlo experiments report every error
//! rate with a Wilson interval so that "zero observed errors" is
//! distinguishable from "error rate below resolution" (the distinction the
//! paper leans on when calling 3LCo "error-free for 16 years").

use crate::math::special::inverse_normal_cdf;

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another accumulator (parallel reduction; Chan's formula).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation seen.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A binomial proportion (successes out of trials) with interval estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proportion {
    /// Number of "hits" (e.g. erroneous cells).
    pub hits: u64,
    /// Number of trials (e.g. simulated cells).
    pub trials: u64,
}

impl Proportion {
    /// Construct; `hits <= trials` is enforced.
    pub fn new(hits: u64, trials: u64) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: a hit count cannot exceed its trial count
        assert!(hits <= trials, "hits {hits} > trials {trials}");
        Self { hits, trials }
    }

    /// Point estimate `hits / trials` (0 when there were no trials).
    pub fn estimate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// Wilson score interval at confidence `1 - alpha`.
    ///
    /// Behaves sensibly at 0 hits: the lower bound is exactly 0 and the
    /// upper bound is ~`z²/n`, which is the "resolution" of the experiment.
    pub fn wilson_interval(&self, alpha: f64) -> (f64, f64) {
        // pcm-lint: allow(no-panic-lib) — contract: the confidence level must be a proper probability
        assert!(alpha > 0.0 && alpha < 1.0);
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let z = inverse_normal_cdf(1.0 - alpha / 2.0);
        let n = self.trials as f64;
        let p = self.estimate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = z / denom * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        // At zero hits `center - half` is 0 in exact arithmetic but a
        // rounding residue (≈1e-20) in floating point.
        let lo = if self.hits == 0 {
            0.0
        } else {
            (center - half).max(0.0)
        };
        (lo, (center + half).min(1.0))
    }

    /// Merge two proportions from disjoint samples.
    pub fn merge(&self, other: &Proportion) -> Proportion {
        Proportion::new(self.hits + other.hits, self.trials + other.trials)
    }
}

/// Fixed-bin histogram over a known range; out-of-range samples are counted
/// in saturating edge bins so that nothing is silently dropped.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// `n_bins` equal-width bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n_bins: usize) -> Self {
        // pcm-lint: allow(no-panic-lib) — contract: histogram bounds and bin counts come from literal experiment configs
        assert!(hi > lo && n_bins > 0);
        Self {
            lo,
            hi,
            bins: vec![0; n_bins],
            total: 0,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        let n = self.bins.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * n as f64).floor() as i64).clamp(0, n as i64 - 1) as usize;
        self.bins[idx] += 1;
        self.total += 1;
    }

    /// Merge another histogram with identical geometry.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len());
        assert_eq!(self.lo, other.lo);
        assert_eq!(self.hi, other.hi);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Bin centers paired with *density* estimates (so that the histogram
    /// approximates a pdf, as drawn in the paper's Figures 1, 6 and 7).
    pub fn densities(&self) -> Vec<(f64, f64)> {
        let n = self.bins.len();
        let width = (self.hi - self.lo) / n as f64;
        let norm = if self.total == 0 {
            0.0
        } else {
            1.0 / (self.total as f64 * width)
        };
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * width, c as f64 * norm))
            .collect()
    }

    /// Total number of samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4.0; sample variance = 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let mut whole = RunningStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs[..300].iter().for_each(|&x| a.push(x));
        xs[300..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-8);
    }

    #[test]
    fn wilson_interval_contains_estimate() {
        let p = Proportion::new(7, 1000);
        let (lo, hi) = p.wilson_interval(0.05);
        assert!(lo < p.estimate() && p.estimate() < hi);
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn wilson_zero_hits_gives_resolution_bound() {
        let p = Proportion::new(0, 1_000_000);
        let (lo, hi) = p.wilson_interval(0.05);
        assert_eq!(lo, 0.0);
        // Upper bound ≈ z²/n ≈ 3.84e-6 — the experiment's resolution.
        assert!(hi > 1e-6 && hi < 1e-5, "hi = {hi}");
    }

    #[test]
    fn wilson_lower_bound_is_exactly_zero_at_zero_hits() {
        let (lo, hi) = Proportion::new(0, 156_434).wilson_interval(1e-3);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0);
    }

    #[test]
    fn wilson_shrinks_with_samples() {
        let narrow = Proportion::new(100, 100_000).wilson_interval(0.05);
        let wide = Proportion::new(10, 10_000).wilson_interval(0.05);
        assert!(narrow.1 - narrow.0 < wide.1 - wide.0);
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..10_000 {
            h.push((i as f64 + 0.5) / 10_000.0);
        }
        let width = 0.05;
        let integral: f64 = h.densities().iter().map(|&(_, d)| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_saturates_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-5.0);
        h.push(27.0);
        assert_eq!(h.total(), 2);
        let d = h.densities();
        assert!(d[0].1 > 0.0 && d[3].1 > 0.0);
    }
}
