//! Deterministic pseudo-random number generation for the Monte-Carlo
//! experiments.
//!
//! The paper draws up to 10⁹ cells per design point (§2.4), so the generator
//! must be fast, splittable across threads, and bit-reproducible across
//! platforms. We implement xoshiro256++ (Blackman & Vigna) seeded through
//! SplitMix64 — the standard recommendation — plus Gaussian and
//! truncated-Gaussian samplers tailored to the cell-write model.
//!
//! Two normal samplers share the generator. The Marsaglia polar method
//! ([`Xoshiro256pp::next_normal`], [`Xoshiro256pp::fill_normals`]) is what
//! the Monte-Carlo estimators and the paper's pinned outputs draw. The
//! ziggurat ([`Xoshiro256pp::next_ziggurat_normal`]) is exact in
//! distribution too, about 4× cheaper, and what the simulated device
//! draws its cell writes and lifetimes from (DESIGN.md §19).
//!
//! Shard determinism: [`Xoshiro256pp::split`] derives an independent stream
//! per Monte-Carlo shard from `(seed, shard_index)`, so results are
//! independent of thread count.

mod ziggurat;

/// Derive the seed of an independent RNG stream `index` from a base
/// `seed` — the decorrelation hash behind [`Xoshiro256pp::split`], exposed
/// so higher layers (Monte-Carlo shards, device banks) can reproduce the
/// same stream identity without holding a generator.
#[inline]
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    let mixed = seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    mixed.wrapping_add(0x9E6C_63D0_876A_46DB)
}

/// SplitMix64 step; used for seeding and stream derivation.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 so that low-entropy seeds still produce
    /// well-mixed state.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derive an independent stream for shard `index` of a run seeded with
    /// `seed`. Streams are decorrelated by hashing `(seed, index)` through
    /// SplitMix64 with distinct mixing constants.
    pub fn split(seed: u64, index: u64) -> Self {
        Self::seed_from_u64(stream_seed(seed, index))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in open `(0, 1)` — safe to pass to `ln`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` using Lemire's method (no modulo
    /// bias).
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        // pcm-lint: allow(no-panic-lib) — contract: a zero bound has no valid sample; call sites pass nonzero values
        assert!(bound > 0);
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal deviate via the Marsaglia polar method.
    ///
    /// No spare is cached: the cell model draws normals in heterogeneous
    /// sequences and a cached spare would entangle streams across draws,
    /// complicating reproducibility arguments for shard splits.
    pub fn next_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Fill `out` with standard normals: bit-identical to `out.len()`
    /// calls of [`Self::next_normal`], leaving the generator in the same
    /// state (DESIGN.md §19).
    ///
    /// Each polar attempt consumes exactly two `u64`s, so the attempts are
    /// drawn in batches of at most the normals still missing (never past
    /// the last one needed), the accepted pairs compacted without a
    /// branch, and the `ln` and `u · sqrt(−2 ln s / s)` passes then run
    /// over the batch as independent, vectorisable work instead of one
    /// serial chain per normal.
    pub fn fill_normals(&mut self, out: &mut [f64]) {
        const ATTEMPTS: usize = 64;
        let mut filled = 0;
        while filled < out.len() {
            let mut u = [0.0f64; ATTEMPTS];
            let mut s = [0.0f64; ATTEMPTS];
            let mut k = 0;
            for _ in 0..(out.len() - filled).min(ATTEMPTS) {
                let a = 2.0 * self.next_f64() - 1.0;
                let b = 2.0 * self.next_f64() - 1.0;
                let r = a * a + b * b;
                u[k] = a;
                s[k] = r;
                k += usize::from(r > 0.0 && r < 1.0);
            }
            let mut l = [0.0f64; ATTEMPTS];
            for (l, s) in l[..k].iter_mut().zip(&s[..k]) {
                *l = s.ln();
            }
            for (((o, u), l), s) in out[filled..filled + k]
                .iter_mut()
                .zip(&u[..k])
                .zip(&l[..k])
                .zip(&s[..k])
            {
                *o = u * (-2.0 * l / s).sqrt();
            }
            filled += k;
        }
    }

    /// Standard normal deviate via the 256-layer ziggurat (Marsaglia &
    /// Tsang, 2000): exact in distribution, one `u64` for ≈98.5 % of
    /// draws. A different stream from [`Self::next_normal`]'s.
    #[inline(always)]
    pub fn next_ziggurat_normal(&mut self) -> f64 {
        ziggurat::normal(self)
    }

    /// Normal with given mean and standard deviation.
    #[inline]
    pub fn next_normal_scaled(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.next_normal()
    }

    /// Standard normal truncated to `[-limit, +limit]` (in units of σ),
    /// drawn by rejection. This is exactly the paper's iterative
    /// program-and-verify model: re-draw until the written resistance lands
    /// within ±2.75σ of nominal (§2.2). Returns `(value, attempts)` so the
    /// wearout model can charge one write cycle per attempt.
    pub fn next_truncated_normal(&mut self, limit: f64) -> (f64, u32) {
        // pcm-lint: allow(no-panic-lib) — contract: rejection sampling needs a positive limit
        assert!(limit > 0.0);
        truncate_normal(limit, || self.next_normal())
    }
}

/// Most draws a truncated-normal sample makes before it gives up and
/// clamps: a write's program-and-verify iterations never exceed it.
pub const MAX_TRUNCATION_ATTEMPTS: u32 = 10_000;

/// [`Xoshiro256pp::next_truncated_normal`] over the standard normals
/// `next` yields: re-draw until `|z| <= limit`, clamping after
/// [`MAX_TRUNCATION_ATTEMPTS`]. Returns `(value, attempts)`.
#[inline]
pub(crate) fn truncate_normal(limit: f64, mut next: impl FnMut() -> f64) -> (f64, u32) {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let z = next();
        if z.abs() <= limit {
            return (z, attempts);
        }
        // Acceptance for 2.75σ is ~99.4%; a long rejection streak is
        // astronomically unlikely but bounded for robustness.
        if attempts >= MAX_TRUNCATION_ATTEMPTS {
            return (z.clamp(-limit, limit), attempts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::stats::RunningStats;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut a = Xoshiro256pp::split(7, 0);
        let mut b = Xoshiro256pp::split(7, 1);
        let mut stats = RunningStats::new();
        for _ in 0..10_000 {
            // Correlation proxy: product of centered uniforms.
            stats.push((a.next_f64() - 0.5) * (b.next_f64() - 0.5));
        }
        assert!(stats.mean().abs() < 0.01, "corr {}", stats.mean());
    }

    #[test]
    fn uniform_mean_and_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            s.push(u);
        }
        assert!((s.mean() - 0.5).abs() < 0.005);
    }

    #[test]
    fn bounded_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let mut counts = [0u64; 7];
        for _ in 0..70_000 {
            counts[rng.next_bounded(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "{counts:?}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut s = RunningStats::new();
        for _ in 0..200_000 {
            s.push(rng.next_normal());
        }
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.std_dev() - 1.0).abs() < 0.01, "sd {}", s.std_dev());
    }

    #[test]
    fn truncated_normal_respects_limit() {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let mut total_attempts = 0u64;
        for _ in 0..50_000 {
            let (z, attempts) = rng.next_truncated_normal(2.75);
            assert!(z.abs() <= 2.75);
            total_attempts += attempts as u64;
        }
        // Acceptance probability for ±2.75σ is ~0.994, so the mean number
        // of program-and-verify iterations should be ~1.006.
        let mean_attempts = total_attempts as f64 / 50_000.0;
        assert!(mean_attempts < 1.02, "{mean_attempts}");
    }

    #[test]
    fn truncated_normal_is_renormalized_gaussian() {
        let mut rng = Xoshiro256pp::seed_from_u64(17);
        let mut s = RunningStats::new();
        for _ in 0..100_000 {
            s.push(rng.next_truncated_normal(2.75).0);
        }
        assert!(s.mean().abs() < 0.01);
        // Var of N(0,1) truncated at ±2.75: 1 - 2*2.75*φ(2.75)/(2Φ(2.75)-1)
        // ≈ 0.9503.
        assert!((s.variance() - 0.9503).abs() < 0.01, "{}", s.variance());
    }
}
