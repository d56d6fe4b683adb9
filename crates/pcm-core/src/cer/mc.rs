//! Monte-Carlo cell-error-rate estimation (the paper's §2.4 methodology).
//!
//! For each state we draw `samples_per_state` cells (program-and-verify
//! outcome + drift exponents), evolve each along its deterministic
//! [`DriftTrajectory`](crate::drift::DriftTrajectory), and count how many
//! sense incorrectly at each requested time. One sampled population serves
//! the whole time grid, which is what makes the 40-point Figure-8 sweep
//! tractable at 10⁸–10⁹ cells.
//!
//! Parallelism: the population is split into shards; each shard runs on its
//! own thread with an independent RNG stream derived from `(seed, shard)`,
//! so results are bit-identical regardless of thread count.

use super::CerEstimator;
use crate::cell::{write_cell, WritePlans};
use crate::drift::{log_time, PreparedTrajectory};
use crate::level::LevelDesign;
use crate::math::stats::Proportion;
use crate::rng::Xoshiro256pp;

/// One time point of a Monte-Carlo CER report.
#[derive(Debug, Clone)]
pub struct McCerPoint {
    /// Evaluation time (seconds after write).
    pub t_secs: f64,
    /// Per-state error proportions.
    pub per_state: Vec<Proportion>,
    /// Occupancy-weighted overall proportion. `trials` is the total cell
    /// count; `hits` is the occupancy-weighted error count rounded to the
    /// nearest integer (exact when occupancies are uniform).
    pub overall: Proportion,
    /// Exact occupancy-weighted CER estimate (no rounding).
    pub weighted_cer: f64,
}

/// Full report over a time grid.
#[derive(Debug, Clone)]
pub struct McCerReport {
    /// Design name the report was computed for.
    pub design: String,
    /// Cells drawn per state.
    pub samples_per_state: u64,
    /// One entry per requested time.
    pub points: Vec<McCerPoint>,
}

/// Monte-Carlo CER estimator.
#[derive(Debug, Clone)]
pub struct MonteCarloCer {
    /// Cells to draw per state.
    pub samples_per_state: u64,
    /// Base seed; shard streams derive from it.
    pub seed: u64,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
}

impl MonteCarloCer {
    /// Estimator drawing `samples_per_state` cells per state.
    pub fn new(samples_per_state: u64, seed: u64) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            samples_per_state,
            seed,
            threads,
        }
    }

    /// Override the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run the simulation for `design` over `times` (seconds, need not be
    /// sorted).
    ///
    /// Batched evaluation: cells are drawn in chunks, their trajectories
    /// flattened into [`PreparedTrajectory`] buffers, and the per-time
    /// error test runs as tight loops over those buffers with the
    /// `log10`/region lookups hoisted out. **Bit-identical** per
    /// `(samples_per_state, seed)` to [`MonteCarloCer::estimate_reference`]
    /// — the pre-batching per-sample path — because the RNG draw order,
    /// every float expression, and the per-shard integer counts are all
    /// preserved (see DESIGN.md §14).
    pub fn estimate(&self, design: &LevelDesign, times: &[f64]) -> McCerReport {
        // pcm-lint: allow(no-panic-lib) — contract: evaluation-time grids come from the experiment tables and are never empty
        assert!(!times.is_empty(), "need at least one evaluation time");
        let n_states = design.n_levels();
        let n_times = times.len();
        // Hoisted per call: the log-time grid (one log10 per time instead
        // of one per sample×time) and each state's sensing band, mapped to
        // ±∞ at the extremes so the error test is two bare compares.
        let log_times: Vec<f64> = times.iter().map(|&t| log_time(t)).collect();
        let bands: Vec<(f64, f64)> = (0..n_states)
            .map(|s| {
                let (lo, hi) = design.region(s);
                (lo.unwrap_or(f64::NEG_INFINITY), hi.unwrap_or(f64::INFINITY))
            })
            .collect();

        // Draw order matches the reference path exactly: per shard, states
        // in order, samples in order, each cell through `write_cell`'s own
        // kernel (`WritePlan::write`); chunking only groups *evaluations*,
        // and the error counts are integer sums, so regrouping is exact.
        const CHUNK: usize = 256;
        let plans = WritePlans::new(design);
        let totals = self.run_sharded(n_states * n_times, |rng, size, counts| {
            let mut plain: Vec<(f64, f64)> = Vec::with_capacity(CHUNK);
            let mut switched: Vec<PreparedTrajectory> = Vec::with_capacity(CHUNK);
            for (state, &(lo, hi)) in bands.iter().enumerate() {
                let plan = plans.get(state);
                let mut remaining = size;
                while remaining > 0 {
                    let n = remaining.min(CHUNK as u64) as usize;
                    remaining -= n as u64;
                    plain.clear();
                    switched.clear();
                    for _ in 0..n {
                        let p = plan.write(|| rng.next_normal()).trajectory.prepare();
                        // Trajectories that never switch regimes take the
                        // two-f64 fast lane; the rest keep the compare.
                        if p.lc == f64::INFINITY {
                            plain.push((p.logr0, p.alpha1));
                        } else {
                            switched.push(p);
                        }
                    }
                    for (ti, &lt) in log_times.iter().enumerate() {
                        let l = lt.max(0.0);
                        let mut errs = 0u64;
                        for &(logr0, alpha1) in &plain {
                            let lr = logr0 + alpha1 * l;
                            errs += u64::from(lr < lo || lr >= hi);
                        }
                        for p in &switched {
                            let lr = if l > p.lc {
                                p.base + p.alpha2 * (l - p.lc)
                            } else {
                                p.logr0 + p.alpha1 * l
                            };
                            errs += u64::from(lr < lo || lr >= hi);
                        }
                        counts[state * n_times + ti] += errs;
                    }
                }
            }
        });
        self.report(design, times, &totals)
    }

    /// The pre-batching sampler: one `write_cell` + full trajectory
    /// evaluation per sample, straight through [`LevelDesign::sense`].
    /// Kept as the oracle for the batched path — `estimate` must produce
    /// bit-identical hit counts for any `(samples, seed, design, times)`.
    pub fn estimate_reference(&self, design: &LevelDesign, times: &[f64]) -> McCerReport {
        // pcm-lint: allow(no-panic-lib) — contract: evaluation-time grids come from the experiment tables and are never empty
        assert!(!times.is_empty(), "need at least one evaluation time");
        let n_states = design.n_levels();
        let n_times = times.len();
        let totals = self.run_sharded(n_states * n_times, |rng, size, counts| {
            for state in 0..n_states {
                for _ in 0..size {
                    let cell = write_cell(design, state, rng);
                    // One trajectory serves the whole grid; each
                    // evaluation is a few flops.
                    for (ti, &t) in times.iter().enumerate() {
                        let sensed = design.sense(cell.trajectory.logr_at(t));
                        if sensed != state {
                            counts[state * n_times + ti] += 1;
                        }
                    }
                }
            }
        });
        self.report(design, times, &totals)
    }

    /// Shard/worker scaffold shared by both sampling paths. `per_shard`
    /// runs once per shard with that shard's RNG stream, sample count, and
    /// the worker's count accumulator (`n_counts` slots).
    fn run_sharded<F>(&self, n_counts: usize, per_shard: F) -> Vec<u64>
    where
        F: Fn(&mut Xoshiro256pp, u64, &mut [u64]) + Sync,
    {
        // The shard count is FIXED (independent of thread count) so that a
        // given (samples, seed) pair yields bit-identical results on any
        // machine; workers pick up shards round-robin.
        const SHARDS: usize = 64;
        let shards = SHARDS.min(self.samples_per_state.max(1) as usize);
        let shard_sizes: Vec<u64> = (0..shards)
            .map(|i| {
                let base = self.samples_per_state / shards as u64;
                let extra = u64::from((i as u64) < self.samples_per_state % shards as u64);
                base + extra
            })
            .collect();

        let workers = self.threads.min(shards);
        let mut worker_counts: Vec<Vec<u64>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shard_sizes = &shard_sizes;
                    let per_shard = &per_shard;
                    let seed = self.seed;
                    scope.spawn(move || {
                        let mut counts = vec![0u64; n_counts];
                        for shard in (w..shards).step_by(workers) {
                            let mut rng = Xoshiro256pp::split(seed, shard as u64);
                            per_shard(&mut rng, shard_sizes[shard], &mut counts);
                        }
                        counts
                    })
                })
                .collect();
            for h in handles {
                // pcm-lint: allow(no-panic-lib) — propagates a worker panic; the join cannot fail otherwise
                worker_counts.push(h.join().expect("MC worker panicked"));
            }
        });

        let mut totals = vec![0u64; n_counts];
        for sc in &worker_counts {
            for (t, &c) in totals.iter_mut().zip(sc) {
                *t += c;
            }
        }
        totals
    }

    /// Assemble the per-time report from merged shard counts.
    fn report(&self, design: &LevelDesign, times: &[f64], totals: &[u64]) -> McCerReport {
        let n_states = design.n_levels();
        let n_times = times.len();
        let points = times
            .iter()
            .enumerate()
            .map(|(ti, &t)| {
                let per_state: Vec<Proportion> = (0..n_states)
                    .map(|s| Proportion::new(totals[s * n_times + ti], self.samples_per_state))
                    .collect();
                let weighted_cer: f64 = per_state
                    .iter()
                    .zip(&design.states)
                    .map(|(p, s)| p.estimate() * s.occupancy)
                    .sum();
                let weighted_hits: f64 = per_state
                    .iter()
                    .zip(&design.states)
                    .map(|(p, s)| p.hits as f64 * s.occupancy * n_states as f64)
                    .sum();
                let total_trials = self.samples_per_state * n_states as u64;
                let overall = Proportion::new(
                    (weighted_hits.round() as u64).min(total_trials),
                    total_trials,
                );
                McCerPoint {
                    t_secs: t,
                    per_state,
                    overall,
                    weighted_cer,
                }
            })
            .collect();

        McCerReport {
            design: design.name.clone(),
            samples_per_state: self.samples_per_state,
            points,
        }
    }
}

impl CerEstimator for MonteCarloCer {
    fn per_state_cer(&self, design: &LevelDesign, t_secs: f64) -> Vec<f64> {
        self.estimate(design, &[t_secs]).points[0]
            .per_state
            .iter()
            .map(|p| p.estimate())
            .collect()
    }

    fn cer_grid(&self, design: &LevelDesign, times: &[f64]) -> Vec<f64> {
        self.estimate(design, times)
            .points
            .iter()
            .map(|p| p.weighted_cer)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelDesign;

    #[test]
    fn deterministic_across_thread_counts() {
        let d = LevelDesign::four_level_naive();
        let a = MonteCarloCer::new(50_000, 42)
            .with_threads(1)
            .estimate(&d, &[1024.0]);
        let b = MonteCarloCer::new(50_000, 42)
            .with_threads(8)
            .estimate(&d, &[1024.0]);
        for (pa, pb) in a.points[0].per_state.iter().zip(&b.points[0].per_state) {
            assert_eq!(
                pa.hits, pb.hits,
                "shard-seeded MC must not depend on threads"
            );
        }
    }

    #[test]
    fn different_seeds_vary_within_noise() {
        let d = LevelDesign::four_level_naive();
        let a = MonteCarloCer::new(100_000, 1).estimate(&d, &[1024.0]);
        let b = MonteCarloCer::new(100_000, 2).estimate(&d, &[1024.0]);
        let (ca, cb) = (a.points[0].weighted_cer, b.points[0].weighted_cer);
        assert!(ca > 0.0 && cb > 0.0);
        assert!((ca - cb).abs() / ca < 0.2, "{ca} vs {cb}");
    }

    #[test]
    fn figure3_shape_s3_dominates_and_grows() {
        // Reproduce Figure 3's qualitative content at small scale:
        // S2 and S3 error rates grow with time, S3 ≈ 10× S2, S1/S4 ≈ 0.
        let d = LevelDesign::four_level_naive();
        let times = [32.0, 1024.0, 32_768.0];
        let rep = MonteCarloCer::new(200_000, 11).estimate(&d, &times);
        let s = |p: &McCerPoint, i: usize| p.per_state[i].estimate();
        for point in &rep.points {
            assert_eq!(s(point, 3), 0.0, "S4 immune");
            assert!(s(point, 0) < 1e-3, "S1 negligible");
            if s(point, 1) > 1e-4 {
                let ratio = s(point, 2) / s(point, 1);
                assert!((3.0..40.0).contains(&ratio), "S3/S2 ratio {ratio}");
            }
        }
        // Monotone growth in time for S3.
        assert!(s(&rep.points[0], 2) < s(&rep.points[1], 2));
        assert!(s(&rep.points[1], 2) < s(&rep.points[2], 2));
    }

    #[test]
    fn grid_shares_population() {
        // CER over a grid must be consistent with single-point runs under
        // the same seed (same sampled population).
        let d = LevelDesign::four_level_naive();
        let est = MonteCarloCer::new(30_000, 5).with_threads(2);
        let grid = est.estimate(&d, &[512.0, 1024.0]);
        let single = est.estimate(&d, &[1024.0]);
        assert_eq!(
            grid.points[1].per_state[2].hits,
            single.points[0].per_state[2].hits
        );
    }

    #[test]
    fn hit_counts_pinned_against_pre_batching_sampler() {
        // Exact per-state hit counts of this (samples, seed) on the
        // ziggurat normal sampler. The estimator must stay bit-identical
        // per (samples, seed): any change to the RNG draw order, the
        // normal sampler, the drift arithmetic, or the sensing comparison
        // shows up here as a count mismatch.
        // 4LC pins the plain-trajectory path; 3LC at long horizons pins
        // the §5.3 rate-switch path (its S2 only errs past ~1e12 s at
        // this sample size).
        type PinnedCase = (&'static str, LevelDesign, [f64; 3], Vec<[u64; 3]>);
        let cases: [PinnedCase; 2] = [
            (
                "4LCn",
                LevelDesign::four_level_naive(),
                [32.0, 1024.0, 1.0e6],
                vec![[0, 0, 0], [2, 17, 109], [45, 354, 2619], [0, 0, 0]],
            ),
            (
                "3LCn",
                LevelDesign::three_level_naive(),
                [1.0e12, 1.0e14, 1.0e16],
                vec![[0, 0, 0], [3, 8, 20], [0, 0, 0]],
            ),
        ];
        for (name, design, times, expected) in &cases {
            let rep = MonteCarloCer::new(10_007, 12345)
                .with_threads(2)
                .estimate(design, times);
            for (ti, point) in rep.points.iter().enumerate() {
                for (s, p) in point.per_state.iter().enumerate() {
                    assert_eq!(
                        p.hits, expected[s][ti],
                        "{name} state {s} t={} drifted from the pinned sampler",
                        point.t_secs
                    );
                }
            }
        }
    }

    #[test]
    fn batched_estimate_is_bit_identical_to_reference() {
        // The batched path must reproduce the per-sample oracle's hit
        // counts exactly — across designs (plain and rate-switch
        // trajectories), thread counts, and odd sample counts that leave
        // partial chunks.
        let designs = [
            LevelDesign::four_level_naive(),
            LevelDesign::three_level_naive(),
        ];
        let times = [0.5, 32.0, 1024.0, 1.0e6, 1.0e13];
        for d in &designs {
            for (samples, threads) in [(10_007u64, 1usize), (3_001, 4)] {
                let fast = MonteCarloCer::new(samples, 99)
                    .with_threads(threads)
                    .estimate(d, &times);
                let slow = MonteCarloCer::new(samples, 99)
                    .with_threads(threads)
                    .estimate_reference(d, &times);
                for (pf, ps) in fast.points.iter().zip(&slow.points) {
                    for (a, b) in pf.per_state.iter().zip(&ps.per_state) {
                        assert_eq!(
                            a.hits, b.hits,
                            "{} samples={samples} threads={threads} t={}",
                            d.name, pf.t_secs
                        );
                    }
                    assert_eq!(pf.weighted_cer.to_bits(), ps.weighted_cer.to_bits());
                }
            }
        }
    }

    #[test]
    fn shard_sizes_cover_odd_sample_counts() {
        let d = LevelDesign::three_level_naive();
        let rep = MonteCarloCer::new(10_007, 3)
            .with_threads(3)
            .estimate(&d, &[2.0]);
        assert_eq!(rep.points[0].per_state[0].trials, 10_007);
    }
}
