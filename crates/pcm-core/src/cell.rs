//! The stochastic single-cell model: programming (iterative
//! write-and-verify, §2.2) and sensing under drift.
//!
//! A written cell is fully described by its [`DriftTrajectory`]: the
//! program-and-verify outcome `logR0` (truncated Gaussian around the
//! design's nominal value) and its per-cell drift exponent(s) (Gaussian per
//! Table 1). Sensing at time `t` compares the drifted log-resistance against
//! the design's thresholds.

use crate::drift::DriftTrajectory;
use crate::level::{DriftSwitch, LevelDesign};
use crate::params::AlphaDistribution;
use crate::rng::{truncate_normal, Xoshiro256pp};

/// Outcome of programming one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrittenCell {
    /// State index the cell was programmed to.
    pub state: usize,
    /// Sampled drift path.
    pub trajectory: DriftTrajectory,
    /// Number of program-and-verify iterations the write took (≥ 1); each
    /// iteration costs one wear cycle in the endurance model.
    pub write_attempts: u32,
}

/// Program a cell to `state` under `design`, sampling the write outcome and
/// the cell's drift exponent(s).
pub fn write_cell(design: &LevelDesign, state: usize, rng: &mut Xoshiro256pp) -> WrittenCell {
    write_cell_with_tolerance(design, state, design.write_tolerance_sigma, rng)
}

/// Like [`write_cell`] but with an explicit program-and-verify acceptance
/// window (in σ units). This models §6.7's *Bandwidth-Enhanced 3LC*
/// (Seong et al. \[29\]): relaxing the verify window on S2 cuts the
/// expected number of iterative write pulses — higher write bandwidth —
/// at the cost of cells written closer to the threshold, i.e. earlier
/// drift errors. The `ablate-relaxed-write` experiment quantifies the
/// trade.
pub fn write_cell_with_tolerance(
    design: &LevelDesign,
    state: usize,
    tolerance_sigma: f64,
    rng: &mut Xoshiro256pp,
) -> WrittenCell {
    WritePlan::new(design, state, tolerance_sigma).write(|| rng.next_normal())
}

/// Everything a write to one state reads from its design, hoisted out of
/// per-cell loops: the nominal `logR0`, σR, the program-and-verify
/// window, the α distribution and, below it, the §5.3 rate switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePlan {
    state: usize,
    nominal_logr: f64,
    sigma_logr: f64,
    tolerance_sigma: f64,
    alpha: AlphaDistribution,
    /// The §5.3 rate switch, for states programmed below it.
    switch: Option<DriftSwitch>,
}

impl WritePlan {
    /// The plan for writing `state` of `design` with a program-and-verify
    /// window of ±`tolerance_sigma`.
    pub fn new(design: &LevelDesign, state: usize, tolerance_sigma: f64) -> Self {
        // pcm-lint: allow(no-panic-lib) — write contract: the target state comes from a validated LevelDesign
        assert!(state < design.n_levels(), "state {state} out of range");
        // pcm-lint: allow(no-panic-lib) — write contract: the write tolerance is a positive design parameter
        assert!(tolerance_sigma > 0.0);
        let nominal_logr = design.states[state].nominal_logr;
        Self {
            state,
            nominal_logr,
            sigma_logr: design.sigma_logr,
            tolerance_sigma,
            alpha: design.alpha_for_state(state),
            switch: design
                .drift_switch
                .filter(|sw| nominal_logr < sw.switch_logr),
        }
    }

    /// The state this plan writes.
    #[inline]
    pub fn state(&self) -> usize {
        self.state
    }

    /// Program one cell from the standard normals `next` yields, in
    /// [`write_cell`]'s draw order: the truncated-Gaussian `logR0`
    /// (re-drawn until it lands within the window, §2.2), then α1, then α2.
    /// This is the only write kernel; `#[inline(always)]` keeps the normal
    /// source's state in registers.
    #[inline(always)]
    pub fn write(&self, mut next: impl FnMut() -> f64) -> WrittenCell {
        let (z, attempts) = truncate_normal(self.tolerance_sigma, &mut next);
        let logr0 = self.nominal_logr + z * self.sigma_logr;
        // Drift exponents are Gaussian per Table 1 but clamped at zero:
        // resistance only ever increases ("Once a cell is programmed ...
        // the cell resistance increases over time", §1). The Gaussian's
        // negative tail is a model artifact; the guard band δ covers any
        // slow downward relaxation (§5.1).
        let alpha1 = (self.alpha.mu + self.alpha.sigma * next()).max(0.0);
        let trajectory = match self.switch {
            Some(sw) => {
                let alpha2 = (sw.alpha.mu + sw.alpha.sigma * next()).max(0.0);
                DriftTrajectory::with_switch(logr0, alpha1, sw.switch_logr, alpha2)
            }
            None => DriftTrajectory::simple(logr0, alpha1),
        };
        WrittenCell {
            state: self.state,
            trajectory,
            write_attempts: attempts,
        }
    }
}

/// The [`WritePlan`] of each state of a design at its own write
/// tolerance, built once per run of cells.
#[derive(Debug, Clone)]
pub struct WritePlans<'a> {
    design: &'a LevelDesign,
    table: [Option<WritePlan>; 8],
}

impl<'a> WritePlans<'a> {
    /// Plans for `design`'s first eight states; any further state is
    /// planned on demand.
    pub fn new(design: &'a LevelDesign) -> Self {
        let tolerance = design.write_tolerance_sigma;
        Self {
            design,
            table: std::array::from_fn(|s| {
                (s < design.n_levels()).then(|| WritePlan::new(design, s, tolerance))
            }),
        }
    }

    /// The plan for `state`.
    #[inline]
    pub fn get(&self, state: usize) -> WritePlan {
        match self.table.get(state) {
            Some(Some(plan)) => *plan,
            _ => WritePlan::new(self.design, state, self.design.write_tolerance_sigma),
        }
    }
}

/// Sense a written cell at absolute time `t_secs` after programming.
pub fn sense_at(design: &LevelDesign, cell: &WrittenCell, t_secs: f64) -> usize {
    design.sense(cell.trajectory.logr_at(t_secs))
}

/// Whether the cell reads back a different state than was written
/// (a *drift error*, §2.4) at time `t_secs`.
pub fn is_error_at(design: &LevelDesign, cell: &WrittenCell, t_secs: f64) -> bool {
    sense_at(design, cell, t_secs) != cell.state
}

/// Retention time of this specific cell: seconds until its sensed state
/// first differs from the written one (`None` = never, e.g. the top state).
///
/// With drift exponents clamped at zero (resistance never decreases), the
/// only error mechanism is crossing the state's *upper* threshold.
pub fn retention_secs(design: &LevelDesign, cell: &WrittenCell) -> Option<f64> {
    design
        .region(cell.state)
        .1
        .and_then(|h| cell.trajectory.time_to_reach(h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LevelDesign;
    use crate::rng::Xoshiro256pp;

    #[test]
    fn write_lands_in_window() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for state in 0..4 {
            for _ in 0..1000 {
                let c = write_cell(&d, state, &mut rng);
                let (lo, hi) = d.write_window(state);
                assert!(c.trajectory.logr0 >= lo && c.trajectory.logr0 <= hi);
                assert_eq!(sense_at(&d, &c, 0.0), state, "reads back at t=0");
            }
        }
    }

    #[test]
    fn s4_never_errs_upward() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..2000 {
            let c = write_cell(&d, 3, &mut rng);
            assert!(!is_error_at(&d, &c, 1e15));
        }
    }

    #[test]
    fn s1_rarely_errs() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let errors = (0..10_000)
            .filter(|_| is_error_at(&d, &write_cell(&d, 0, &mut rng), 1e6))
            .count();
        assert_eq!(errors, 0, "S1 drift is negligible at 12 days");
    }

    #[test]
    fn s3_errs_much_faster_than_s2() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let t = 1024.0; // 17 minutes
        let n = 200_000;
        let e2 = (0..n)
            .filter(|_| is_error_at(&d, &write_cell(&d, 1, &mut rng), t))
            .count();
        let e3 = (0..n)
            .filter(|_| is_error_at(&d, &write_cell(&d, 2, &mut rng), t))
            .count();
        assert!(e3 > 4 * e2, "S3 ({e3}) should dominate S2 ({e2})");
        assert!(e3 > 1000, "S3 error rate should be percent-level at 17 min");
    }

    #[test]
    fn three_level_s2_survives_years() {
        let d = LevelDesign::three_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let one_year = 3.156e7;
        let errors = (0..100_000)
            .filter(|_| is_error_at(&d, &write_cell(&d, 1, &mut rng), one_year))
            .count();
        assert!(
            errors <= 2,
            "3LCn S2 CER at 1 year should be < ~1e-5, got {errors}"
        );
    }

    #[test]
    fn three_level_cells_get_switch_trajectories() {
        let d = LevelDesign::three_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let c = write_cell(&d, 1, &mut rng);
        assert!(
            c.trajectory.switch.is_some(),
            "S2 below 4.5 carries the switch"
        );
        let top = write_cell(&d, 2, &mut rng);
        assert!(
            top.trajectory.switch.is_none(),
            "S4 starts above the switch point"
        );
    }

    #[test]
    fn retention_matches_error_onset() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut checked = 0;
        for _ in 0..5000 {
            let c = write_cell(&d, 2, &mut rng);
            if let Some(t) = retention_secs(&d, &c) {
                if t < 1e12 {
                    assert!(!is_error_at(&d, &c, t * 0.99));
                    assert!(is_error_at(&d, &c, t * 1.01));
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "expected many finite retention times for S3");
    }

    #[test]
    fn relaxed_writes_take_fewer_iterations_but_land_wider() {
        // §6.7's bandwidth-enhanced trade: a 4σ acceptance window accepts
        // almost every first pulse, while the standard 2.75σ window
        // rejects ~0.6% — and the relaxed population has cells beyond
        // 2.75σ of nominal.
        let d = LevelDesign::three_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let n = 50_000;
        let mut tight_attempts = 0u64;
        let mut relaxed_attempts = 0u64;
        let mut beyond = 0u64;
        for _ in 0..n {
            tight_attempts += write_cell(&d, 1, &mut rng).write_attempts as u64;
            let c = write_cell_with_tolerance(&d, 1, 4.0, &mut rng);
            relaxed_attempts += c.write_attempts as u64;
            if (c.trajectory.logr0 - 4.0).abs() > 2.75 * d.sigma_logr {
                beyond += 1;
            }
        }
        assert!(relaxed_attempts < tight_attempts);
        assert!(
            beyond > 0,
            "relaxed writes must land outside the tight window"
        );
    }

    #[test]
    fn error_is_monotone_once_crossed_for_positive_alpha() {
        let d = LevelDesign::four_level_naive();
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        for _ in 0..3000 {
            let c = write_cell(&d, 2, &mut rng);
            if c.trajectory.alpha1 > 0.0 && is_error_at(&d, &c, 1e4) {
                assert!(is_error_at(&d, &c, 1e6));
                assert!(is_error_at(&d, &c, 1e9));
            }
        }
    }
}
