//! Multilevel-cell *level designs*: how many states a cell has, where their
//! nominal resistances sit, where the sensing thresholds lie, and how often
//! each state occurs in written data.
//!
//! The paper studies five designs (§5):
//!
//! * **4LCn** — naive four-level cell: nominals at log10 R = 3,4,5,6,
//!   thresholds midway (3.5, 4.5, 5.5), uniform occupancy.
//! * **4LCs** — same mapping, *smart encoding*: skewed occupancy
//!   35/15/15/35% so the vulnerable S2/S3 states are rarer.
//! * **4LCo** — optimal mapping (computed by [`crate::optimize`]) plus smart
//!   encoding.
//! * **3LCn** — S3 removed from the naive mapping; S2's region widens to the
//!   old τ3 = 5.5 boundary (S4 "is basically equal to the S4 in Figure 1").
//! * **3LCo** — optimal three-level mapping.
//!
//! A design also carries the conservative 3LC drift-rate switch (§5.3): when
//! a drifting cell's resistance crosses 10^4.5 Ω it adopts S3's faster drift
//! distribution.

use crate::math::special::{erf, normal_pdf};
use crate::params::{
    AlphaDistribution, StateLabel, DRIFT_SWITCH_LOGR, GUARD_BAND_SIGMA, SIGMA_LOGR,
    WRITE_TOLERANCE_SIGMA,
};

/// One programmable state of a level design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelState {
    /// Physical identity (selects the drift-α distribution from Table 1).
    pub label: StateLabel,
    /// Nominal log10 resistance this design programs the state to.
    pub nominal_logr: f64,
    /// Fraction of written cells that land in this state (encoding
    /// statistics; must sum to 1 across the design).
    pub occupancy: f64,
}

/// Conservative drift-rate acceleration for three-level cells (§5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSwitch {
    /// log10 resistance at which the switch engages (paper: 4.5).
    pub switch_logr: f64,
    /// Drift-exponent distribution used beyond the switch point
    /// (paper: S3's, µα = 0.06).
    pub alpha: AlphaDistribution,
}

impl Default for DriftSwitch {
    fn default() -> Self {
        Self {
            switch_logr: DRIFT_SWITCH_LOGR,
            alpha: StateLabel::S3.drift_alpha(),
        }
    }
}

/// A complete level design.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelDesign {
    /// Display name ("4LCn", "3LCo", …).
    pub name: String,
    /// States ordered by increasing nominal resistance.
    pub states: Vec<LevelState>,
    /// Sensing thresholds between adjacent states; `thresholds[i]`
    /// separates `states[i]` from `states[i+1]`.
    pub thresholds: Vec<f64>,
    /// σR of the written-cell log-resistance distribution.
    pub sigma_logr: f64,
    /// Program-and-verify acceptance half-width, in units of σR.
    pub write_tolerance_sigma: f64,
    /// Optional drift-rate switch (present on 3LC designs).
    pub drift_switch: Option<DriftSwitch>,
}

/// Errors produced by [`LevelDesign::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// Fewer than two states, or thresholds count != states - 1.
    Malformed(String),
    /// Nominal values or thresholds out of order.
    Ordering(String),
    /// A threshold violates the `µ + (2.75 + δ)σ` margin constraint (§5.1).
    Margin(String),
    /// State occupancies don't sum to 1.
    Occupancy(String),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Malformed(s) => write!(f, "malformed design: {s}"),
            DesignError::Ordering(s) => write!(f, "ordering violation: {s}"),
            DesignError::Margin(s) => write!(f, "margin violation: {s}"),
            DesignError::Occupancy(s) => write!(f, "occupancy violation: {s}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl LevelDesign {
    /// Generic constructor; validates the mapping.
    pub fn new(
        name: impl Into<String>,
        states: Vec<LevelState>,
        thresholds: Vec<f64>,
        drift_switch: Option<DriftSwitch>,
    ) -> Result<Self, DesignError> {
        let d = Self {
            name: name.into(),
            states,
            thresholds,
            sigma_logr: SIGMA_LOGR,
            write_tolerance_sigma: WRITE_TOLERANCE_SIGMA,
            drift_switch,
        };
        d.validate()?;
        Ok(d)
    }

    /// The naive four-level cell, Figure 1.
    pub fn four_level_naive() -> Self {
        Self::uniform_occupancy(
            "4LCn",
            &[
                StateLabel::S1,
                StateLabel::S2,
                StateLabel::S3,
                StateLabel::S4,
            ],
            &[3.0, 4.0, 5.0, 6.0],
            &[3.5, 4.5, 5.5],
            None,
        )
    }

    /// Smart-encoded four-level cell (4LCs, §5.1): same mapping as 4LCn but
    /// the encoder skews occupancy to 35% S1, 15% S2, 15% S3, 35% S4.
    pub fn four_level_smart() -> Self {
        let mut d = Self::four_level_naive();
        d.name = "4LCs".into();
        let occ = [0.35, 0.15, 0.15, 0.35];
        for (s, o) in d.states.iter_mut().zip(occ) {
            s.occupancy = o;
        }
        // pcm-lint: allow(no-panic-lib) — infallible: the built-in 4LC table is statically valid (exercised by tests)
        d.validate().expect("4LCs is a valid design");
        d
    }

    /// A two-level (SLC) cell: only the extreme states S1 and S4, threshold
    /// midway. Drift-immune for all practical horizons (S1 barely drifts;
    /// S4 has no upper threshold) — this is the mode the paper stores BCH
    /// check bits in "to prevent drift errors on the check bits" (§6.3).
    pub fn two_level() -> Self {
        Self::uniform_occupancy(
            "SLC",
            &[StateLabel::S1, StateLabel::S4],
            &[3.0, 6.0],
            &[4.5],
            None,
        )
    }

    /// The naive three-level cell (3LCn, §5.2): S3 removed from the naive
    /// mapping; S2's region extends to the old S3/S4 boundary at 5.5, and
    /// the drift-rate switch at 10^4.5 Ω is active.
    pub fn three_level_naive() -> Self {
        Self::uniform_occupancy(
            "3LCn",
            &[StateLabel::S1, StateLabel::S2, StateLabel::S4],
            &[3.0, 4.0, 6.0],
            &[3.5, 5.5],
            Some(DriftSwitch::default()),
        )
    }

    /// Build a design with uniform occupancy from raw mapping data.
    pub fn uniform_occupancy(
        name: &str,
        labels: &[StateLabel],
        nominals: &[f64],
        thresholds: &[f64],
        drift_switch: Option<DriftSwitch>,
    ) -> Self {
        assert_eq!(labels.len(), nominals.len());
        let occ = 1.0 / labels.len() as f64;
        let states = labels
            .iter()
            .zip(nominals)
            .map(|(&label, &nominal_logr)| LevelState {
                label,
                nominal_logr,
                occupancy: occ,
            })
            .collect();
        Self::new(name, states, thresholds.to_vec(), drift_switch)
            // pcm-lint: allow(no-panic-lib) — infallible for the built-in design tables this helper constructs; each is exercised by tests
            .unwrap_or_else(|e| panic!("invalid {name} design: {e}"))
    }

    /// Replace nominals (except the pinned first/last) and thresholds —
    /// used by the mapping optimizer. Occupancies, labels, σR, write
    /// tolerance, and the drift switch are all preserved.
    pub fn with_mapping(&self, nominals: &[f64], thresholds: &[f64]) -> Result<Self, DesignError> {
        assert_eq!(nominals.len(), self.states.len());
        let states = self
            .states
            .iter()
            .zip(nominals)
            .map(|(s, &n)| LevelState {
                nominal_logr: n,
                ..*s
            })
            .collect();
        let d = Self {
            name: self.name.clone(),
            states,
            thresholds: thresholds.to_vec(),
            sigma_logr: self.sigma_logr,
            write_tolerance_sigma: self.write_tolerance_sigma,
            drift_switch: self.drift_switch,
        };
        d.validate()?;
        Ok(d)
    }

    /// Check structural invariants and the §5.1 margin constraints.
    pub fn validate(&self) -> Result<(), DesignError> {
        let n = self.states.len();
        if n < 2 {
            return Err(DesignError::Malformed(format!("{n} states")));
        }
        if self.thresholds.len() != n - 1 {
            return Err(DesignError::Malformed(format!(
                "{} thresholds for {n} states",
                self.thresholds.len()
            )));
        }
        for w in self.states.windows(2) {
            if w[0].nominal_logr >= w[1].nominal_logr {
                return Err(DesignError::Ordering(format!(
                    "nominals {} >= {}",
                    w[0].nominal_logr, w[1].nominal_logr
                )));
            }
        }
        for w in self.thresholds.windows(2) {
            if w[0] >= w[1] {
                return Err(DesignError::Ordering(format!(
                    "thresholds {} >= {}",
                    w[0], w[1]
                )));
            }
        }
        // µi + (2.75+δ)σ < τi < µ(i+1) − (2.75+δ)σ. Allow a hair of
        // floating-point slack so optimizer outputs sitting exactly on the
        // constraint boundary still validate.
        let margin = (self.write_tolerance_sigma + GUARD_BAND_SIGMA) * self.sigma_logr;
        const SLACK: f64 = 1e-9;
        for (i, &tau) in self.thresholds.iter().enumerate() {
            let lo = self.states[i].nominal_logr + margin;
            let hi = self.states[i + 1].nominal_logr - margin;
            if tau < lo - SLACK || tau > hi + SLACK {
                return Err(DesignError::Margin(format!(
                    "τ{} = {tau} outside [{lo}, {hi}]",
                    i + 1
                )));
            }
        }
        let occ: f64 = self.states.iter().map(|s| s.occupancy).sum();
        if (occ - 1.0).abs() > 1e-9 || self.states.iter().any(|s| s.occupancy < 0.0) {
            return Err(DesignError::Occupancy(format!("sum = {occ}")));
        }
        Ok(())
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.states.len()
    }

    /// Ideal information capacity, log2(levels) bits per cell.
    pub fn ideal_bits_per_cell(&self) -> f64 {
        (self.n_levels() as f64).log2()
    }

    /// Map a sensed log-resistance to a state index: the first threshold
    /// it lies below, else the top state. Every threshold is compared
    /// (select, not early exit), since sensed states of a block are
    /// random and a data-dependent exit mispredicts.
    #[inline]
    pub fn sense(&self, logr: f64) -> usize {
        let mut state = self.n_levels() - 1;
        for (i, &t) in self.thresholds.iter().enumerate().rev() {
            if logr < t {
                state = i;
            }
        }
        state
    }

    /// Lower/upper sensing boundaries of state `i` (`None` at the extremes).
    pub fn region(&self, i: usize) -> (Option<f64>, Option<f64>) {
        let lo = if i == 0 {
            None
        } else {
            Some(self.thresholds[i - 1])
        };
        let hi = self.thresholds.get(i).copied();
        (lo, hi)
    }

    /// Program-and-verify acceptance window of state `i` in log10 R.
    pub fn write_window(&self, i: usize) -> (f64, f64) {
        let half = self.write_tolerance_sigma * self.sigma_logr;
        let mu = self.states[i].nominal_logr;
        (mu - half, mu + half)
    }

    /// Drift-error safety margin of state `i`: distance from the top of its
    /// write window to its upper threshold (∞ for the top state). This is
    /// the "drift error margin" annotated in Figures 2 and 7.
    pub fn drift_margin(&self, i: usize) -> f64 {
        match self.region(i).1 {
            Some(hi) => hi - self.write_window(i).1,
            None => f64::INFINITY,
        }
    }

    /// Occupancy-weighted pdf of written-cell log-resistance — the curves of
    /// Figures 1, 6 and 7. Each state contributes a truncated Gaussian
    /// (±2.75σ), renormalized.
    pub fn pdf(&self, logr: f64) -> f64 {
        let sigma = self.sigma_logr;
        let lim = self.write_tolerance_sigma;
        // Mass of N(0,1) within ±lim.
        let mass = erf(lim / std::f64::consts::SQRT_2);
        self.states
            .iter()
            .map(|s| {
                let z = (logr - s.nominal_logr) / sigma;
                if z.abs() > lim {
                    0.0
                } else {
                    s.occupancy * normal_pdf(z) / (sigma * mass)
                }
            })
            .sum()
    }

    /// Sample the pdf on a uniform grid (for plotting / CSV output).
    pub fn pdf_series(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        // pcm-lint: allow(no-panic-lib) — contract: a sweep needs two endpoints; call sites pass literals
        assert!(points >= 2);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.pdf(x))
            })
            .collect()
    }

    /// The drift-α distribution governing a cell written to state `i`.
    pub fn alpha_for_state(&self, i: usize) -> AlphaDistribution {
        self.states[i].label.drift_alpha()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_four_level_matches_figure1() {
        let d = LevelDesign::four_level_naive();
        assert_eq!(d.n_levels(), 4);
        assert_eq!(d.thresholds, vec![3.5, 4.5, 5.5]);
        assert_eq!(d.states[2].nominal_logr, 5.0);
        assert!(d.drift_switch.is_none());
        d.validate().unwrap();
    }

    #[test]
    fn smart_encoding_skews_occupancy() {
        let d = LevelDesign::four_level_smart();
        assert_eq!(d.states[0].occupancy, 0.35);
        assert_eq!(d.states[1].occupancy, 0.15);
        let total: f64 = d.states.iter().map(|s| s.occupancy).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_level_is_drift_immune_in_practice() {
        let d = LevelDesign::two_level();
        assert_eq!(d.n_levels(), 2);
        // S1's margin to 4.5 is ~1.04 log-decades; with µα = 0.001 the
        // crossing time is ~10^1000 seconds.
        assert!(d.drift_margin(0) > 1.0);
        assert_eq!(d.drift_margin(1), f64::INFINITY);
        d.validate().unwrap();
    }

    #[test]
    fn three_level_removes_s3() {
        let d = LevelDesign::three_level_naive();
        assert_eq!(d.n_levels(), 3);
        assert_eq!(
            d.states.iter().map(|s| s.label).collect::<Vec<_>>(),
            vec![StateLabel::S1, StateLabel::S2, StateLabel::S4]
        );
        assert_eq!(d.thresholds, vec![3.5, 5.5]);
        let sw = d.drift_switch.unwrap();
        assert_eq!(sw.switch_logr, 4.5);
        assert_eq!(sw.alpha.mu, 0.06);
    }

    #[test]
    fn three_level_s2_margin_is_wide() {
        let d3 = LevelDesign::three_level_naive();
        let d4 = LevelDesign::four_level_naive();
        // 3LC S2 margin: 5.5 - (4 + 2.75/6) ≈ 1.042 vs 4LC's ≈ 0.042.
        assert!(d3.drift_margin(1) > 1.0);
        assert!(d4.drift_margin(1) < 0.05);
        assert!(d4.drift_margin(2) < 0.05);
        assert_eq!(d4.drift_margin(3), f64::INFINITY);
    }

    #[test]
    fn sense_respects_thresholds() {
        let d = LevelDesign::four_level_naive();
        assert_eq!(d.sense(2.9), 0);
        assert_eq!(d.sense(3.49), 0);
        assert_eq!(d.sense(3.51), 1);
        assert_eq!(d.sense(4.7), 2);
        assert_eq!(d.sense(5.6), 3);
        assert_eq!(d.sense(99.0), 3);
    }

    #[test]
    fn sense_is_the_first_threshold_below() {
        // The early-exit original, on sorted, unsorted and repeated
        // thresholds and on NaN / infinite resistances.
        let first_below = |d: &LevelDesign, logr: f64| {
            d.thresholds
                .iter()
                .position(|&t| logr < t)
                .unwrap_or(d.n_levels() - 1)
        };
        let mut d = LevelDesign::four_level_naive();
        let orders: [[f64; 3]; 4] = [
            [3.5, 4.5, 5.5],
            [5.5, 3.5, 4.5],
            [4.5, 4.5, 3.5],
            [f64::NAN, 4.0, 5.0],
        ];
        for thresholds in orders {
            d.thresholds = thresholds.to_vec();
            for k in 0..=100 {
                let logr = 2.0 + 0.05 * k as f64;
                assert_eq!(
                    d.sense(logr),
                    first_below(&d, logr),
                    "{thresholds:?} at {logr}"
                );
            }
            for logr in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 4.5] {
                assert_eq!(
                    d.sense(logr),
                    first_below(&d, logr),
                    "{thresholds:?} at {logr}"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_bad_mappings() {
        let d = LevelDesign::four_level_naive();
        // Threshold too close to a nominal (margin violation).
        assert!(matches!(
            d.with_mapping(&[3.0, 4.0, 5.0, 6.0], &[3.2, 4.5, 5.5]),
            Err(DesignError::Margin(_))
        ));
        // Out-of-order nominals.
        assert!(d
            .with_mapping(&[3.0, 5.0, 4.0, 6.0], &[3.5, 4.5, 5.5])
            .is_err());
        // Out-of-order thresholds (also violates margins).
        assert!(d
            .with_mapping(&[3.0, 4.0, 5.0, 6.0], &[4.5, 3.9, 5.5])
            .is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Integrate piecewise over each truncation window: the pdf is
        // discontinuous at window edges, so one global rule would converge
        // only slowly there.
        use crate::math::GaussLegendre;
        let gl = GaussLegendre::new(64);
        for d in [
            LevelDesign::four_level_naive(),
            LevelDesign::four_level_smart(),
            LevelDesign::three_level_naive(),
        ] {
            let v: f64 = (0..d.n_levels())
                .map(|i| {
                    let (lo, hi) = d.write_window(i);
                    gl.integrate(lo, hi, |x| d.pdf(x))
                })
                .sum();
            assert!((v - 1.0).abs() < 1e-9, "{}: {v}", d.name);
        }
    }

    #[test]
    fn pdf_peaks_at_nominals() {
        let d = LevelDesign::four_level_naive();
        for s in &d.states {
            let at_peak = d.pdf(s.nominal_logr);
            let off_peak = d.pdf(s.nominal_logr + 0.1);
            assert!(at_peak > off_peak);
        }
    }

    #[test]
    fn with_mapping_preserves_custom_sigma() {
        // Regression: with_mapping must not reset σR to the Table 1
        // default — the §8 tighter-write-spread designs depend on it.
        let mut d = LevelDesign::four_level_naive();
        d.sigma_logr = 0.08;
        d.validate().unwrap();
        let remapped = d
            .with_mapping(&[3.0, 3.9, 4.9, 6.0], &[3.4, 4.4, 5.6])
            .unwrap();
        assert_eq!(remapped.sigma_logr, 0.08);
        // And a mapping feasible at σ=0.08 but not at σ=1/6 must pass.
        let tight = d.with_mapping(&[3.0, 3.6, 4.4, 6.0], &[3.3, 4.0, 5.0]);
        assert!(tight.is_ok(), "{tight:?}");
    }

    #[test]
    fn write_window_is_pm_2_75_sigma() {
        let d = LevelDesign::four_level_naive();
        let (lo, hi) = d.write_window(1);
        assert!((lo - (4.0 - 2.75 / 6.0)).abs() < 1e-12);
        assert!((hi - (4.0 + 2.75 / 6.0)).abs() < 1e-12);
    }
}
