//! The resistance-drift law (Eq. 1): `R(t) = R0 · (t/t0)^α`.
//!
//! In the log10 domain the law is linear in log-time:
//! `log R(t) = log R0 + α · log10(t/t0)`,
//! which is why the paper notes that "logR grows as log t" and why widening
//! the inter-state gap buys exponentially longer retention (§5.1).
//!
//! Three-level designs add the conservative rate switch of §5.3: once a
//! drifting cell's resistance crosses 10^4.5 Ω, the remaining drift uses
//! S3's faster α distribution. [`DriftTrajectory`] models both regimes as an
//! exact piecewise-linear path in (log t, log R) space.

use crate::params::DRIFT_T0_SECS;

/// Convert absolute time in seconds to the drift law's log-time coordinate
/// `L = log10(t / t0)`. Times at or before `t0` (and NaN) have not drifted
/// yet; they return `0.0` without evaluating `log10`, which for the common
/// `t = 0` of a frozen clock is the slow divide-by-zero path. The result is
/// bit-identical to `(t / t0).log10().max(0.0)` for every input.
#[inline]
pub fn log_time(t_secs: f64) -> f64 {
    if t_secs > DRIFT_T0_SECS {
        (t_secs / DRIFT_T0_SECS).log10().max(0.0)
    } else {
        0.0
    }
}

/// Plain (single-regime) drift: log-resistance after `t_secs`.
pub fn drift_logr(logr0: f64, alpha: f64, t_secs: f64) -> f64 {
    logr0 + alpha * log_time(t_secs)
}

/// A single cell's deterministic drift path once its write outcome
/// (`logr0`) and drift exponents have been sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftTrajectory {
    /// Initial log10 resistance (program-and-verify outcome).
    pub logr0: f64,
    /// Drift exponent in the first regime.
    pub alpha1: f64,
    /// Optional `(switch_logr, alpha2)` second regime (3LC conservatism).
    pub switch: Option<(f64, f64)>,
}

impl DriftTrajectory {
    /// A trajectory without a rate switch.
    pub fn simple(logr0: f64, alpha: f64) -> Self {
        Self {
            logr0,
            alpha1: alpha,
            switch: None,
        }
    }

    /// A trajectory with the §5.3 rate switch. If the cell already starts
    /// above `switch_logr` the second exponent applies from the beginning.
    pub fn with_switch(logr0: f64, alpha1: f64, switch_logr: f64, alpha2: f64) -> Self {
        Self {
            logr0,
            alpha1,
            switch: Some((switch_logr, alpha2)),
        }
    }

    /// Log-time at which the trajectory crosses the switch resistance
    /// (`None` if it never does, or if there is no switch).
    fn switch_log_time(&self) -> Option<f64> {
        let (sw, _) = self.switch?;
        if self.logr0 >= sw {
            return Some(0.0);
        }
        if self.alpha1 <= 0.0 {
            return None; // never reaches the switch point
        }
        Some((sw - self.logr0) / self.alpha1)
    }

    /// Log-resistance at log-time `l = log10(t/t0) ≥ 0`.
    pub fn logr_at_log_time(&self, l: f64) -> f64 {
        let l = l.max(0.0);
        match (self.switch, self.switch_log_time()) {
            (Some((sw, alpha2)), Some(lc)) if l > lc => {
                let base = if lc == 0.0 { self.logr0.max(sw) } else { sw };
                base + alpha2 * (l - lc)
            }
            _ => self.logr0 + self.alpha1 * l,
        }
    }

    /// Log-resistance after `t_secs` of drift.
    pub fn logr_at(&self, t_secs: f64) -> f64 {
        self.logr_at_log_time(log_time(t_secs))
    }

    /// Log-time at which the trajectory first reaches `target` log10 R
    /// (`None` if it never does). Inverse of [`Self::logr_at_log_time`].
    pub fn log_time_to_reach(&self, target: f64) -> Option<f64> {
        if self.logr_at_log_time(0.0) >= target {
            return Some(0.0);
        }
        match (self.switch, self.switch_log_time()) {
            (Some((sw, alpha2)), Some(lc)) if target > sw => {
                // Must pass through the switch first, then climb in regime 2.
                if alpha2 <= 0.0 {
                    return None;
                }
                let base = if lc == 0.0 { self.logr0.max(sw) } else { sw };
                Some(lc + (target - base) / alpha2)
            }
            _ => {
                if self.alpha1 <= 0.0 {
                    None
                } else {
                    Some((target - self.logr0) / self.alpha1)
                }
            }
        }
    }

    /// Absolute time in seconds to reach `target` log10 R.
    ///
    /// Returns `None` when the trajectory never reaches the target, **or**
    /// when the log-time is so large that `t0 · 10^l` overflows `f64`
    /// (shallow drift toward a far target): a non-finite instant is
    /// indistinguishable from "never" for every scheduler decision, and
    /// propagating `inf` into time arithmetic poisons comparisons.
    pub fn time_to_reach(&self, target: f64) -> Option<f64> {
        self.log_time_to_reach(target)
            .map(|l| DRIFT_T0_SECS * 10f64.powf(l))
            .filter(|t| t.is_finite())
    }

    /// Flatten this trajectory for batched evaluation.
    #[inline]
    pub fn prepare(&self) -> PreparedTrajectory {
        match (self.switch, self.switch_log_time()) {
            (Some((sw, alpha2)), Some(lc)) => PreparedTrajectory {
                logr0: self.logr0,
                alpha1: self.alpha1,
                lc,
                base: if lc == 0.0 { self.logr0.max(sw) } else { sw },
                alpha2,
            },
            _ => PreparedTrajectory {
                logr0: self.logr0,
                alpha1: self.alpha1,
                // No switch (or never crossed): the +∞ sentinel makes the
                // regime-2 branch unreachable without a separate flag.
                lc: f64::INFINITY,
                base: 0.0,
                alpha2: 0.0,
            },
        }
    }
}

/// A [`DriftTrajectory`] flattened into plain `f64` fields for tight,
/// auto-vectorizable batch loops (the Monte-Carlo CER sampler evaluates
/// millions of these per time grid).
///
/// The switch decision is folded into a precomputed crossing log-time `lc`
/// (`+∞` when there is no switch or it is never crossed), so evaluation is
/// one compare and one fused multiply-add chain per point. **Bit-identity
/// contract:** [`PreparedTrajectory::logr_at_log_time`] computes exactly
/// the same float expressions as [`DriftTrajectory::logr_at_log_time`] —
/// same operations, same order — so a prepared evaluation can replace the
/// original inside the deterministic MC sampler without changing a single
/// sampled bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedTrajectory {
    /// Initial log10 resistance.
    pub logr0: f64,
    /// Regime-1 drift exponent.
    pub alpha1: f64,
    /// Crossing log-time into regime 2 (`+∞` when unreachable).
    pub lc: f64,
    /// Log-resistance at the crossing (regime-2 intercept).
    pub base: f64,
    /// Regime-2 drift exponent.
    pub alpha2: f64,
}

impl PreparedTrajectory {
    /// Log-resistance at log-time `l`; bit-identical to
    /// [`DriftTrajectory::logr_at_log_time`] on the source trajectory.
    #[inline]
    pub fn logr_at_log_time(&self, l: f64) -> f64 {
        let l = l.max(0.0);
        if l > self.lc {
            self.base + self.alpha2 * (l - self.lc)
        } else {
            self.logr0 + self.alpha1 * l
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_time_pre_t0_shortcut_is_bit_identical() {
        let old = |t: f64| (t / DRIFT_T0_SECS).log10().max(0.0);
        let inputs = [
            0.0,
            -0.0,
            -1.0,
            f64::from_bits(1), // smallest subnormal
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1), // next_up(1.0)
            1024.0,
            1e300,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
        ];
        for t in inputs {
            assert_eq!(log_time(t).to_bits(), old(t).to_bits(), "t = {t:e}");
        }
    }

    #[test]
    fn no_drift_before_t0() {
        let tr = DriftTrajectory::simple(4.0, 0.05);
        assert_eq!(tr.logr_at(0.5), 4.0);
        assert_eq!(tr.logr_at(1.0), 4.0);
    }

    #[test]
    fn log_linear_growth() {
        let tr = DriftTrajectory::simple(4.0, 0.02);
        // After 10^5 seconds: 4.0 + 0.02*5 = 4.1.
        assert!((tr.logr_at(1e5) - 4.1).abs() < 1e-12);
        // Drift in *linear* R: R(t) = 1e4 * t^0.02.
        let r = 10f64.powf(tr.logr_at(100.0));
        assert!((r - 1e4 * 100f64.powf(0.02)).abs() / r < 1e-12);
    }

    #[test]
    fn drift_rate_decreases_with_time() {
        // dR/dt = α R0 t^(α-1) must be monotonically decreasing (§1).
        let tr = DriftTrajectory::simple(4.0, 0.06);
        let r = |t: f64| 10f64.powf(tr.logr_at(t));
        let slope = |t: f64| (r(t * 1.001) - r(t)) / (t * 0.001);
        assert!(slope(10.0) > slope(100.0));
        assert!(slope(100.0) > slope(10_000.0));
    }

    #[test]
    fn time_to_reach_inverts_logr_at() {
        let tr = DriftTrajectory::simple(4.2, 0.03);
        let t = tr.time_to_reach(4.5).unwrap();
        assert!((tr.logr_at(t) - 4.5).abs() < 1e-9);
        // 0.3 / 0.03 = 10 decades.
        assert!((t - 1e10).abs() / 1e10 < 1e-9);
    }

    #[test]
    fn zero_alpha_never_reaches() {
        let tr = DriftTrajectory::simple(4.0, 0.0);
        assert_eq!(tr.time_to_reach(4.01), None);
        assert_eq!(tr.logr_at(1e30), 4.0);
    }

    #[test]
    fn negative_alpha_drifts_down() {
        let tr = DriftTrajectory::simple(4.0, -0.01);
        assert!(tr.logr_at(1e6) < 4.0);
        assert_eq!(tr.time_to_reach(4.5), None);
    }

    #[test]
    fn switch_accelerates_after_crossing() {
        // S2 cell at 4.3, slow α1=0.02; switch at 4.5 to α2=0.06.
        let tr = DriftTrajectory::with_switch(4.3, 0.02, 4.5, 0.06);
        let lc = (4.5 - 4.3) / 0.02; // 10 decades
        assert!((tr.logr_at_log_time(lc) - 4.5).abs() < 1e-12);
        // 2 decades past the switch: 4.5 + 0.06*2 = 4.62 (not 4.54).
        assert!((tr.logr_at_log_time(lc + 2.0) - 4.62).abs() < 1e-12);
        // Continuity at the switch.
        let eps = 1e-9;
        assert!((tr.logr_at_log_time(lc + eps) - tr.logr_at_log_time(lc - eps)).abs() < 1e-7);
    }

    #[test]
    fn switch_time_to_reach_piecewise() {
        let tr = DriftTrajectory::with_switch(4.3, 0.02, 4.5, 0.06);
        // Reaching 5.5 needs 10 decades to switch + (1.0/0.06) decades after.
        let l = tr.log_time_to_reach(5.5).unwrap();
        assert!((l - (10.0 + 1.0 / 0.06)).abs() < 1e-9);
        // Below the switch, regime 1 applies.
        let l2 = tr.log_time_to_reach(4.4).unwrap();
        assert!((l2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn starts_above_switch_uses_fast_rate_immediately() {
        let tr = DriftTrajectory::with_switch(4.6, 0.02, 4.5, 0.06);
        // One decade: 4.6 + 0.06.
        assert!((tr.logr_at_log_time(1.0) - 4.66).abs() < 1e-12);
    }

    #[test]
    fn switch_with_stalled_first_regime_never_crosses() {
        let tr = DriftTrajectory::with_switch(4.0, 0.0, 4.5, 0.06);
        assert_eq!(tr.time_to_reach(5.0), None);
        assert_eq!(tr.logr_at(1e20), 4.0);
    }

    #[test]
    fn time_to_reach_never_returns_non_finite() {
        // Shallow drift toward a far target: l = 100/1e-4 = 1e6 decades,
        // and 10^1e6 overflows f64. Before the fix this returned Some(inf).
        let tr = DriftTrajectory::simple(4.0, 1e-4);
        assert_eq!(
            tr.time_to_reach(104.0),
            None,
            "overflowed instant must be None"
        );
        // The log-domain inverse itself still reports the crossing.
        assert!(tr.log_time_to_reach(104.0).unwrap() > 0.0);
        // Boundary: 10^l finite (l ≈ 308) → still Some and finite.
        let near = DriftTrajectory::simple(4.0, 0.1);
        let t = near.time_to_reach(34.0).unwrap(); // l = 300 decades
        assert!(t.is_finite() && t > 0.0);
        // Just past the representable range → None, not inf.
        assert_eq!(near.time_to_reach(35.5), None); // l = 315 decades
    }

    #[test]
    fn prepared_is_bit_identical_to_source() {
        // Every trajectory shape: plain, switch-crossing, starts-above,
        // stalled-below-switch, negative alpha. Compare raw bits.
        let trs = [
            DriftTrajectory::simple(4.0, 0.033),
            DriftTrajectory::simple(4.0, -0.01),
            DriftTrajectory::simple(4.0, 0.0),
            DriftTrajectory::with_switch(4.3, 0.02, 4.5, 0.06),
            DriftTrajectory::with_switch(4.6, 0.02, 4.5, 0.06),
            DriftTrajectory::with_switch(4.0, 0.0, 4.5, 0.06),
            DriftTrajectory::with_switch(4.0, -0.02, 4.5, 0.06),
        ];
        for tr in &trs {
            let prep = tr.prepare();
            for i in 0..2000 {
                let l = -1.0 + i as f64 * 0.017;
                assert_eq!(
                    prep.logr_at_log_time(l).to_bits(),
                    tr.logr_at_log_time(l).to_bits(),
                    "{tr:?} at l={l}"
                );
            }
        }
    }
}
