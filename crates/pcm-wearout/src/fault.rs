//! PCM wearout-failure and endurance models (§6.4).
//!
//! MLC-PCM endures ~10⁵ write cycles (vs ~10⁸ for SLC), and every
//! program-and-verify iteration is a cycle, so wearout dominates lifetime.
//! A worn cell fails in one of two modes \[6\]:
//!
//! * **stuck-reset** — permanently at the highest-resistance state (S4);
//! * **stuck-set** — cannot be RESET to S4. A reverse-current pulse can
//!   usually *revive* such a cell into S4 \[12\]; a non-revivable stuck-set
//!   cell must be absorbed by the block's transient-error ECC (§6.4).
//!
//! Endurance per cell is lognormal (the standard wear model): median
//! `median_cycles`, log₁₀ spread `sigma_log10`.

use pcm_core::rng::Xoshiro256pp;

/// Failure mode of a worn-out cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Stuck at the highest-resistance state (reads as S4 forever).
    StuckReset,
    /// Cannot be RESET; revivable by reverse current with high probability.
    StuckSet {
        /// Whether the reverse-current revival succeeds for this cell.
        revivable: bool,
    },
}

impl FaultKind {
    /// After the §6.4 handling (reverse current applied to stuck-set
    /// cells), can this cell be *forced to S4* so that its pair can be
    /// marked INV?
    pub fn can_force_s4(self) -> bool {
        match self {
            FaultKind::StuckReset => true,
            FaultKind::StuckSet { revivable } => revivable,
        }
    }
}

/// Endurance (wearout) model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    /// Median write-cycle lifetime (paper: 10⁵ for MLC, 10⁸ for SLC).
    pub median_cycles: f64,
    /// Lognormal spread of the lifetime, in decades.
    pub sigma_log10: f64,
    /// Probability a wearout manifests as stuck-reset (vs stuck-set).
    pub p_stuck_reset: f64,
    /// Probability a stuck-set cell is revivable by reverse current.
    pub p_revivable: f64,
}

impl EnduranceModel {
    /// MLC endurance per §6.4 (10⁵ cycles).
    pub fn mlc() -> Self {
        Self {
            median_cycles: 1e5,
            sigma_log10: 0.25,
            p_stuck_reset: 0.5,
            p_revivable: 0.9,
        }
    }

    /// SLC endurance per §6.4 (10⁸ cycles) — used for the SLC-mode check
    /// bits, which effectively never wear out relative to the data cells.
    pub fn slc() -> Self {
        Self {
            median_cycles: 1e8,
            ..Self::mlc()
        }
    }

    /// Sample a cell's lifetime in write cycles.
    pub fn sample_lifetime(&self, rng: &mut Xoshiro256pp) -> u64 {
        self.lifetime_map()(rng.next_normal())
    }

    /// The map from a cell's standard-normal endurance draw to its
    /// lifetime in write cycles — [`Self::sample_lifetime`]'s, with
    /// `log10(median)` computed once for callers that map many draws
    /// (a device cell array maps one per cell when it is built).
    pub fn lifetime_map(&self) -> impl Fn(f64) -> u64 + Copy {
        let (log10_median, sigma_log10) = (self.median_cycles.log10(), self.sigma_log10);
        move |z| 10f64.powf(log10_median + sigma_log10 * z).round().max(1.0) as u64
    }

    /// Sample the failure mode at wearout.
    pub fn sample_fault(&self, rng: &mut Xoshiro256pp) -> FaultKind {
        if rng.next_f64() < self.p_stuck_reset {
            FaultKind::StuckReset
        } else {
            FaultKind::StuckSet {
                revivable: rng.next_f64() < self.p_revivable,
            }
        }
    }
}

/// Longest lifetime a [`WearState`] holds, in write cycles (2⁶² − 1);
/// longer lifetimes are clamped to it.
pub const MAX_LIFETIME: u64 = (1 << 62) - 1;

/// Per-cell wear bookkeeping, packed in one word so a cell array pays
/// 8 bytes per cell for it: the remaining write-cycle budget in the low
/// 62 bits and the fault code in the top 2 (0 healthy, 1 stuck-reset,
/// 2 revivable stuck-set, 3 non-revivable stuck-set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearState(u64);

impl FaultKind {
    /// The 2-bit code a [`WearState`] stores for this fault.
    fn code(self) -> u64 {
        match self {
            FaultKind::StuckReset => 1,
            FaultKind::StuckSet { revivable: true } => 2,
            FaultKind::StuckSet { revivable: false } => 3,
        }
    }
}

impl WearState {
    /// Fresh cell with a sampled lifetime.
    pub fn new(model: &EnduranceModel, rng: &mut Xoshiro256pp) -> Self {
        Self::with_lifetime(model.sample_lifetime(rng))
    }

    /// Fresh cell with a lifetime of `lifetime` write cycles (clamped at
    /// [`MAX_LIFETIME`]).
    pub fn with_lifetime(lifetime: u64) -> Self {
        Self(lifetime.min(MAX_LIFETIME))
    }

    /// Write cycles left before the cell wears out (0 once worn).
    #[inline]
    pub fn budget(&self) -> u64 {
        self.0 & MAX_LIFETIME
    }

    /// The cell's known failure mode (sampled at its first wearout).
    #[inline]
    pub fn fault(&self) -> Option<FaultKind> {
        match self.0 >> 62 {
            0 => None,
            1 => Some(FaultKind::StuckReset),
            2 => Some(FaultKind::StuckSet { revivable: true }),
            _ => Some(FaultKind::StuckSet { revivable: false }),
        }
    }

    /// Record `fault` as the cell's failure mode.
    pub fn set_fault(&mut self, fault: Option<FaultKind>) {
        self.0 = self.budget() | fault.map_or(0, FaultKind::code) << 62;
    }

    /// Give the cell a fresh budget of `lifetime` cycles (clamped at
    /// [`MAX_LIFETIME`]); its known fault, if any, stays.
    pub fn set_lifetime(&mut self, lifetime: u64) {
        self.0 = (self.0 & !MAX_LIFETIME) | lifetime.min(MAX_LIFETIME);
    }

    /// Charge `n` write cycles; returns the fault if this write wore the
    /// cell out (exactly once — later calls return `None` again).
    #[inline]
    pub fn wear(
        &mut self,
        n: u64,
        model: &EnduranceModel,
        rng: &mut Xoshiro256pp,
    ) -> Option<FaultKind> {
        let wears_out = self.wears_out_after(n);
        self.0 = (self.0 & !MAX_LIFETIME) | self.budget().saturating_sub(n);
        if wears_out {
            let fault = model.sample_fault(rng);
            self.set_fault(Some(fault));
            return Some(fault);
        }
        None
    }

    /// Whether charging `n` more cycles wears the cell out — the write
    /// [`Self::wear`] reports as a new fault, drawing its kind from the
    /// stream.
    #[inline]
    pub fn wears_out_after(&self, n: u64) -> bool {
        !self.is_worn() && n >= self.budget()
    }

    /// Whether the cell has exhausted its endurance.
    #[inline]
    pub fn is_worn(&self) -> bool {
        self.budget() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_centered_on_median() {
        let model = EnduranceModel::mlc();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut log_sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            log_sum += (model.sample_lifetime(&mut rng) as f64).log10();
        }
        let mean_log = log_sum / n as f64;
        assert!(
            (mean_log - 5.0).abs() < 0.02,
            "mean log10 lifetime {mean_log}"
        );
    }

    #[test]
    fn slc_outlives_mlc_by_orders_of_magnitude() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let slc = EnduranceModel::slc().sample_lifetime(&mut rng);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mlc = EnduranceModel::mlc().sample_lifetime(&mut rng);
        // The same quantile, 3 decades apart, up to the rounding of each
        // lifetime to whole cycles (half a cycle of MLC life is 500 of SLC).
        assert!(
            slc.abs_diff(1000 * mlc) <= 501,
            "SLC {slc} vs 1000 × MLC {mlc}"
        );
    }

    #[test]
    fn wear_triggers_exactly_once() {
        let model = EnduranceModel::mlc();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut cell = WearState::new(&model, &mut rng);
        cell.set_lifetime(10);
        assert!(cell.wear(9, &model, &mut rng).is_none());
        assert!(!cell.is_worn());
        assert_eq!(cell.budget(), 1);
        let fault = cell.wear(1, &model, &mut rng);
        assert!(fault.is_some());
        assert!(cell.is_worn());
        assert!(cell.wear(5, &model, &mut rng).is_none(), "no double report");
        assert_eq!(cell.fault(), fault);
    }

    #[test]
    fn wear_word_round_trips_every_fault_and_clamps_the_budget() {
        let kinds = [
            None,
            Some(FaultKind::StuckReset),
            Some(FaultKind::StuckSet { revivable: true }),
            Some(FaultKind::StuckSet { revivable: false }),
        ];
        for fault in kinds {
            for lifetime in [0, 1, 12345, MAX_LIFETIME, u64::MAX] {
                let mut cell = WearState::with_lifetime(lifetime);
                cell.set_fault(fault);
                assert_eq!(cell.fault(), fault);
                assert_eq!(cell.budget(), lifetime.min(MAX_LIFETIME));
                cell.set_lifetime(7);
                assert_eq!((cell.fault(), cell.budget()), (fault, 7));
            }
        }
        assert_eq!(std::mem::size_of::<WearState>(), 8);
    }

    #[test]
    fn fault_mix_matches_probabilities() {
        let model = EnduranceModel::mlc();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut reset = 0;
        let mut set_revivable = 0;
        let mut set_dead = 0;
        for _ in 0..10_000 {
            match model.sample_fault(&mut rng) {
                FaultKind::StuckReset => reset += 1,
                FaultKind::StuckSet { revivable: true } => set_revivable += 1,
                FaultKind::StuckSet { revivable: false } => set_dead += 1,
            }
        }
        assert!((reset as f64 / 10_000.0 - 0.5).abs() < 0.02);
        // 90% of stuck-set cells revivable.
        let frac = set_revivable as f64 / (set_revivable + set_dead) as f64;
        assert!((frac - 0.9).abs() < 0.02, "{frac}");
    }

    #[test]
    fn force_s4_semantics() {
        assert!(FaultKind::StuckReset.can_force_s4());
        assert!(FaultKind::StuckSet { revivable: true }.can_force_s4());
        assert!(!FaultKind::StuckSet { revivable: false }.can_force_s4());
    }
}
