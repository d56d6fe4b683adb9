//! The physical cell array: per-cell analog state with drift, wear, and
//! stuck-at faults.
//!
//! Each cell stores its ground truth — the program-and-verify outcome
//! `logR0`, its sampled drift exponents, the absolute write time — so a
//! sense at any later time reproduces the exact drift law the paper's
//! Monte Carlo uses. Wearout is charged per program-and-verify iteration;
//! a worn cell becomes stuck (stuck-reset at the top state, stuck-set at
//! the bottom unless revived, §6.4).
//!
//! A cell keeps its trajectory as a [`PreparedTrajectory`], whose
//! evaluation is bit-identical to the sampled [`DriftTrajectory`]
//! (pcm-core's contract), and its known fault lives only in its
//! [`WearState`]: a stuck cell's resistance is a function of the fault.
//!
//! Every normal the array draws — a cell's write and its lifetime —
//! comes from the bank's generator through the ziggurat sampler
//! ([`Xoshiro256pp::next_ziggurat_normal`]), one cell at a time in cell
//! order (DESIGN.md §19).
//!
//! [`DriftTrajectory`]: pcm_core::drift::DriftTrajectory

use pcm_core::cell::{WritePlan, WritePlans};
use pcm_core::drift::{log_time, PreparedTrajectory};
use pcm_core::level::LevelDesign;
use pcm_core::rng::Xoshiro256pp;
use pcm_wearout::fault::{EnduranceModel, FaultKind, WearState};

/// One physical cell.
#[derive(Debug, Clone)]
pub struct PhysicalCell {
    trajectory: PreparedTrajectory,
    write_time: f64,
    wear: WearState,
}

/// §6.4 failure semantics: stuck-reset pins the cell at the amorphous
/// extreme; stuck-set pins it crystalline unless the reverse-current
/// revival can force it to S4.
fn stuck_logr(fault: FaultKind) -> f64 {
    if fault.can_force_s4() {
        6.0
    } else {
        3.0
    }
}

impl PhysicalCell {
    /// Log-resistance at drift log-time `l` (pinned if the cell is stuck).
    #[inline]
    fn logr_at_log_time(&self, l: f64) -> f64 {
        match self.wear.fault {
            Some(fault) => stuck_logr(fault),
            None => self.trajectory.logr_at_log_time(l),
        }
    }
}

/// Outcome of programming one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOutcome {
    /// Program-and-verify iterations consumed (wear cycles).
    pub attempts: u32,
    /// A wearout fault discovered *by this write* (write-and-verify is the
    /// detection point, §6.4). `None` if the cell is healthy or its fault
    /// was already known.
    pub new_fault: Option<FaultKind>,
    /// Whether the cell now holds the requested state (false for stuck
    /// cells that could not be forced there).
    pub verified: bool,
}

/// Outcome of programming a run of cells with
/// [`CellArray::program_range`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeOutcome {
    /// Cells programmed, from the start of the run: all of them, or up to
    /// and including the first one that discovered a new fault.
    pub programmed: usize,
    /// Program-and-verify iterations across those cells.
    pub attempts: u64,
    /// The fault the last programmed cell discovered, if any.
    pub new_fault: Option<FaultKind>,
}

/// A flat array of physical cells.
#[derive(Debug)]
pub struct CellArray {
    cells: Vec<PhysicalCell>,
    endurance: EnduranceModel,
    rng: Xoshiro256pp,
}

impl CellArray {
    /// Allocate `n` pristine cells (erased to the lowest state at t = 0,
    /// no drift until written), each with a lifetime drawn in cell order.
    pub fn new(n: usize, endurance: EnduranceModel, seed: u64) -> Self {
        // pcm-lint: allow(no-ambient-nondeterminism) — deterministic stream: the seed is caller-provided, per the documented reproducibility contract
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let erased = pcm_core::drift::DriftTrajectory::simple(3.0, 0.0).prepare();
        let lifetime = endurance.lifetime_map();
        let cells = (0..n)
            .map(|_| PhysicalCell {
                trajectory: erased,
                write_time: 0.0,
                wear: WearState::with_lifetime(lifetime(rng.next_ziggurat_normal())),
            })
            .collect();
        Self {
            cells,
            endurance,
            rng,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Program cell `idx` to `state` of `design` at absolute time `now`.
    pub fn program(
        &mut self,
        idx: usize,
        design: &LevelDesign,
        state: usize,
        now: f64,
    ) -> ProgramOutcome {
        let plan = WritePlan::new(design, state, design.write_tolerance_sigma);
        self.program_cell(idx, design, &plan, now)
    }

    /// Program the cells `[base, base + states.len())` to `states` under
    /// `design` at absolute time `now`, stopping after the first cell whose
    /// write discovers a new fault so the caller can react to it (mark a
    /// pair, take an ECP entry) before the rest are programmed.
    ///
    /// The same as calling [`Self::program`] on each cell in turn: both
    /// run one per-cell body, and this one only hoists the per-state
    /// [`WritePlans`] out of the loop.
    pub fn program_range(
        &mut self,
        base: usize,
        design: &LevelDesign,
        states: &[u8],
        now: f64,
    ) -> RangeOutcome {
        let plans = WritePlans::new(design);
        let mut attempts = 0u64;
        for (k, &s) in states.iter().enumerate() {
            let out = self.program_cell(base + k, design, &plans.get(usize::from(s)), now);
            attempts += u64::from(out.attempts);
            if out.new_fault.is_some() {
                return RangeOutcome {
                    programmed: k + 1,
                    attempts,
                    new_fault: out.new_fault,
                };
            }
        }
        RangeOutcome {
            programmed: states.len(),
            attempts,
            new_fault: None,
        }
    }

    /// Program cell `idx` by `plan`: the write's normals, then (if the
    /// write wears the cell out) its fault kind, all from the array's
    /// generator.
    #[inline(always)]
    fn program_cell(
        &mut self,
        idx: usize,
        design: &LevelDesign,
        plan: &WritePlan,
        now: f64,
    ) -> ProgramOutcome {
        if let Some(fault) = self.cells[idx].wear.fault {
            return self.program_stuck(idx, fault, design, plan.state());
        }
        let rng = &mut self.rng;
        let written = plan.write(|| rng.next_ziggurat_normal());
        let cell = &mut self.cells[idx];
        let new_fault = cell
            .wear
            .wear(written.write_attempts as u64, &self.endurance, rng);
        if let Some(fault) = new_fault {
            return ProgramOutcome {
                attempts: written.write_attempts,
                new_fault,
                verified: design.sense(stuck_logr(fault)) == plan.state(),
            };
        }
        cell.trajectory = written.trajectory.prepare();
        cell.write_time = now;
        ProgramOutcome {
            attempts: written.write_attempts,
            new_fault: None,
            verified: true,
        }
    }

    /// A known-stuck cell takes the pulse (and the wear) but verifies only
    /// if the stuck level happens to sense as `state`. A renewed lifetime
    /// (`set_lifetime`) can wear the cell out again: that draws a new
    /// fault from the stream, but the cell stays pinned where its first
    /// fault put it.
    #[cold]
    fn program_stuck(
        &mut self,
        idx: usize,
        fault: FaultKind,
        design: &LevelDesign,
        state: usize,
    ) -> ProgramOutcome {
        let cell = &mut self.cells[idx];
        cell.wear.wear(1, &self.endurance, &mut self.rng);
        cell.wear.fault = Some(fault);
        ProgramOutcome {
            attempts: 1,
            new_fault: None,
            verified: design.sense(stuck_logr(fault)) == state,
        }
    }

    /// Sense cell `idx` at absolute time `now` under `design`.
    pub fn sense(&self, idx: usize, design: &LevelDesign, now: f64) -> usize {
        design.sense(self.logr(idx, now))
    }

    /// Sense the cells `[base, base + out.len())` at absolute time `now`
    /// under `design`, writing each state index into `out`. Identical to
    /// calling [`Self::sense`] per cell, but the drift log-time is
    /// computed once per distinct write time (a block's cells share one),
    /// not once per cell.
    pub fn sense_range(&self, base: usize, design: &LevelDesign, now: f64, out: &mut [u8]) {
        debug_assert!(design.n_levels() <= 256, "state indices must fit in u8");
        // (write-time bits, log-time). A NaN write time has log-time 0 at
        // any `now`, so seeding the memo with one is never wrong.
        let mut memo = (f64::NAN.to_bits(), 0.0);
        for (cell, state) in self.cells[base..base + out.len()].iter().zip(out) {
            if cell.write_time.to_bits() != memo.0 {
                let l = log_time((now - cell.write_time).max(0.0));
                memo = (cell.write_time.to_bits(), l);
            }
            *state = design.sense(cell.logr_at_log_time(memo.1)) as u8;
        }
    }

    /// Raw analog log-resistance of cell `idx` at time `now`.
    pub fn logr(&self, idx: usize, now: f64) -> f64 {
        let cell = &self.cells[idx];
        cell.logr_at_log_time(log_time((now - cell.write_time).max(0.0)))
    }

    /// The cell's known fault, if any.
    pub fn fault(&self, idx: usize) -> Option<FaultKind> {
        self.cells[idx].wear.fault
    }

    /// Force a cell's remaining lifetime (test/fault-injection hook).
    pub fn set_lifetime(&mut self, idx: usize, cycles: u64) {
        self.cells[idx].wear.lifetime = cycles;
        self.cells[idx].wear.cycles = 0;
    }

    /// Wear cycles consumed by cell `idx`.
    pub fn wear_cycles(&self, idx: usize) -> u64 {
        self.cells[idx].wear.cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::level::LevelDesign;

    fn array(n: usize) -> CellArray {
        CellArray::new(n, EnduranceModel::mlc(), 42)
    }

    #[test]
    fn physical_cell_is_72_bytes() {
        // Prepared trajectory (40) + write time (8) + wear state (24): the
        // fault is stored once and the stuck level derived from it.
        assert_eq!(std::mem::size_of::<PhysicalCell>(), 72);
    }

    #[test]
    fn new_draws_the_per_cell_lifetimes() {
        // One ziggurat normal per cell, in cell order, mapped through the
        // endurance model's lifetime map; the generator then continues
        // right after the last one.
        let model = EnduranceModel::mlc();
        let lifetime = model.lifetime_map();
        for n in [0, 1, 255, 256, 257, 1000] {
            let mut a = CellArray::new(n, model, 9);
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            for cell in &a.cells {
                let expected = WearState::with_lifetime(lifetime(rng.next_ziggurat_normal()));
                assert_eq!(cell.wear, expected, "{n} cells");
            }
            assert_eq!(a.rng.next_u64(), rng.next_u64(), "{n} cells");
        }
    }

    #[test]
    fn program_then_sense_roundtrip() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(100);
        for i in 0..100 {
            let state = i % 3;
            let out = a.program(i, &d, state, 0.0);
            assert!(out.verified);
            assert_eq!(a.sense(i, &d, 0.0), state);
        }
    }

    #[test]
    fn drift_is_relative_to_write_time() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.program(0, &d, 2, 1_000.0);
        let r_at_write = a.logr(0, 1_000.0);
        let r_later = a.logr(0, 1_000.0 + 1e6);
        assert!(r_later >= r_at_write);
        // Sensing *before* the write time must not apply negative drift.
        assert_eq!(a.logr(0, 0.0), r_at_write);
    }

    #[test]
    fn rewrite_resets_drift_clock() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.program(0, &d, 2, 0.0);
        let drifted = a.logr(0, 1e8);
        a.program(0, &d, 2, 1e8); // refresh rewrites to nominal
        let refreshed = a.logr(0, 1e8);
        // Fresh write lands inside the ±2.75σ window around 5.0 again.
        assert!(refreshed < 5.0 + 2.76 / 6.0, "{refreshed} after {drifted}");
    }

    #[test]
    fn wearout_discovered_by_write_verify() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(1);
        a.set_lifetime(0, 3);
        let mut fault = None;
        for w in 0..10 {
            let out = a.program(0, &d, 1, w as f64);
            if out.new_fault.is_some() {
                fault = out.new_fault;
                break;
            }
        }
        let fault = fault.expect("lifetime of 3 must wear out within 10 writes");
        assert_eq!(a.fault(0), Some(fault));
        // Once stuck, senses a constant state regardless of target.
        let s_now = a.sense(0, &d, 100.0);
        a.program(0, &d, (s_now + 1) % 3, 100.0);
        assert_eq!(a.sense(0, &d, 1e9), s_now);
    }

    #[test]
    fn stuck_reset_reads_top_state() {
        let d = LevelDesign::three_level_naive();
        let mut a = array(200);
        let mut saw_reset = false;
        let mut saw_dead_set = false;
        for i in 0..200 {
            a.set_lifetime(i, 1);
            let out = a.program(i, &d, 0, 0.0);
            match out.new_fault {
                Some(FaultKind::StuckReset) | Some(FaultKind::StuckSet { revivable: true }) => {
                    assert_eq!(a.sense(i, &d, 0.0), 2, "forced to S4");
                    assert!(!out.verified, "S4 is not the requested S1");
                    saw_reset = true;
                }
                Some(FaultKind::StuckSet { revivable: false }) => {
                    assert_eq!(a.sense(i, &d, 0.0), 0, "pinned crystalline");
                    assert!(out.verified, "S1 happened to be the target");
                    saw_dead_set = true;
                }
                None => panic!("lifetime 1 must fail on first write"),
            }
        }
        assert!(saw_reset && saw_dead_set, "both modes exercised");
    }

    #[test]
    fn sense_range_matches_sense_on_every_stuck_kind() {
        // Four levels: drift moves states within hours, so a wrong
        // log-time for any write time shows up as a different state.
        let d = LevelDesign::four_level_naive();
        let mut a = array(300);
        let mut kinds = std::collections::HashSet::new();
        for i in 0..300 {
            if i % 2 == 0 {
                a.set_lifetime(i, 1);
            }
            // Write times 0, 1000 and 2e9: mixed within every range, and
            // later than the 1024 s sense time for a third of the cells.
            let out = a.program(i, &d, i % 4, [0.0, 1000.0, 2e9][i % 3]);
            kinds.extend(out.new_fault);
        }
        assert_eq!(kinds.len(), 3, "all three stuck kinds: {kinds:?}");
        for now in [0.0, 1024.0, pcm_core::params::TEN_YEARS_SECS] {
            let mut out = vec![0u8; 290];
            a.sense_range(10, &d, now, &mut out);
            for (k, &s) in out.iter().enumerate() {
                assert_eq!(
                    usize::from(s),
                    a.sense(10 + k, &d, now),
                    "cell {} at {now}",
                    10 + k
                );
            }
        }
    }

    #[test]
    fn wear_accumulates_per_attempt() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        for w in 0..50 {
            a.program(0, &d, 1, w as f64);
        }
        assert!(a.wear_cycles(0) >= 50);
    }
}
