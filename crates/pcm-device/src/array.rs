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
//! A cell keeps its trajectory as the fields of a [`PreparedTrajectory`]
//! less its regime-2 intercept, which the sense derives from the design's
//! rate switch; evaluation stays bit-identical to the sampled
//! [`DriftTrajectory`] (pcm-core's contract). Its wear — the remaining
//! cycle budget and the known fault — is one [`WearState`] word: a stuck
//! cell's resistance is a function of the fault.
//!
//! The array stores one record per cell, in one of two widths (DESIGN.md
//! §21). A 32-byte record holds what every sense reads: `logR0`, α1,
//! the write time and the wear word. Once a design with a §5.3 rate
//! switch programs a cell of the array, every record widens to 48 bytes
//! with the regime-2 fields, the crossing log-time `lc` and α2; a bank
//! whose organization has a switch builds the wide records from the
//! start. Until then every cell's `lc` is `+∞`, so a 4LC array holds 32
//! bytes per cell and its sense loads and evaluates regime 1 alone.
//!
//! Every normal the array draws — a cell's write and its lifetime —
//! comes from the bank's generator through the ziggurat sampler
//! ([`Xoshiro256pp::next_normal`]), one cell at a time in cell
//! order (DESIGN.md §19).
//!
//! [`DriftTrajectory`]: pcm_core::drift::DriftTrajectory

use pcm_core::cell::{WritePlan, WritePlans};
use pcm_core::drift::{log_time, PreparedTrajectory};
use pcm_core::level::LevelDesign;
use pcm_core::rng::Xoshiro256pp;
use pcm_wearout::fault::{EnduranceModel, FaultKind, WearState};
use std::hint::select_unpredictable;

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

/// The switch resistance a cell of `design` crosses into regime 2 at.
/// A design without a switch writes every cell with `lc = +∞`, so the
/// value is never used for it.
#[inline]
fn switch_logr(design: &LevelDesign) -> f64 {
    design.drift_switch.map_or(f64::NAN, |sw| sw.switch_logr)
}

/// The drift log-time of a cell written at `write_time`, sensed at
/// `now`. [`log_time`] is never negative, so this is already the `l`
/// that [`PreparedTrajectory::logr_at_log_time`] clamps at zero.
#[inline]
fn drift_log_time(now: f64, write_time: f64) -> f64 {
    log_time((now - write_time).max(0.0))
}

/// Log-resistance at drift log-time `l` of a healthy cell, for a cell
/// written under a design whose rate switch sits at `sw`: the same float
/// expressions as [`PreparedTrajectory::logr_at_log_time`], with its
/// `base` derived as [`DriftTrajectory::prepare`] does. With `lc = +∞`
/// this is regime 1, `logr0 + alpha1 * l`.
///
/// [`DriftTrajectory::prepare`]: pcm_core::drift::DriftTrajectory::prepare
#[inline(always)]
fn drifted(logr0: f64, alpha1: f64, lc: f64, alpha2: f64, l: f64, sw: f64) -> f64 {
    // Both regimes are evaluated and one is selected: which one holds is
    // random across a block's cells, so a branch would mispredict.
    let base = select_unpredictable(lc == 0.0, logr0.max(sw), sw);
    let regime2 = base + alpha2 * (l - lc);
    let regime1 = logr0 + alpha1 * l;
    select_unpredictable(l > lc, regime2, regime1)
}

/// `logr`, or the stuck level if `wear` records a fault.
#[inline(always)]
fn pinned(wear: WearState, logr: f64) -> f64 {
    match wear.fault() {
        Some(fault) => stuck_logr(fault),
        None => logr,
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

/// A flat array of physical cells: one column of `Cell` records, 32
/// bytes each, until a design with a rate switch first programs a cell;
/// from then on one column of `SwitchedCell` records, 48 bytes each.
#[derive(Debug)]
pub struct CellArray {
    cells: Column,
    endurance: EnduranceModel,
    rng: Xoshiro256pp,
}

/// The array's records, by what its designs need.
#[derive(Debug)]
enum Column {
    /// No design with a rate switch has written: every cell's `lc` is
    /// `+∞`, so a sense evaluates regime 1 alone.
    Plain(Vec<Cell>),
    /// Regime 2 stored next to each cell, as one record, so a write
    /// still stores one contiguous record per cell.
    Switched(Vec<SwitchedCell>),
}

/// The fields every sense reads: regime 1 of the trajectory, the write
/// time and the wear word.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Initial log10 resistance.
    logr0: f64,
    /// Regime-1 drift exponent.
    alpha1: f64,
    /// Absolute time of the cell's last successful write.
    write_time: f64,
    wear: WearState,
}

/// A [`Cell`] with the regime-2 half of its [`PreparedTrajectory`].
#[derive(Debug, Clone, Copy)]
struct SwitchedCell {
    cell: Cell,
    /// Crossing log-time into regime 2 (`+∞` when unreachable).
    lc: f64,
    /// Regime-2 drift exponent.
    alpha2: f64,
}

/// A record of a [`Column`]: one sense and one write body serve both.
trait Record {
    fn cell(&self) -> &Cell;
    fn cell_mut(&mut self) -> &mut Cell;
    /// Log-resistance at drift log-time `l` of the healthy cell, written
    /// under a design whose rate switch sits at `sw`.
    fn drifted(&self, l: f64, sw: f64) -> f64;
    /// Store the regime-2 half of `trajectory`.
    fn set_regime2(&mut self, trajectory: &PreparedTrajectory);
}

impl Record for Cell {
    #[inline(always)]
    fn cell(&self) -> &Cell {
        self
    }

    #[inline(always)]
    fn cell_mut(&mut self) -> &mut Cell {
        self
    }

    /// Regime 1: with `lc = +∞` the select of [`drifted`] always picks
    /// this expression.
    #[inline(always)]
    fn drifted(&self, l: f64, _sw: f64) -> f64 {
        self.logr0 + self.alpha1 * l
    }

    #[inline(always)]
    fn set_regime2(&mut self, trajectory: &PreparedTrajectory) {
        debug_assert_eq!(trajectory.lc, f64::INFINITY);
    }
}

impl SwitchedCell {
    /// `cell` with the regime 2 every cell has before a design with a
    /// rate switch writes it: `lc = +∞`, α2 = 0.
    fn erased(cell: Cell) -> Self {
        Self {
            cell,
            lc: f64::INFINITY,
            alpha2: 0.0,
        }
    }
}

impl Record for SwitchedCell {
    #[inline(always)]
    fn cell(&self) -> &Cell {
        &self.cell
    }

    #[inline(always)]
    fn cell_mut(&mut self) -> &mut Cell {
        &mut self.cell
    }

    #[inline(always)]
    fn drifted(&self, l: f64, sw: f64) -> f64 {
        let c = &self.cell;
        drifted(c.logr0, c.alpha1, self.lc, self.alpha2, l, sw)
    }

    #[inline(always)]
    fn set_regime2(&mut self, trajectory: &PreparedTrajectory) {
        self.lc = trajectory.lc;
        self.alpha2 = trajectory.alpha2;
    }
}

impl CellArray {
    /// Allocate `n` pristine cells (erased to the lowest state at t = 0,
    /// no drift until written), each with a lifetime drawn in cell order.
    pub fn new(n: usize, endurance: EnduranceModel, seed: u64) -> Self {
        Self::for_designs(n, endurance, seed, false)
    }

    /// [`Self::new`] for an array that designs with a rate switch will
    /// program when `switched`: its records then hold regime 2 from the
    /// start. A bank knows its organization's design, and widening the
    /// column at its first write would free the plain column and allocate
    /// the wider one in the middle of the device's life, so an array
    /// rebuilt later came from fresh pages (about 2000 page faults per
    /// `kv-a-3lc` set-up in perfbench, against none).
    pub(crate) fn for_designs(
        n: usize,
        endurance: EnduranceModel,
        seed: u64,
        switched: bool,
    ) -> Self {
        // pcm-lint: allow(no-ambient-nondeterminism) — deterministic stream: the seed is caller-provided, per the documented reproducibility contract
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let erased = pcm_core::drift::DriftTrajectory::simple(3.0, 0.0).prepare();
        let lifetime = endurance.lifetime_map();
        let cells = (0..n).map(|_| Cell {
            logr0: erased.logr0,
            alpha1: erased.alpha1,
            write_time: 0.0,
            wear: WearState::with_lifetime(lifetime(rng.next_normal())),
        });
        let cells = if switched {
            Column::Switched(cells.map(SwitchedCell::erased).collect())
        } else {
            Column::Plain(cells.collect())
        };
        Self {
            cells,
            endurance,
            rng,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        match &self.cells {
            Column::Plain(c) => c.len(),
            Column::Switched(c) => c.len(),
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn cell(&self, idx: usize) -> &Cell {
        match &self.cells {
            Column::Plain(c) => &c[idx],
            Column::Switched(c) => &c[idx].cell,
        }
    }

    fn cell_mut(&mut self, idx: usize) -> &mut Cell {
        match &mut self.cells {
            Column::Plain(c) => &mut c[idx],
            Column::Switched(c) => &mut c[idx].cell,
        }
    }

    /// Widen every record to a [`SwitchedCell`] before `design` writes, if
    /// it has a rate switch and the array's records lack regime 2: every
    /// cell gets the erased `lc = +∞`, α2 = 0 it implicitly had.
    fn hold_regime2(&mut self, design: &LevelDesign) {
        if let (Some(_), Column::Plain(cells)) = (design.drift_switch, &self.cells) {
            self.cells =
                Column::Switched(cells.iter().copied().map(SwitchedCell::erased).collect());
        }
    }

    /// Program cell `idx` to `state` of `design` at absolute time `now`.
    pub fn program(
        &mut self,
        idx: usize,
        design: &LevelDesign,
        state: usize,
        now: f64,
    ) -> ProgramOutcome {
        self.hold_regime2(design);
        let plan = WritePlan::new(design, state, design.write_tolerance_sigma);
        let (endurance, rng) = (&self.endurance, &mut self.rng);
        match &mut self.cells {
            Column::Plain(c) => program_cell(&mut c[idx], design, &plan, now, endurance, rng),
            Column::Switched(c) => program_cell(&mut c[idx], design, &plan, now, endurance, rng),
        }
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
        self.hold_regime2(design);
        let run = base..base + states.len();
        let (endurance, rng) = (&self.endurance, &mut self.rng);
        match &mut self.cells {
            Column::Plain(c) => program_run(&mut c[run], design, states, now, endurance, rng),
            Column::Switched(c) => program_run(&mut c[run], design, states, now, endurance, rng),
        }
    }

    /// Sense cell `idx` at absolute time `now` under `design`.
    pub fn sense(&self, idx: usize, design: &LevelDesign, now: f64) -> usize {
        design.sense(self.logr(idx, design, now))
    }

    /// Sense the cells `[base, base + out.len())` at absolute time `now`
    /// under `design`, writing each state index into `out`. Identical to
    /// calling [`Self::sense`] per cell, but the drift log-time is
    /// computed once per run of cells sharing a write time (a block's
    /// cells share one), and the design's thresholds are bound once per
    /// call: at one, two and three thresholds (SLC, 3LC, 4LC) they are
    /// held in registers and the compares unroll. While no design with a
    /// rate switch has written, only `logR0`, α1, the write time and the
    /// wear word are read.
    pub fn sense_range(&self, base: usize, design: &LevelDesign, now: f64, out: &mut [u8]) {
        debug_assert!(design.n_levels() <= 256, "state indices must fit in u8");
        match (design.thresholds.as_slice(), design.n_levels()) {
            (&[t0], 2) => self.sense_cells(base, design, now, out, |r| select([t0], r)),
            (&[t0, t1], 3) => self.sense_cells(base, design, now, out, |r| select([t0, t1], r)),
            (&[t0, t1, t2], 4) => {
                self.sense_cells(base, design, now, out, |r| select([t0, t1, t2], r))
            }
            _ => self.sense_cells(base, design, now, out, |r| design.sense(r)),
        }
    }

    /// [`Self::sense_range`] with `state` mapping a log-resistance to a
    /// state index.
    #[inline(always)]
    fn sense_cells(
        &self,
        base: usize,
        design: &LevelDesign,
        now: f64,
        out: &mut [u8],
        state: impl Fn(f64) -> usize,
    ) {
        let (run, sw) = (base..base + out.len(), switch_logr(design));
        match &self.cells {
            Column::Plain(c) => sense_run(&c[run], now, sw, out, state),
            Column::Switched(c) => sense_run(&c[run], now, sw, out, state),
        }
    }

    /// Raw analog log-resistance at time `now` of cell `idx`, which
    /// `design` wrote.
    pub fn logr(&self, idx: usize, design: &LevelDesign, now: f64) -> f64 {
        fn logr(record: &impl Record, now: f64, sw: f64) -> f64 {
            let c = record.cell();
            pinned(
                c.wear,
                record.drifted(drift_log_time(now, c.write_time), sw),
            )
        }
        let sw = switch_logr(design);
        match &self.cells {
            Column::Plain(c) => logr(&c[idx], now, sw),
            Column::Switched(c) => logr(&c[idx], now, sw),
        }
    }

    /// The cell's known fault, if any.
    pub fn fault(&self, idx: usize) -> Option<FaultKind> {
        self.cell(idx).wear.fault()
    }

    /// Force a cell's remaining lifetime (test/fault-injection hook).
    pub fn set_lifetime(&mut self, idx: usize, cycles: u64) {
        self.cell_mut(idx).wear.set_lifetime(cycles);
    }

    /// Write cycles cell `idx` has left before it wears out.
    pub fn wear_budget(&self, idx: usize) -> u64 {
        self.cell(idx).wear.budget()
    }
}

/// Sense `records` into `out` in one pass: the drift log-time is
/// recomputed only where a cell's write time differs in bits from the
/// previous cell's (the value the per-cell [`CellArray::logr`] computes
/// for each of them).
#[inline(always)]
fn sense_run<R: Record>(
    records: &[R],
    now: f64,
    sw: f64,
    out: &mut [u8],
    state: impl Fn(f64) -> usize,
) {
    let Some(first) = records.first() else {
        return;
    };
    let mut time = first.cell().write_time;
    let mut l = drift_log_time(now, time);
    for (r, s) in records.iter().zip(out) {
        let c = r.cell();
        if c.write_time.to_bits() != time.to_bits() {
            time = c.write_time;
            l = drift_log_time(now, time);
        }
        *s = state(pinned(c.wear, r.drifted(l, sw))) as u8;
    }
}

/// [`CellArray::program_range`] over the run's records.
#[inline(always)]
fn program_run<R: Record>(
    records: &mut [R],
    design: &LevelDesign,
    states: &[u8],
    now: f64,
    endurance: &EnduranceModel,
    rng: &mut Xoshiro256pp,
) -> RangeOutcome {
    let plans = WritePlans::new(design);
    let mut attempts = 0u64;
    for (k, (record, &s)) in records.iter_mut().zip(states).enumerate() {
        let plan = plans.get(usize::from(s));
        let out = program_cell(record, design, &plan, now, endurance, rng);
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

/// Program one cell by `plan`: the write's normals, then (if the write
/// wears the cell out) its fault kind, all from the array's generator.
/// The one per-cell body of [`CellArray::program`] and
/// [`CellArray::program_range`].
#[inline(always)]
fn program_cell(
    record: &mut impl Record,
    design: &LevelDesign,
    plan: &WritePlan,
    now: f64,
    endurance: &EnduranceModel,
    rng: &mut Xoshiro256pp,
) -> ProgramOutcome {
    let cell = record.cell_mut();
    if let Some(fault) = cell.wear.fault() {
        return program_stuck(cell, fault, design, plan.state(), endurance, rng);
    }
    let written = plan.write(|| rng.next_normal());
    let new_fault = cell
        .wear
        .wear(written.write_attempts as u64, endurance, rng);
    if let Some(fault) = new_fault {
        return ProgramOutcome {
            attempts: written.write_attempts,
            new_fault,
            verified: design.sense(stuck_logr(fault)) == plan.state(),
        };
    }
    set_trajectory(record, &written.trajectory.prepare(), now);
    ProgramOutcome {
        attempts: written.write_attempts,
        new_fault: None,
        verified: true,
    }
}

/// The record now holds `trajectory`, written at `now`.
#[inline(always)]
fn set_trajectory(record: &mut impl Record, trajectory: &PreparedTrajectory, now: f64) {
    let cell = record.cell_mut();
    cell.logr0 = trajectory.logr0;
    cell.alpha1 = trajectory.alpha1;
    cell.write_time = now;
    record.set_regime2(trajectory);
}

/// A known-stuck cell takes the pulse (and the wear) but verifies only if
/// the stuck level happens to sense as `state`. A renewed lifetime
/// (`set_lifetime`) can wear the cell out again: that draws a new fault
/// from the stream, but the cell stays pinned where its first fault put
/// it.
#[cold]
fn program_stuck(
    cell: &mut Cell,
    fault: FaultKind,
    design: &LevelDesign,
    state: usize,
    endurance: &EnduranceModel,
    rng: &mut Xoshiro256pp,
) -> ProgramOutcome {
    cell.wear.wear(1, endurance, rng);
    cell.wear.set_fault(Some(fault));
    ProgramOutcome {
        attempts: 1,
        new_fault: None,
        verified: design.sense(stuck_logr(fault)) == state,
    }
}

/// [`LevelDesign::sense`] over thresholds held by value, for a design
/// whose top state is `N`: the first threshold `logr` lies below, else
/// `N`. Every threshold is compared, each compare sets one bit, and the
/// lowest set bit is the state. That equals the select for any threshold
/// order and for NaN (no bit set), and leaves no branch to mispredict on a
/// block's random states (a chain of selects over constants gets folded
/// back into one).
#[inline(always)]
fn select<const N: usize>(thresholds: [f64; N], logr: f64) -> usize {
    let below = (0..N).fold(1u32 << N, |m, i| m | u32::from(logr < thresholds[i]) << i);
    below.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_core::drift::DriftTrajectory;
    use pcm_core::level::LevelDesign;

    fn array(n: usize) -> CellArray {
        CellArray::new(n, EnduranceModel::mlc(), 42)
    }

    #[test]
    fn four_level_array_allocates_no_switch_columns() {
        // Designs without a rate switch (4LC naive and optimal, SLC) keep
        // 32-byte records without `lc`/α2. The first write by a design
        // with a switch (3LC) widens every record, at `lc = +∞`.
        let mut a = array(400);
        let designs = [
            LevelDesign::four_level_naive(),
            pcm_core::optimize::four_level_optimal().clone(),
            LevelDesign::two_level(),
        ];
        for (i, d) in designs.iter().enumerate() {
            assert!(d.drift_switch.is_none(), "{}", d.name);
            let states: Vec<u8> = (0..100).map(|k| (k % d.n_levels()) as u8).collect();
            let mut done = 0;
            while done < states.len() {
                done += a
                    .program_range(100 * i + done, d, &states[done..], 1.0)
                    .programmed;
            }
            a.program(399, d, 1, 2.0);
        }
        assert!(matches!(a.cells, Column::Plain(_)));
        assert_eq!(std::mem::size_of::<Cell>(), 32);

        a.program(0, &LevelDesign::three_level_naive(), 0, 3.0);
        let Column::Switched(cells) = &a.cells else {
            panic!("a 3LC write adds regime 2");
        };
        assert_eq!(cells.len(), 400);
        assert_eq!(std::mem::size_of::<SwitchedCell>(), 48);
        assert!(cells[1..]
            .iter()
            .all(|c| c.lc == f64::INFINITY && c.alpha2 == 0.0));
        // A bank whose organization has a switch builds the wide records.
        let b = CellArray::for_designs(9, EnduranceModel::mlc(), 42, true);
        assert!(matches!(b.cells, Column::Switched(_)));
    }

    #[test]
    fn cell_sense_is_bit_identical_to_the_prepared_trajectory() {
        // 3LC designs carry the rate switch: cells start below, at and
        // above it, with zero and positive α1. A 4LC array keeps narrow
        // records until a switch design widens them, and senses the same
        // either way.
        for (d, gained_switch) in [
            (LevelDesign::three_level_naive(), true),
            (LevelDesign::four_level_naive(), false),
            (LevelDesign::four_level_naive(), true),
        ] {
            let sw = d.drift_switch.map(|s| s.switch_logr);
            let mut a = array(15);
            if gained_switch {
                a.hold_regime2(&LevelDesign::three_level_naive());
            }
            assert_eq!(matches!(a.cells, Column::Switched(_)), gained_switch);
            for (idx, (&logr0, &alpha1)) in [3.0, 4.2, 4.5, 4.8, 6.0]
                .iter()
                .flat_map(|r| [(r, &0.0), (r, &0.001), (r, &0.06)])
                .enumerate()
            {
                let tr = match sw {
                    Some(sw) => DriftTrajectory::with_switch(logr0, alpha1, sw, 0.1),
                    None => DriftTrajectory::simple(logr0, alpha1),
                };
                match &mut a.cells {
                    Column::Plain(c) => set_trajectory(&mut c[idx], &tr.prepare(), 5.0),
                    Column::Switched(c) => set_trajectory(&mut c[idx], &tr.prepare(), 5.0),
                }
                for now in [0.0, 5.0, 1024.0, 1e5, 3.2e8] {
                    let prepared = tr.prepare().logr_at_log_time(log_time(now - 5.0));
                    assert_eq!(
                        a.logr(idx, &d, now).to_bits(),
                        prepared.to_bits(),
                        "{} logR0 {logr0} α1 {alpha1} at {now}",
                        d.name
                    );
                    let mut sensed = [0u8];
                    a.sense_range(idx, &d, now, &mut sensed);
                    assert_eq!(usize::from(sensed[0]), d.sense(prepared));
                }
            }
        }
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
            for wear in (0..n).map(|i| a.cell(i).wear) {
                let expected = WearState::with_lifetime(lifetime(rng.next_normal()));
                assert_eq!(wear, expected, "{n} cells");
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
        let r_at_write = a.logr(0, &d, 1_000.0);
        let r_later = a.logr(0, &d, 1_000.0 + 1e6);
        assert!(r_later >= r_at_write);
        // Sensing *before* the write time must not apply negative drift.
        assert_eq!(a.logr(0, &d, 0.0), r_at_write);
    }

    #[test]
    fn rewrite_resets_drift_clock() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.program(0, &d, 2, 0.0);
        let drifted = a.logr(0, &d, 1e8);
        a.program(0, &d, 2, 1e8); // refresh rewrites to nominal
        let refreshed = a.logr(0, &d, 1e8);
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
    fn sense_range_matches_sense_across_layouts() {
        // An array that first sees only designs without a rate switch, then
        // widens to regime-2 records on 3LC writes to half of it. Every
        // third cell is short-lived, so all three stuck kinds appear; and a
        // write stops at the first fault it discovers, so a range holds old
        // and new write times side by side, as after a block write a fault
        // stopped. Four levels drift across a threshold within hours, so a
        // wrong log-time for any write time shows as a different state.
        let four = LevelDesign::four_level_naive();
        let three = LevelDesign::three_level_naive();
        let slc = LevelDesign::two_level();
        let mut a = array(600);
        for i in (0..600).step_by(3) {
            a.set_lifetime(i, 1 + i as u64 % 7);
        }
        let mut kinds = std::collections::HashSet::new();
        let mut write =
            |a: &mut CellArray, d: &LevelDesign, blocks: std::ops::Range<usize>, now: f64| {
                for b in blocks {
                    let states: Vec<u8> = (0..60)
                        .map(|k| ((k + b + now as usize) % d.n_levels()) as u8)
                        .collect();
                    kinds.extend(a.program_range(60 * b, d, &states, now).new_fault);
                }
            };
        let check = |a: &CellArray| {
            for d in [&four, &three, &slc] {
                for now in [0.0, 1024.0, 2e9 + 1e5, pcm_core::params::TEN_YEARS_SECS] {
                    for (base, len) in [(0, 600), (10, 290), (299, 1), (5, 0)] {
                        let mut out = vec![0u8; len];
                        a.sense_range(base, d, now, &mut out);
                        for (k, &s) in out.iter().enumerate() {
                            let i = base + k;
                            let state = a.sense(i, d, now);
                            assert_eq!(state, d.sense(a.logr(i, d, now)));
                            assert_eq!(usize::from(s), state, "{} cell {i} at {now}", d.name);
                        }
                    }
                }
            }
        };
        for now in [0.0, 1000.0, 2e9] {
            write(&mut a, &four, 0..10, now);
            write(&mut a, &slc, 8..10, now + 7.0);
        }
        assert!(matches!(a.cells, Column::Plain(_)));
        let times = (0..600).map(|i| a.cell(i).write_time.to_bits());
        let mixed = times.clone().zip(times.skip(1)).any(|(t, next)| t != next);
        assert!(mixed, "write times differ inside the array");
        check(&a);
        for now in [3.0, 2e9 + 3.0] {
            write(&mut a, &three, 0..5, now);
        }
        assert!(matches!(a.cells, Column::Switched(_)));
        check(&a);
        assert_eq!(kinds.len(), 3, "all three stuck kinds: {kinds:?}");
    }

    #[test]
    fn bound_select_is_the_design_sense() {
        // Sorted, unsorted and repeated thresholds, a NaN threshold, and
        // NaN / infinite resistances, at each count `sense_range` binds.
        let cases: [&[f64]; 7] = [
            &[4.5],
            &[f64::NAN],
            &[3.5, 5.5],
            &[5.5, 3.5],
            &[3.5, 4.5, 5.5],
            &[5.5, 3.5, 4.5],
            &[4.5, 4.5, f64::NAN],
        ];
        for thresholds in cases {
            let mut d = LevelDesign::four_level_naive();
            d.thresholds = thresholds.to_vec();
            d.states.truncate(thresholds.len() + 1);
            let bound = |logr: f64| match *thresholds {
                [t0] => select([t0], logr),
                [t0, t1] => select([t0, t1], logr),
                [t0, t1, t2] => select([t0, t1, t2], logr),
                _ => unreachable!(),
            };
            let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 4.5];
            for logr in (0..=100).map(|k| 2.0 + 0.05 * k as f64).chain(specials) {
                assert_eq!(bound(logr), d.sense(logr), "{thresholds:?} at {logr}");
            }
        }
    }

    #[test]
    fn wear_accumulates_per_attempt() {
        let d = LevelDesign::four_level_naive();
        let mut a = array(1);
        a.set_lifetime(0, 1000);
        for w in 0..50 {
            a.program(0, &d, 1, w as f64);
        }
        assert!(a.wear_budget(0) <= 950);
    }
}
