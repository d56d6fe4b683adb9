//! The device's drift errors against the paper's error model.
//!
//! `tests/paper_claims.rs` checks the Figure 3 and Figure 8 error rates on
//! the `pcm-core` estimators. This oracle checks the cell array the device
//! runs on: blocks programmed through `CellArray::program_range` (the
//! block write path, with its own normal sampler) and sensed through
//! `CellArray::sense_range` (the block read path) must show the raw
//! per-state error rates of `cer::analytic` and the block failure rate of
//! the binomial `bler` chain, each inside a 99.9 % Wilson interval, for
//! the naive 4LC design (at 1024 s, 2¹⁵ s and one year) and the optimal
//! one with its rate switch (at 1024 s and 2¹⁵ s).

use mlc_pcm::core::bler::block_error_rate;
use mlc_pcm::core::cer::{AnalyticCer, CerEstimator};
use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::math::stats::Proportion;
use mlc_pcm::core::optimize::four_level_optimal;
use mlc_pcm::core::params::{REFRESH_17MIN_SECS, SECS_PER_YEAR};
use mlc_pcm::core::rng::Xoshiro256pp;
use mlc_pcm::device::CellArray;
use mlc_pcm::wearout::fault::EnduranceModel;

/// Cells of a 4LC block: 256 data + 50 BCH-10 parity.
const FOUR_LEVEL_BLOCK_CELLS: usize = 306;
/// Blocks programmed per design.
const BLOCKS: usize = 2048;

/// An array of `BLOCKS` blocks of `cells` cells, each programmed at t = 0
/// to independent uniform states (random data), and those states.
fn programmed(design: &LevelDesign, cells: usize, seed: u64) -> (CellArray, Vec<u8>) {
    let mut array = CellArray::new(BLOCKS * cells, EnduranceModel::mlc(), seed);
    let mut data = Xoshiro256pp::seed_from_u64(seed ^ 0xDA7A);
    let levels = design.n_levels() as u64;
    let states: Vec<u8> = (0..BLOCKS * cells)
        .map(|_| data.next_bounded(levels) as u8)
        .collect();
    for (b, block) in states.chunks(cells).enumerate() {
        let run = array.program_range(b * cells, design, block, 0.0);
        assert_eq!(run.programmed, cells, "no fresh cell wears out");
    }
    (array, states)
}

/// Whether the analytic rate `p` lies inside the 99.9 % Wilson interval
/// of `hits` out of `trials`.
fn inside(hits: u64, trials: u64, p: f64) -> Result<(), String> {
    let (lo, hi) = Proportion::new(hits, trials).wilson_interval(1e-3);
    if lo <= p && p <= hi {
        Ok(())
    } else {
        Err(format!(
            "{hits}/{trials} = {:.4e}, 99.9% CI [{lo:.4e}, {hi:.4e}], analytic {p:.4e}",
            hits as f64 / trials as f64
        ))
    }
}

/// Per-state raw errors of `design`'s 4LC blocks at each of `horizons`
/// against `cer::analytic`, and blocks with more than ten errors against
/// the `bler` chain.
fn four_level_errors_match_the_analytic_model(design: &LevelDesign, horizons: &[f64]) {
    let (array, states) = programmed(design, FOUR_LEVEL_BLOCK_CELLS, 0x4C4E);
    let analytic = AnalyticCer::default();
    let mut sensed = vec![0u8; FOUR_LEVEL_BLOCK_CELLS];
    let mut failures = Vec::new();
    for &t in horizons {
        let levels = design.n_levels();
        let (mut errors, mut cells) = (vec![0u64; levels], vec![0u64; levels]);
        let mut failed_blocks = 0u64;
        for (b, block) in states.chunks(FOUR_LEVEL_BLOCK_CELLS).enumerate() {
            array.sense_range(b * FOUR_LEVEL_BLOCK_CELLS, design, t, &mut sensed);
            let mut block_errors = 0;
            for (&want, &got) in block.iter().zip(&sensed) {
                cells[usize::from(want)] += 1;
                errors[usize::from(want)] += u64::from(want != got);
                block_errors += u64::from(want != got);
            }
            // BCH-10 corrects up to ten errors per block.
            failed_blocks += u64::from(block_errors > 10);
        }
        let per_state: Vec<f64> = (0..levels)
            .map(|s| analytic.state_cer(design, s, t))
            .collect();
        for (s, &p) in per_state.iter().enumerate() {
            if let Err(e) = inside(errors[s], cells[s], p) {
                failures.push(format!("S{} at {t} s: {e}", s + 1));
            }
        }
        // Random data fills the states uniformly, whatever occupancy the
        // design's data encoding would give them (4LCo's smart encoding
        // puts 35 % of cells in S1 and S4 each), so a cell errs at the
        // states' plain mean rate.
        let cer = per_state.iter().sum::<f64>() / levels as f64;
        let bler = block_error_rate(cer, 10, FOUR_LEVEL_BLOCK_CELLS as u64);
        if let Err(e) = inside(failed_blocks, BLOCKS as u64, bler) {
            failures.push(format!("BLER at {t} s: {e}"));
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

#[test]
fn four_level_naive_errors_match_the_analytic_model() {
    // At one year the S2 and S3 rates (≈10⁻² to 0.5) are large enough to
    // measure, and nearly every block is past BCH-10.
    four_level_errors_match_the_analytic_model(
        &LevelDesign::four_level_naive(),
        &[REFRESH_17MIN_SECS, 2f64.powi(15), SECS_PER_YEAR],
    );
}

#[test]
fn four_level_optimal_errors_match_the_analytic_model() {
    // The 4LC design with the §5.3 rate switch, as the aged-KV and scrub
    // benchmarks run it.
    four_level_errors_match_the_analytic_model(
        four_level_optimal(),
        &[REFRESH_17MIN_SECS, 2f64.powi(15)],
    );
}

#[test]
fn three_level_cells_hold_a_year() {
    // 3LC's per-cell error rate at one year is far below one in the
    // ≈725k cells programmed here (§5.3): none may err.
    let design = LevelDesign::three_level_naive();
    let cells = 354;
    let (array, states) = programmed(&design, cells, 0x334C);
    let mut sensed = vec![0u8; cells];
    let mut errors = 0;
    for (b, block) in states.chunks(cells).enumerate() {
        array.sense_range(b * cells, &design, SECS_PER_YEAR, &mut sensed);
        errors += block.iter().zip(&sensed).filter(|(a, b)| a != b).count();
    }
    let expected = AnalyticCer::default().cer(&design, SECS_PER_YEAR) * states.len() as f64;
    assert!(expected < 0.01, "analytic expectation {expected}");
    assert_eq!(errors, 0, "3LC cells erred within a year");
}
