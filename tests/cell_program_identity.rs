//! The cell-programming bit-identity oracle.
//!
//! `CellArray::program_range` (a device block write, one normal draw at a
//! time over hoisted per-state plans) must reproduce per-cell
//! `CellArray::program`, which runs the same per-cell body: the same
//! values, bit for bit, and the generator left at the same point of its
//! stream. The property below runs the two paths side by side from one
//! seed and compares everything they produce, then draws once more on
//! both sides.

use mlc_pcm::core::level::{LevelDesign, LevelState};
use mlc_pcm::core::optimize::{four_level_optimal, three_level_optimal};
use mlc_pcm::core::params::{StateLabel, TEN_YEARS_SECS};
use mlc_pcm::device::{CellArray, RangeOutcome};
use mlc_pcm::wearout::fault::EnduranceModel;
use proptest::prelude::*;

/// An evenly spaced `levels`-level design over log10 R ∈ [3, 6] with no
/// rate switch: the generic-organization shape, and (at ten levels) more
/// states than the hoisted write-plan table holds.
fn evenly_spaced(levels: usize, sigma_logr: f64) -> LevelDesign {
    let labels = [
        StateLabel::S1,
        StateLabel::S2,
        StateLabel::S3,
        StateLabel::S4,
    ];
    let nominals: Vec<f64> = (0..levels)
        .map(|i| 3.0 + 3.0 * i as f64 / (levels - 1) as f64)
        .collect();
    LevelDesign {
        name: format!("{levels}LC"),
        states: nominals
            .iter()
            .enumerate()
            .map(|(i, &nominal_logr)| LevelState {
                label: labels[i * labels.len() / levels],
                nominal_logr,
                occupancy: 1.0 / levels as f64,
            })
            .collect(),
        thresholds: nominals.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect(),
        sigma_logr,
        write_tolerance_sigma: 2.75,
        drift_switch: None,
    }
}

/// 3LC (rate switch on two states), 4LC, SLC, a five-level generic
/// design and a ten-level one.
fn designs() -> Vec<LevelDesign> {
    vec![
        three_level_optimal().clone(),
        four_level_optimal().clone(),
        LevelDesign::two_level(),
        evenly_spaced(5, 0.11),
        evenly_spaced(10, 0.05),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn program_range_matches_program(
        seed in any::<u64>(),
        design_idx in 0usize..5,
        short_lived in vec((0usize..400, 1u64..41), 0..40),
        revived in vec((0usize..400, 1u64..4), 0..20),
        writes in vec((0usize..380, 1usize..120, 0usize..4, any::<u64>()), 1..12),
    ) {
        let d = &designs()[design_idx];
        let levels = d.n_levels() as u64;
        let mut batched = CellArray::new(400, EnduranceModel::mlc(), seed);
        let mut scalar = CellArray::new(400, EnduranceModel::mlc(), seed);
        for &(c, life) in &short_lived {
            batched.set_lifetime(c, life);
            scalar.set_lifetime(c, life);
        }
        let times = [0.0, 17.5, 1024.0, 3.0e8];
        for (round, &(base, len, t, pattern)) in writes.iter().enumerate() {
            // Halfway through, give some worn cells a fresh short budget:
            // known-stuck cells then wear out a second time.
            if round == writes.len() / 2 {
                for &(c, life) in &revived {
                    batched.set_lifetime(c, life);
                    scalar.set_lifetime(c, life);
                }
            }
            let len = len.min(400 - base);
            let mut x = pattern | 1;
            let states: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % levels) as u8
                })
                .collect();
            let now = times[t];
            let mut done = 0;
            while done < len {
                let got = batched.program_range(base + done, d, &states[done..], now);
                let mut expected = RangeOutcome { programmed: 0, attempts: 0, new_fault: None };
                for &s in &states[done..] {
                    let out = scalar.program(base + done + expected.programmed, d, usize::from(s), now);
                    expected.programmed += 1;
                    expected.attempts += u64::from(out.attempts);
                    if out.new_fault.is_some() {
                        expected.new_fault = out.new_fault;
                        break;
                    }
                }
                prop_assert_eq!(got, expected, "round {} from cell {}", round, base + done);
                done += got.programmed;
            }
        }
        for c in 0..400 {
            prop_assert_eq!(batched.fault(c), scalar.fault(c), "fault of cell {}", c);
            prop_assert_eq!(batched.wear_budget(c), scalar.wear_budget(c), "wear of cell {}", c);
            for now in [0.0, 1024.0, TEN_YEARS_SECS] {
                prop_assert_eq!(
                    batched.logr(c, d, now).to_bits(),
                    scalar.logr(c, d, now).to_bits(),
                    "logR of cell {} at {}", c, now
                );
            }
        }
        // Same generator position: one more write to a healthy cell draws
        // the same values.
        let c = (0..400).find(|&c| scalar.fault(c).is_none()).unwrap();
        batched.set_lifetime(c, u64::MAX);
        scalar.set_lifetime(c, u64::MAX);
        let (a, b) = (batched.program(c, d, 0, 1.0), scalar.program(c, d, 0, 1.0));
        prop_assert_eq!(a, b);
        prop_assert_eq!(batched.logr(c, d, 1e6).to_bits(), scalar.logr(c, d, 1e6).to_bits());
    }
}
