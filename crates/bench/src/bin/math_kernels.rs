//! `math_kernels` — perf baseline and equivalence gate for the hot
//! math paths: the BCH decoder every block read runs and the batched
//! Monte-Carlo CER sampler, plus per-block timings of the device cell
//! array.
//!
//! For BCH it decodes the same 64-codeword batches two ways: the
//! whole-word oracle (`Bch::decode_reference` per lane) and the
//! remainder-first decoder the device runs (`Bch::decode` per lane),
//! requiring both to give **byte-identical** corrected data, parity, and
//! per-lane results before any timing is reported. It also times
//! `Bch::decode` on error-free words, the remainder-only branch most
//! device reads take, which must return `Ok(0)` as `decode_reference`
//! does. For MC it runs `estimate` (batched) and `estimate_reference`
//! (pre-batching oracle) on the same `(samples, seed)` and requires
//! identical hit counts. Any divergence exits nonzero — this binary is a
//! CI gate first and a benchmark second.
//!
//! Writes `BENCH_math.json` through the shared `pcm_trace::json`
//! writer: codewords/sec for both decode paths and for `decode` on
//! error-free words, `decode`'s speedup over the reference (which CI
//! thresholds on) — the median of the ratios of 24 repetitions that
//! time the two paths back to back — µs per word of both paths at each
//! error count 0..=t (`bch.decode_us_by_errors`,
//! `bch.reference_us_by_errors`), samples/sec for both MC paths, the
//! verification verdicts, and µs per block of
//! `CellArray::program_range` and `sense_range` on 3LC and 4LC blocks
//! swept across an array larger than L2.
//!
//! ```text
//! math_kernels [--quick] [--out BENCH_math.json] [--inject-divergence]
//! ```
//!
//! `--inject-divergence` corrupts one `decode` lane after
//! verification starts, to prove the gate actually fails the run (the
//! negative CI test drives this).

use std::hint::black_box;
use std::time::Instant;

use pcm_core::cer::mc::MonteCarloCer;
use pcm_core::level::LevelDesign;
use pcm_core::optimize::{four_level_optimal, three_level_optimal};
use pcm_device::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
use pcm_device::CellArray;
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;
use pcm_trace::json;
use pcm_wearout::fault::EnduranceModel;

struct Args {
    quick: bool,
    inject_divergence: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        inject_divergence: false,
        out: String::from("BENCH_math.json"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => args.quick = true,
            "--inject-divergence" => args.inject_divergence = true,
            "--out" => {
                i += 1;
                args.out = argv
                    .get(i)
                    .unwrap_or_else(|| {
                        eprintln!("missing value for --out");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn pseudo_data(len: usize, seed: u64) -> BitVec {
    let mut v = BitVec::zeros(len);
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in 0..len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x & 1 == 1 {
            v.set(i, true);
        }
    }
    v
}

/// One 64-lane noisy batch for the paper's BCH-10/512 code: lane `l`
/// carries `l % (t+1)` errors spread across parity, data, and the
/// boundary.
fn make_batch(bch: &Bch, data_bits: usize, batch_seed: u64) -> (Vec<BitVec>, Vec<BitVec>) {
    let used = bch.parity_bits() + data_bits;
    let t = bch.t();
    let mut data = Vec::with_capacity(64);
    let mut parity = Vec::with_capacity(64);
    for l in 0..64u64 {
        let d = pseudo_data(data_bits, batch_seed * 64 + l + 1);
        let p = bch.encode(&d);
        let (mut d, mut p) = (d, p);
        let errors = (l as usize) % (t + 1);
        for i in 0..errors {
            let e = (l as usize * 131 + i * (used / t.max(1)) + batch_seed as usize) % used;
            if e < bch.parity_bits() {
                p.toggle(e);
            } else {
                d.toggle(e - bch.parity_bits());
            }
        }
        data.push(d);
        parity.push(p);
    }
    (data, parity)
}

struct BchOutcome {
    reference_cw_per_sec: f64,
    decode_cw_per_sec: f64,
    decode_clean_cw_per_sec: f64,
    speedup: f64,
    identical: bool,
    /// µs per word at 0..=t errors, `decode` and `decode_reference`.
    decode_us_by_errors: Vec<f64>,
    reference_us_by_errors: Vec<f64>,
}

/// A scalar BCH decoder: `Bch::decode` or `Bch::decode_reference`.
type DecodeFn = fn(&Bch, &mut BitVec, &mut BitVec) -> Result<usize, pcm_ecc::BchError>;

/// Decoded batch: (data lanes, parity lanes, per-lane results).
type DecodedBatch = (
    Vec<BitVec>,
    Vec<BitVec>,
    Vec<Result<usize, pcm_ecc::BchError>>,
);

fn bench_bch(quick: bool, inject: bool) -> BchOutcome {
    let bch = Bch::new(10, 10);
    let data_bits = 512;
    let batches = if quick { 4 } else { 64 };
    let reps = if quick { 1 } else { 24 };

    let inputs: Vec<(Vec<BitVec>, Vec<BitVec>)> = (0..batches)
        .map(|b| make_batch(&bch, data_bits, b))
        .collect();

    // One rep runs the reference and `decode` passes back to back on
    // fresh copies of the same input, so host noise (frequency changes,
    // a neighbour's burst) lands on both alike; the speedup is the median
    // of the per-rep ratios, and 24 reps outvote a burst that would skew
    // the median of a few.
    let pass = |decode: DecodeFn, out: &mut Vec<DecodedBatch>| {
        out.clear();
        let t0 = Instant::now();
        for (d, p) in &inputs {
            let (mut d, mut p) = (d.clone(), p.clone());
            let res: Vec<_> = d
                .iter_mut()
                .zip(p.iter_mut())
                .map(|(d, p)| decode(&bch, d, p))
                .collect();
            out.push((d, p, res));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut reference_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let mut decode_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let (mut reference_secs, mut decode_secs) = (0.0, 0.0);
    let mut speedups = Vec::new();
    for _ in 0..reps {
        let reference = pass(Bch::decode_reference, &mut reference_out);
        let decode = pass(Bch::decode, &mut decode_out);
        reference_secs += reference;
        decode_secs += decode;
        speedups.push(reference / decode);
    }

    // Error-free words: `decode` runs one LFSR pass and returns `Ok(0)`,
    // leaving the word as it is, so each rep decodes the same words.
    let mut clean: Vec<(BitVec, BitVec)> = (0..batches * 64)
        .map(|i| {
            let d = pseudo_data(data_bits, 0xC1EA_0000 + i);
            let p = bch.encode(&d);
            (d, p)
        })
        .collect();
    let mut clean_secs = 0.0;
    let mut clean_ok = true;
    for _ in 0..reps {
        let t0 = Instant::now();
        for (d, p) in &mut clean {
            clean_ok &= bch.decode(d, p) == Ok(0);
        }
        clean_secs += t0.elapsed().as_secs_f64();
    }
    for (d, p) in &mut clean {
        clean_ok &= bch.decode_reference(d, p) == Ok(0);
    }
    if !clean_ok {
        eprintln!("BCH DIVERGENCE: an error-free word did not decode to Ok(0)");
    }

    if inject {
        // Prove the gate gates: flip one corrected bit in the `decode`
        // output so the comparison below must fail.
        decode_out[0].0[0].toggle(0);
    }

    let mut identical = clean_ok;
    for (b, (r, f)) in reference_out.iter().zip(&decode_out).enumerate() {
        for l in 0..64 {
            if r.0[l] != f.0[l] || r.1[l] != f.1[l] || r.2[l] != f.2[l] {
                eprintln!(
                    "BCH DIVERGENCE: batch {b} lane {l}: decode_reference and decode disagree"
                );
                identical = false;
            }
        }
    }

    let codewords = (batches * 64 * reps as u64) as f64;
    BchOutcome {
        reference_cw_per_sec: codewords / reference_secs,
        decode_cw_per_sec: codewords / decode_secs,
        decode_clean_cw_per_sec: codewords / clean_secs,
        speedup: median(&mut speedups),
        identical,
        decode_us_by_errors: us_by_errors(&bch, &inputs, reps, Bch::decode),
        reference_us_by_errors: us_by_errors(&bch, &inputs, reps, Bch::decode_reference),
    }
}

/// µs per word of `decode` at each error count 0..=t: the batches'
/// lanes grouped by how many errors `make_batch` put in them, each group
/// restored from its input (untimed) and decoded `reps` times; a figure
/// is the median over the reps.
fn us_by_errors(
    bch: &Bch,
    inputs: &[(Vec<BitVec>, Vec<BitVec>)],
    reps: usize,
    decode: DecodeFn,
) -> Vec<f64> {
    let t = bch.t();
    (0..=t)
        .map(|errors| {
            let group: Vec<(BitVec, BitVec)> = inputs
                .iter()
                .flat_map(|(d, p)| d.iter().zip(p).skip(errors).step_by(t + 1))
                .map(|(d, p)| (d.clone(), p.clone()))
                .collect();
            let mut work = group.clone();
            let mut us = Vec::with_capacity(reps);
            for _ in 0..reps {
                work.clone_from(&group);
                let t0 = Instant::now();
                for (d, p) in &mut work {
                    black_box(decode(bch, d, p)).ok();
                }
                us.push(t0.elapsed().as_secs_f64() * 1e6 / work.len() as f64);
            }
            median(&mut us)
        })
        .collect()
}

/// `x` with `digits` decimals, for a JSON number.
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

struct McOutcome {
    reference_samples_per_sec: f64,
    batched_samples_per_sec: f64,
    speedup: f64,
    identical: bool,
}

fn bench_mc(quick: bool) -> McOutcome {
    let design = LevelDesign::four_level_naive();
    let times = [32.0, 1024.0, 32_768.0, 1.0e6, 1.0e8];
    let samples: u64 = if quick { 20_000 } else { 400_000 };
    let est = MonteCarloCer::new(samples, 20_260_808).with_threads(2);

    let t0 = Instant::now();
    let reference = est.estimate_reference(&design, &times);
    let ref_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let batched = est.estimate(&design, &times);
    let batched_secs = t1.elapsed().as_secs_f64();

    let mut identical = true;
    for (pr, pb) in reference.points.iter().zip(&batched.points) {
        for (s, (a, b)) in pr.per_state.iter().zip(&pb.per_state).enumerate() {
            if a.hits != b.hits {
                eprintln!(
                    "MC DIVERGENCE: t={} state {s}: reference {} hits vs batched {}",
                    pr.t_secs, a.hits, b.hits
                );
                identical = false;
            }
        }
    }

    let drawn = (samples * design.n_levels() as u64) as f64;
    McOutcome {
        reference_samples_per_sec: drawn / ref_secs,
        batched_samples_per_sec: drawn / batched_secs,
        speedup: ref_secs / batched_secs,
        identical,
    }
}

/// Blocks in the array the cell kernels are timed over: 456 3LC blocks
/// are 7.6 MiB of cell records and 456 4LC blocks 4.3 MiB, past a 2 MiB
/// L2.
const CELL_BLOCKS: usize = 456;
/// Block stride of a sweep: coprime to [`CELL_BLOCKS`], so one pass
/// visits every block once and consecutive blocks lie far apart.
const CELL_STRIDE: usize = 97;

/// Host µs per block of `CellArray::program_range` and `sense_range`,
/// for the 3LC block (354 data cells of 3LC-optimal, 10 SLC check cells)
/// and the 4LC block (306 cells of 4LC-optimal).
struct CellsOutcome {
    sense_3lc_us_per_block: f64,
    sense_4lc_us_per_block: f64,
    program_3lc_us_per_block: f64,
    program_4lc_us_per_block: f64,
}

fn bench_cells(quick: bool) -> CellsOutcome {
    let passes = if quick { 3 } else { 25 };
    let slc = LevelDesign::two_level();
    let three = [
        (three_level_optimal(), THREE_LEVEL_BLOCK_CELLS - 10),
        (&slc, 10),
    ];
    let four = [(four_level_optimal(), FOUR_LEVEL_BLOCK_CELLS)];
    // Each pass writes every block, in stride order, at a new time, then
    // senses every block 1024 s later; a figure is the median over passes.
    let time = |layout: &[(&LevelDesign, usize)]| {
        let cells: usize = layout.iter().map(|&(_, n)| n).sum();
        let mut array = CellArray::new(CELL_BLOCKS * cells, EnduranceModel::mlc(), 0xCE11);
        let states: Vec<Vec<u8>> = layout
            .iter()
            .map(|&(d, n)| {
                (0..n)
                    .map(|i| ((i * 7 + i / 5) % d.n_levels()) as u8)
                    .collect()
            })
            .collect();
        let mut sensed = vec![0u8; cells];
        let (mut program_us, mut sense_us) = (Vec::new(), Vec::new());
        let blocks = || (0..CELL_BLOCKS).map(|i| i * CELL_STRIDE % CELL_BLOCKS * cells);
        for pass in 0..passes {
            let now = 4096.0 * pass as f64;
            let t0 = Instant::now();
            for block in blocks() {
                let mut base = block;
                for (&(d, n), s) in layout.iter().zip(&states) {
                    let mut done = 0;
                    while done < n {
                        done += array
                            .program_range(base + done, d, &s[done..], now)
                            .programmed;
                    }
                    base += n;
                }
            }
            program_us.push(t0.elapsed().as_secs_f64() * 1e6 / CELL_BLOCKS as f64);
            let t0 = Instant::now();
            for block in blocks() {
                let mut base = block;
                for &(d, n) in layout {
                    array.sense_range(base, d, now + 1024.0, &mut sensed[base - block..][..n]);
                    base += n;
                }
                black_box(&sensed);
            }
            sense_us.push(t0.elapsed().as_secs_f64() * 1e6 / CELL_BLOCKS as f64);
        }
        (median(&mut program_us), median(&mut sense_us))
    };
    let (program_3lc_us_per_block, sense_3lc_us_per_block) = time(&three);
    let (program_4lc_us_per_block, sense_4lc_us_per_block) = time(&four);
    CellsOutcome {
        sense_3lc_us_per_block,
        sense_4lc_us_per_block,
        program_3lc_us_per_block,
        program_4lc_us_per_block,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "math_kernels: BCH-10/512 decode + MC CER sampler ({} mode)",
        if args.quick { "quick" } else { "full" }
    );

    let bch = bench_bch(args.quick, args.inject_divergence);
    println!(
        "  bch: reference {:.0} cw/s | decode {:.0} cw/s ({:.2}x) | clean decode {:.0} cw/s | identical: {}",
        bch.reference_cw_per_sec,
        bch.decode_cw_per_sec,
        bch.speedup,
        bch.decode_clean_cw_per_sec,
        bch.identical
    );
    let list = |us: &[f64]| {
        us.iter()
            .map(|&x| fixed(x, 2))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "  bch us/word at 0..=t errors: decode {} | reference {}",
        list(&bch.decode_us_by_errors),
        list(&bch.reference_us_by_errors)
    );
    let cells = bench_cells(args.quick);
    println!(
        "  cells: sense 3LC {:.3} us/block | sense 4LC {:.3} us/block | program 3LC {:.3} us/block | program 4LC {:.3} us/block",
        cells.sense_3lc_us_per_block,
        cells.sense_4lc_us_per_block,
        cells.program_3lc_us_per_block,
        cells.program_4lc_us_per_block
    );
    let mc = bench_mc(args.quick);
    println!(
        "  mc:  reference {:.0} samples/s | batched {:.0} samples/s | {:.2}x | identical: {}",
        mc.reference_samples_per_sec, mc.batched_samples_per_sec, mc.speedup, mc.identical
    );

    let mut doc = json::object(|o| {
        o.str("bench", "math_kernels")
            .num("quick", args.quick)
            .object("bch", |o| {
                o.num(
                    "scalar_codewords_per_sec",
                    fixed(bch.reference_cw_per_sec, 1),
                )
                .num("decode_cw_per_sec", fixed(bch.decode_cw_per_sec, 1))
                .num(
                    "decode_clean_cw_per_sec",
                    fixed(bch.decode_clean_cw_per_sec, 1),
                )
                .num("speedup", fixed(bch.speedup, 3))
                .num("identical", bch.identical)
                .nums(
                    "decode_us_by_errors",
                    bch.decode_us_by_errors.iter().map(|&x| fixed(x, 3)),
                )
                .nums(
                    "reference_us_by_errors",
                    bch.reference_us_by_errors.iter().map(|&x| fixed(x, 3)),
                );
            })
            .object("mc", |o| {
                o.num(
                    "reference_samples_per_sec",
                    fixed(mc.reference_samples_per_sec, 1),
                )
                .num(
                    "batched_samples_per_sec",
                    fixed(mc.batched_samples_per_sec, 1),
                )
                .num("speedup", fixed(mc.speedup, 3))
                .num("identical", mc.identical);
            })
            .object("cells", |o| {
                o.num(
                    "sense_3lc_us_per_block",
                    fixed(cells.sense_3lc_us_per_block, 4),
                )
                .num(
                    "sense_4lc_us_per_block",
                    fixed(cells.sense_4lc_us_per_block, 4),
                )
                .num(
                    "program_3lc_us_per_block",
                    fixed(cells.program_3lc_us_per_block, 4),
                )
                .num(
                    "program_4lc_us_per_block",
                    fixed(cells.program_4lc_us_per_block, 4),
                );
            });
    });
    doc.push('\n');
    std::fs::write(&args.out, &doc).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("wrote {}", args.out);

    if !bch.identical || !mc.identical {
        eprintln!("RESULT DIVERGENCE: a fast kernel disagrees with its reference");
        std::process::exit(1);
    }
}
