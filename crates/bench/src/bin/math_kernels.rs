//! `math_kernels` — perf baseline and equivalence gate for the two hot
//! math paths: bit-sliced BCH batch decode and the batched Monte-Carlo
//! CER sampler.
//!
//! For BCH it decodes the same 64-codeword batches three ways: the
//! whole-word scalar oracle (`Bch::decode_reference` per lane), the
//! remainder-first scalar decoder (`Bch::decode` per lane), and the
//! sliced path (`Bch::decode_batch`), requiring all three to give
//! **byte-identical** corrected data, parity, and per-lane results before
//! any timing is reported. It also times `Bch::decode` on error-free
//! words, the remainder-only branch most device reads take, which must
//! return `Ok(0)` as `decode_reference` does. For MC it runs `estimate`
//! (batched) and `estimate_reference` (pre-batching oracle) on the same
//! `(samples, seed)` and requires identical hit counts. Any divergence exits nonzero — this binary is a CI gate
//! first and a benchmark second.
//!
//! Writes `BENCH_math.json`: codewords/sec for the three decode paths
//! and for `decode` on error-free words,
//! the sliced speedup over the reference (which CI thresholds on) and
//! the scalar `decode` speedup over it — each the median of the ratios
//! of repetitions that time the three paths back to back — samples/sec for both MC paths,
//! and the verification verdicts.
//!
//! ```text
//! math_kernels [--quick] [--out BENCH_math.json] [--inject-divergence]
//! ```
//!
//! `--inject-divergence` corrupts one sliced-decode lane after
//! verification starts, to prove the gate actually fails the run (the
//! negative CI test drives this).

use std::time::Instant;

use pcm_core::cer::mc::MonteCarloCer;
use pcm_core::level::LevelDesign;
use pcm_ecc::bch::Bch;
use pcm_ecc::bitvec::BitVec;

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
    scalar_cw_per_sec: f64,
    decode_cw_per_sec: f64,
    sliced_cw_per_sec: f64,
    decode_clean_cw_per_sec: f64,
    speedup: f64,
    decode_speedup: f64,
    identical: bool,
}

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
    let reps = if quick { 1 } else { 8 };

    let inputs: Vec<(Vec<BitVec>, Vec<BitVec>)> = (0..batches)
        .map(|b| make_batch(&bch, data_bits, b))
        .collect();

    // One rep runs the reference, scalar and sliced passes back to back
    // on fresh copies of the same input, so host noise (frequency
    // changes, a neighbour's burst) lands on all three alike; the
    // speedups are medians of the per-rep ratios.
    let scalar_pass =
        |decode: fn(&Bch, &mut BitVec, &mut BitVec) -> Result<usize, pcm_ecc::BchError>,
         out: &mut Vec<DecodedBatch>| {
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
    let sliced_pass = |out: &mut Vec<DecodedBatch>| {
        out.clear();
        let t0 = Instant::now();
        for (d, p) in &inputs {
            let (mut d, mut p) = (d.clone(), p.clone());
            let res = bch.decode_batch(&mut d, &mut p);
            out.push((d, p, res));
        }
        t0.elapsed().as_secs_f64()
    };
    let mut scalar_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let mut decode_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let mut sliced_out: Vec<DecodedBatch> = Vec::with_capacity(inputs.len());
    let (mut scalar_secs, mut decode_secs, mut sliced_secs) = (0.0, 0.0, 0.0);
    let (mut speedups, mut decode_speedups) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let scalar = scalar_pass(Bch::decode_reference, &mut scalar_out);
        let decode = scalar_pass(Bch::decode, &mut decode_out);
        let sliced = sliced_pass(&mut sliced_out);
        scalar_secs += scalar;
        decode_secs += decode;
        sliced_secs += sliced;
        speedups.push(scalar / sliced);
        decode_speedups.push(scalar / decode);
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
        // Prove the gate gates: flip one corrected bit in the sliced
        // output so the comparison below must fail.
        sliced_out[0].0[0].toggle(0);
    }

    let mut identical = clean_ok;
    for (name, out) in [("decode", &decode_out), ("sliced", &sliced_out)] {
        for (b, (s, f)) in scalar_out.iter().zip(out).enumerate() {
            for l in 0..64 {
                if s.0[l] != f.0[l] || s.1[l] != f.1[l] || s.2[l] != f.2[l] {
                    eprintln!(
                        "BCH DIVERGENCE: batch {b} lane {l}: decode_reference and {name} disagree"
                    );
                    identical = false;
                }
            }
        }
    }

    let codewords = (batches * 64 * reps as u64) as f64;
    BchOutcome {
        scalar_cw_per_sec: codewords / scalar_secs,
        decode_cw_per_sec: codewords / decode_secs,
        sliced_cw_per_sec: codewords / sliced_secs,
        decode_clean_cw_per_sec: codewords / clean_secs,
        speedup: median(&mut speedups),
        decode_speedup: median(&mut decode_speedups),
        identical,
    }
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

fn main() {
    let args = parse_args();
    println!(
        "math_kernels: BCH-10/512 batch decode + MC CER sampler ({} mode)",
        if args.quick { "quick" } else { "full" }
    );

    let bch = bench_bch(args.quick, args.inject_divergence);
    println!(
        "  bch: reference {:.0} cw/s | decode {:.0} cw/s ({:.2}x) | clean decode {:.0} cw/s | sliced {:.0} cw/s ({:.2}x) | identical: {}",
        bch.scalar_cw_per_sec,
        bch.decode_cw_per_sec,
        bch.decode_speedup,
        bch.decode_clean_cw_per_sec,
        bch.sliced_cw_per_sec,
        bch.speedup,
        bch.identical
    );
    let mc = bench_mc(args.quick);
    println!(
        "  mc:  reference {:.0} samples/s | batched {:.0} samples/s | {:.2}x | identical: {}",
        mc.reference_samples_per_sec, mc.batched_samples_per_sec, mc.speedup, mc.identical
    );

    let doc = format!(
        "{{\n  \"bench\": \"math_kernels\",\n  \"quick\": {},\n  \"bch\": {{\"scalar_codewords_per_sec\":{:.1},\
         \"decode_cw_per_sec\":{:.1},\"decode_clean_cw_per_sec\":{:.1},\"sliced_codewords_per_sec\":{:.1},\"speedup\":{:.3},\
         \"decode_speedup\":{:.3},\"identical\":{}}},\n  \
         \"mc\": {{\"reference_samples_per_sec\":{:.1},\"batched_samples_per_sec\":{:.1},\
         \"speedup\":{:.3},\"identical\":{}}}\n}}\n",
        args.quick,
        bch.scalar_cw_per_sec,
        bch.decode_cw_per_sec,
        bch.decode_clean_cw_per_sec,
        bch.sliced_cw_per_sec,
        bch.speedup,
        bch.decode_speedup,
        bch.identical,
        mc.reference_samples_per_sec,
        mc.batched_samples_per_sec,
        mc.speedup,
        mc.identical
    );
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
