//! Sharded-device throughput: the full write datapath driven from 1–8
//! threads over a threads × banks sweep. The acceptance target for the
//! concurrent engine is ≥2× aggregate write throughput at 4 threads /
//! 8 banks over the single-threaded run — that requires ≥4 hardware
//! cores; on fewer, the sweep instead demonstrates that sharding adds
//! no overhead (thread counts land within noise of each other).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use pcm_core::level::LevelDesign;
use pcm_device::{CellOrganization, DeviceBuilder, ShardedPcmDevice, ShardedScrubber};
use pcm_wearout::fault::EnduranceModel;

/// Writes issued per benchmark iteration (across all threads).
const OPS: usize = 64;

// As in `device.rs`: SLC endurance (1e8 cycles) so hundreds of
// thousands of iterations at the same blocks measure the datapath, not
// the wearout machinery.
fn sharded(banks: usize) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(banks * 4)
        .banks(banks)
        .seed(11)
        .endurance(EnduranceModel::slc())
        .build_sharded()
        .unwrap()
}

/// One iteration's worth of writes, fanned out so thread `t` owns banks
/// `t, t+threads, …` — disjoint shards, so no thread ever blocks on
/// another's mutex.
fn run_ops(dev: &ShardedPcmDevice, threads: usize, data: &[u8]) {
    let banks = dev.banks();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut session = dev.session();
                let own: Vec<usize> = (t..banks).step_by(threads).collect();
                for i in 0..OPS / threads {
                    // Bank-local slot 0 of each owned bank, round-robin.
                    let block = own[i % own.len()];
                    session.write_block(block, data).unwrap();
                }
            });
        }
    });
}

fn bench_thread_bank_sweep(c: &mut Criterion) {
    let data = pcm_bench::payload(7);
    let mut g = c.benchmark_group("sharded_write_64B");
    g.throughput(Throughput::Bytes((OPS * 64) as u64));
    for banks in [1usize, 4, 8] {
        for threads in [1usize, 2, 4, 8] {
            if threads > banks || banks % threads != 0 {
                continue;
            }
            let dev = sharded(banks);
            g.bench_with_input(
                BenchmarkId::new(format!("{banks}banks"), threads),
                &threads,
                |b, &threads| b.iter(|| run_ops(&dev, threads, &data)),
            );
        }
    }
    g.finish();
}

fn bench_batch_vs_singles(c: &mut Criterion) {
    let data = pcm_bench::payload(9);
    let mut g = c.benchmark_group("sharded_batch_64B");
    g.throughput(Throughput::Bytes((OPS * 64) as u64));

    let dev = sharded(8);
    let blocks: Vec<usize> = (0..OPS).map(|i| i % dev.blocks()).collect();
    let requests: Vec<(usize, &[u8])> = blocks.iter().map(|&b| (b, &data[..])).collect();
    g.bench_function("write_batch", |b| {
        b.iter(|| std::hint::black_box(dev.write_batch(&requests)))
    });
    g.bench_function("write_singles", |b| {
        b.iter(|| {
            for &blk in &blocks {
                std::hint::black_box(dev.write_block(blk, &data).unwrap());
            }
        })
    });
    g.finish();
}

fn bench_demand_with_background_scrub(c: &mut Criterion) {
    // The refresh-vs-demand interaction (§4.1/§7): two demand threads
    // write while the scrubber walks the device from two background
    // scrub threads. Each iteration advances the clock 0.5 s, so the
    // scrub load is blocks × 0.5 / interval ops per iteration — 32, 8,
    // and 2 for the three intervals, and ~0 for the no-scrub baseline.
    let data = pcm_bench::payload(5);
    let mut g = c.benchmark_group("demand_with_scrub_64B");
    g.throughput(Throughput::Bytes((OPS * 64) as u64));
    for (label, interval) in [("0.5s", 0.5), ("2s", 2.0), ("8s", 8.0), ("none", 1e12)] {
        let dev = sharded(8);
        let mut scrubber = ShardedScrubber::new(&dev, interval);
        let mut now = 0.0f64;
        g.bench_function(BenchmarkId::new("interval", label), |b| {
            b.iter(|| {
                now += 0.5;
                dev.advance_time(0.5);
                std::thread::scope(|scope| {
                    for t in 0..2usize {
                        let dev = &dev;
                        let data = &data;
                        scope.spawn(move || {
                            let mut session = dev.session();
                            let own: Vec<usize> = (t..dev.banks()).step_by(2).collect();
                            for i in 0..OPS / 2 {
                                session.write_block(own[i % own.len()], data).unwrap();
                            }
                        });
                    }
                    scrubber.run_until_concurrent(&dev, now, 2);
                });
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_thread_bank_sweep,
    bench_batch_vs_singles,
    bench_demand_with_background_scrub
);

/// With `--metrics-out <path>` (after `cargo bench ... --`), write the
/// metrics registry of a fixed post-bench workload as JSONL. The
/// workload is deterministic (fixed seed, fixed op schedule), so the
/// artifact is byte-stable and diffable across runs and machines —
/// wall-clock timings stay on stdout, modeled-time metrics in the file.
fn write_metrics_artifact(path: &str) {
    let dev = sharded(8);
    let data = pcm_bench::payload(7);
    run_ops(&dev, 4, &data);
    let mut scrubber = ShardedScrubber::new(&dev, 2.0);
    dev.advance_time(4.0);
    scrubber.run_until_concurrent(&dev, 4.0, 2);
    let doc = dev.metrics().snapshot().to_jsonl();
    if let Err(e) = std::fs::write(path, &doc) {
        eprintln!("device_concurrent: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("device_concurrent: metrics written to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics-out" {
            match args.get(i + 1) {
                Some(p) => metrics_out = Some(p.clone()),
                None => {
                    eprintln!("device_concurrent: --metrics-out needs a path");
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            // Harness flags like --bench are accepted and ignored.
            i += 1;
        }
    }
    benches();
    if let Some(path) = metrics_out {
        write_metrics_artifact(&path);
    }
}
