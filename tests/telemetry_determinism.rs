//! The telemetry determinism oracle.
//!
//! The `pcm-telemetry` contract mirrors the tracing one: per-bank
//! counters are a pure function of that bank's operation order, samples
//! are claimed on integer model-time ticks, and the sampling points are
//! quiesced `advance_time` calls — so an inline run and runs at any
//! thread count must export *byte-identical* series JSONL for a fixed
//! seed. And because the recorder only observes, a telemetry-enabled
//! device must walk the exact trajectory of a telemetry-free one.

mod common;

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::params::REFRESH_17MIN_SECS;
use mlc_pcm::device::{
    CellOrganization, DeviceBuilder, ShardedPcmDevice, ShardedScrubber, TelemetryConfig,
};
use mlc_pcm::store::workload::{run_phased, PhasedConfig, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};

const BLOCKS: usize = 16;
const BANKS: usize = 4;
const ROUND: f64 = 1.6; // step lands on exact ns boundaries
const SAMPLE_NS: u64 = 400_000_000; // four telemetry ticks per round
const ROUNDS: usize = 3;

fn builder(seed: u64) -> DeviceBuilder {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .telemetry(TelemetryConfig::new(SAMPLE_NS).with_capacity(64))
}

fn payload(b: usize) -> Vec<u8> {
    vec![b as u8 ^ 0xA5; 64]
}

/// A fixed demand-op schedule: `(block, is_write)` per round, the same
/// list every run (the oracle compares thread counts, not workloads).
fn rounds() -> Vec<Vec<(usize, bool)>> {
    (0..ROUNDS)
        .map(|k| {
            (0..10)
                .map(|i| (((k * 7 + i * 3) % BLOCKS), i % 3 == 0))
                .collect()
        })
        .collect()
}

fn apply(dev: &ShardedPcmDevice, &(block, is_write): &(usize, bool)) {
    if is_write {
        dev.write_block(block, &payload(block)).unwrap();
    } else {
        dev.read_block(block).unwrap();
    }
}

/// Preload, then per round advance + scrub + demand ops, inline
/// (`threads == None`, the reference) or with the banks partitioned
/// over `threads` threads — telemetry is sampled only from the quiesced
/// `advance_time` boundary. Returns the exported series document.
fn series(seed: u64, threads: Option<usize>) -> String {
    let dev = builder(seed).build_sharded().unwrap();
    for b in 0..BLOCKS {
        dev.write_block(b, &payload(b)).unwrap();
    }
    common::run_rounds(&dev, ROUND, &rounds(), threads, |op| op.0, apply);
    dev.telemetry().unwrap().snapshot().to_jsonl()
}

#[test]
fn series_jsonl_is_byte_identical_across_engines_and_thread_counts() {
    let want = series(77, None);
    assert!(
        want.lines().count() > 1 + BANKS,
        "reference run must retain sample points:\n{want}"
    );
    // A fixed seed re-run is byte-identical…
    assert_eq!(series(77, None), want, "inline run not stable");
    // …and so is every thread count.
    for threads in [1usize, 2, 8] {
        assert_eq!(
            series(77, Some(threads)),
            want,
            "series diverge at threads={threads}"
        );
    }
    // The export round-trips through the parser bit-for-bit.
    let parsed = mlc_pcm::telemetry::parse(&want).unwrap();
    assert_eq!(parsed.per_bank.len(), BANKS);
    assert_eq!(parsed.to_jsonl(), want);
}

#[test]
fn telemetry_does_not_perturb_device_results() {
    // A telemetry-enabled device and a bare one walk identical
    // trajectories: the recorder observes, it never participates.
    let run = |enabled: bool| {
        let b = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(BLOCKS)
            .banks(BANKS)
            .seed(5);
        let b = if enabled {
            b.telemetry(TelemetryConfig::new(SAMPLE_NS))
        } else {
            b
        };
        let dev = b.build_sharded().unwrap();
        for blk in 0..BLOCKS {
            dev.write_block(blk, &payload(blk)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, ROUND);
        dev.advance_time(2.0 * ROUND);
        scrubber.run_until(&dev, 2.0 * ROUND);
        let data: Vec<Vec<u8>> = (0..BLOCKS)
            .map(|blk| dev.read_block(blk).unwrap().data)
            .collect();
        (data, dev.bank_stats(), dev.metrics().snapshot())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn obs_report_renders_corrected_symbols_from_a_store_workload() {
    // A real KV workload on a drift-prone 4LC store, phased so model
    // time (and drift) accrues between op slices, scrub correcting
    // drifted cells as it goes. The series must carry the corrected
    // symbols per interval, and `obs-report`'s analyzer must render
    // them per bank together with the scrub/demand interference.
    let store_cfg = StoreConfig {
        dir_buckets: 16,
        stripes: 4,
    };
    let cfg = WorkloadConfig {
        seed: 9,
        actors: 4,
        keys_per_actor: 32,
        ops_per_actor: 200,
        ..WorkloadConfig::default()
    };
    let banks = BANKS;
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(banks) * banks;
    let interval_ns = (REFRESH_17MIN_SECS * 1e9) as u64; // exact: 1024 s
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: mlc_pcm::core::optimize::four_level_optimal().clone(),
            smart: true,
        })
        .blocks(blocks)
        .banks(banks)
        .seed(9)
        .telemetry(TelemetryConfig::new(interval_ns))
        .build_sharded()
        .unwrap();
    let store = PcmStore::format(dev, store_cfg).unwrap();
    let phased = PhasedConfig {
        phases: 4,
        advance_secs: REFRESH_17MIN_SECS,
        scrub_interval_secs: Some(REFRESH_17MIN_SECS),
    };
    let report = run_phased(&store, &cfg, &phased, 2).unwrap();
    assert_eq!(report.totals.mismatches, 0, "store integrity");

    let snap = store.device().telemetry().unwrap().snapshot();
    let corrected: u64 = snap
        .per_bank
        .iter()
        .flat_map(|b| b.points.iter())
        .map(|p| p.corrected_symbols)
        .sum();
    assert!(corrected > 0, "4LC drift must exercise the ECC path");
    let windows: u64 = snap
        .per_bank
        .iter()
        .flat_map(|b| b.points.iter())
        .filter(|p| p.scrubs > 0 && p.reads + p.writes > 0)
        .count() as u64;
    assert!(windows > 0, "scrub must run in intervals with demand ops");

    let doc = snap.to_jsonl();
    let obs = mlc_pcm::telemetry::report::analyze_str(&doc).unwrap();
    let per_bank: Vec<u64> = obs.per_bank.iter().map(|b| b.corrected_symbols).collect();
    assert_eq!(per_bank.iter().sum::<u64>(), corrected);
    assert_eq!(obs.interference.windows, windows);
    let text = obs.render_text();
    for (b, sum) in obs.per_bank.iter().zip(&per_bank) {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(&b.bank.to_string()))
            .unwrap_or_else(|| panic!("no table row for bank {}:\n{text}", b.bank));
        assert_eq!(
            row.split_whitespace().nth(5),
            Some(sum.to_string().as_str()),
            "corrected column of bank {}:\n{text}",
            b.bank
        );
        assert!(
            text.contains(&format!("ecc {}", b.corrected_spark)),
            "corrected-symbol sparkline of bank {} missing:\n{text}",
            b.bank
        );
    }
    assert!(
        text.contains(&format!("interference: {windows} scrub∧demand interval(s)")),
        "interference line missing:\n{text}"
    );
}
