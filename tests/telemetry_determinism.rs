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
    CellOrganization, DeviceBuilder, DriftRiskConfig, ShardedPcmDevice, ShardedScrubber,
    TelemetryConfig,
};
use mlc_pcm::store::workload::{run_phased, PhasedConfig, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::telemetry::RiskState;

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
fn obs_report_renders_risk_states_from_a_store_workload() {
    // The end-to-end sensing path the adaptive-scrub controller will
    // sit on: a real KV workload on a drift-prone 4LC store, phased so
    // model time (and drift) accrues between op slices, scrub correcting
    // drifted cells as it goes. The corrected-symbol flow must push the
    // risk estimator off Healthy, and `obs-report`'s analyzer must
    // render the per-bank risk states from the exported series.
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
        .telemetry(
            TelemetryConfig::new(interval_ns).with_risk(DriftRiskConfig {
                budget_per_interval: 4,
                ewma_shift: 1,
                elevated_permille: 100,
                critical_permille: 800,
            }),
        )
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
    assert!(
        snap.per_bank.iter().any(|b| b.risk != RiskState::Healthy),
        "corrected-symbol flow must move some bank off Healthy"
    );

    let doc = snap.to_jsonl();
    let obs = mlc_pcm::telemetry::report::analyze_str(&doc, banks).unwrap();
    let text = obs.render_text();
    assert!(
        text.contains("top risk banks"),
        "risk table missing:\n{text}"
    );
    assert!(
        text.contains("elevated") || text.contains("critical"),
        "non-healthy risk state must be rendered:\n{text}"
    );
}
