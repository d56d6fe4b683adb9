//! The tracing determinism oracle.
//!
//! The `pcm-trace` contract: events for bank `b` are recorded while
//! bank `b` is (logically) owned, so each bank's event stream is a pure
//! function of that bank's operation order. Therefore the device at any
//! thread count must produce — after the canonical per-bank sort by
//! `(t_ns, seq)` — the *identical* event stream as the same ops run
//! inline on one thread, and a fixed-seed run must export
//! byte-identical JSONL every time.

mod common;

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{
    CellOrganization, DeviceBuilder, ShardedPcmDevice, ShardedScrubber, TraceConfig,
};
use mlc_pcm::trace::{jsonl, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;

const BLOCKS: usize = 16;
const BANKS: usize = 4;
const INTERVAL: f64 = 1.6; // step = 0.1 s: round boundaries are exact

fn builder(seed: u64) -> DeviceBuilder {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
        .trace(TraceConfig::new(4096))
}

fn payload(b: usize) -> Vec<u8> {
    vec![b as u8 ^ 0x5A; 64]
}

type Rounds = Vec<Vec<(usize, bool)>>;

fn apply(dev: &ShardedPcmDevice, &(block, is_write): &(usize, bool)) {
    if is_write {
        dev.write_block(block, &payload(block)).unwrap();
    } else {
        dev.read_block(block).unwrap();
    }
}

/// Write all blocks, then drive `rounds` inline (`threads == None`, the
/// reference) or on `threads` threads. Returns the canonical per-bank
/// event streams.
fn events(seed: u64, rounds: &Rounds, threads: Option<usize>) -> Vec<Vec<TraceEvent>> {
    let dev = builder(seed).build_sharded().unwrap();
    for b in 0..BLOCKS {
        dev.write_block(b, &payload(b)).unwrap();
    }
    common::run_rounds(&dev, INTERVAL, rounds, threads, |op| op.0, apply);
    dev.tracer()
        .buffer()
        .unwrap()
        .snapshot()
        .canonical_per_bank()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_trace_matches_sequential_at_any_thread_count(
        seed in 0u64..1000,
        rounds in vec(vec((0usize..16, any::<bool>()), 0..12), 1..4),
    ) {
        let want = events(seed, &rounds, None);
        prop_assert!(
            want.iter().map(Vec::len).sum::<usize>() > 0,
            "reference run must trace something"
        );
        for threads in [1usize, 2, 8] {
            let got = events(seed, &rounds, Some(threads));
            prop_assert_eq!(&got, &want, "event streams diverge at threads={}", threads);
        }
    }
}

#[test]
fn fixed_seed_jsonl_is_byte_identical_across_runs() {
    let run = || {
        let dev = builder(77).build_sharded().unwrap();
        for b in 0..BLOCKS {
            dev.write_block(b, &payload(b)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, INTERVAL);
        dev.advance_time(2.0 * INTERVAL);
        scrubber.run_until(&dev, 2.0 * INTERVAL);
        for b in 0..BLOCKS {
            dev.read_block(b).unwrap();
        }
        jsonl::export(&dev.tracer().buffer().unwrap().snapshot())
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed, same ops must export identical bytes");
    // And the export round-trips through the parser.
    let parsed = jsonl::parse(&a).unwrap();
    assert_eq!(parsed.banks, BANKS);
    assert!(parsed.events.len() > BLOCKS);
}

#[test]
fn tracing_does_not_perturb_device_results() {
    // A traced device and an untraced one walk identical trajectories:
    // the recorder observes, it never participates.
    let run = |traced: bool| {
        let b = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(BLOCKS)
            .banks(BANKS)
            .seed(5);
        let b = if traced {
            b.trace(TraceConfig::new(256))
        } else {
            b
        };
        let dev = b.build_sharded().unwrap();
        for blk in 0..BLOCKS {
            dev.write_block(blk, &payload(blk)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, INTERVAL);
        dev.advance_time(INTERVAL);
        scrubber.run_until(&dev, INTERVAL);
        let data: Vec<Vec<u8>> = (0..BLOCKS)
            .map(|blk| dev.read_block(blk).unwrap().data)
            .collect();
        (data, dev.bank_stats(), dev.metrics().snapshot())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn dropped_events_are_counted_not_blocking() {
    // A deliberately tiny ring: recording must stay non-blocking and
    // surface the overwritten count in the snapshot (and from there in
    // trace-report).
    let small = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(3)
        .trace(TraceConfig::new(4))
        .build_sharded()
        .unwrap();
    for round in 0..8 {
        for b in 0..BLOCKS {
            small.write_block(b, &payload(b ^ round)).unwrap();
        }
    }
    let snap = small.tracer().buffer().unwrap().snapshot();
    assert!(snap.total_dropped() > 0, "tiny ring must overwrite");
    for lane in &snap.per_bank {
        assert!(lane.events.len() <= 4, "ring bound respected");
        assert_eq!(lane.recorded, lane.dropped + lane.events.len() as u64);
    }
    // The dropped count survives the JSONL round trip into the report.
    let doc = jsonl::export(&snap);
    let report = mlc_pcm::sim::trace_report::analyze(&doc).unwrap();
    assert_eq!(report.total_dropped, snap.total_dropped());
}
