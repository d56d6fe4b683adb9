//! The causal-profiling determinism oracle (DESIGN.md §17).
//!
//! Three contracts on top of the tracing oracle:
//!
//! 1. **Attribution is thread-count-invariant.** Correlation ids come
//!    from split counters (per stream), so the profile built from an
//!    inline run and from runs at 1/2/8 threads — same per-bank op
//!    order — must export byte-identical folded stacks and profile
//!    JSONL.
//! 2. **Observation is free.** A device driven through the `*_ctx` ops
//!    with tracing enabled walks the identical trajectory (data, stats,
//!    metrics) as one driven without tracing: the ctx plumbing and the
//!    scrub-debt stall model never touch device state.
//! 3. **Buckets partition exactly.** On a phased YCSB-B store workload
//!    with background scrub, every request's named buckets sum to its
//!    span duration in integer ns with zero residual, and scrub
//!    interference is actually attributed (nonzero stall somewhere).

mod common;

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{
    CellOrganization, DeviceBuilder, ShardedPcmDevice, TelemetryConfig, TraceConfig,
};
use mlc_pcm::sim::profile;
use mlc_pcm::store::workload::{run_phased, Mix, PhasedConfig, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::trace::{jsonl, pack_ctx, CtxClass, OpKind};

const BLOCKS: usize = 16;
const BANKS: usize = 4;
const INTERVAL: f64 = 1.6;
const SEED: u64 = 42;

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

/// The fixed demand schedule: three scrubbed rounds of mixed ops over
/// every block, each op pre-assigned a request ctx from per-bank split
/// counters — the id depends only on the op's position in its bank's
/// stream, never on which thread issues it.
fn rounds_with_ctx() -> Vec<Vec<(usize, bool, u64)>> {
    let mut seq = [0u32; BANKS];
    (0..3usize)
        .map(|round| {
            (0..BLOCKS)
                .map(|block| {
                    let bank = block % BANKS;
                    let ctx = pack_ctx(CtxClass::Kv, bank as u64 + 1, seq[bank]);
                    seq[bank] += 1;
                    (block, (block + round) % 3 == 0, ctx)
                })
                .collect()
        })
        .collect()
}

fn apply(dev: &ShardedPcmDevice, &(block, is_write, ctx): &(usize, bool, u64)) {
    if is_write {
        dev.write_block_ctx(block, &payload(block), ctx).unwrap();
    } else {
        dev.read_block_ctx(block, ctx).unwrap();
    }
}

/// Preload every block, then drive the ctx-carrying rounds inline
/// (`threads == None`, the reference) or with the banks partitioned
/// over `threads` threads — the same per-bank order either way.
fn drive(dev: &ShardedPcmDevice, rounds: &[Vec<(usize, bool, u64)>], threads: Option<usize>) {
    for b in 0..BLOCKS {
        dev.write_block(b, &payload(b)).unwrap();
    }
    common::run_rounds(dev, INTERVAL, rounds, threads, |op| op.0, apply);
}

/// The JSONL trace of one [`drive`] run.
fn trace(seed: u64, rounds: &[Vec<(usize, bool, u64)>], threads: Option<usize>) -> String {
    let dev = builder(seed).build_sharded().unwrap();
    drive(&dev, rounds, threads);
    jsonl::export(&dev.tracer().buffer().unwrap().snapshot())
}

/// Every request's buckets must sum to its duration exactly — integer
/// ns, no residual, no overrun.
fn assert_exact_partition(p: &profile::Profile) {
    for r in &p.requests {
        let b = &r.buckets;
        assert_eq!(
            b.media_ns + b.ecc_ns + b.alloc_index_ns + b.scrub_wait_ns + b.queue_wait_ns,
            r.duration_ns,
            "buckets must partition the span: {r:?}"
        );
        assert_eq!(b.overrun_ns, 0, "no request may overrun its span: {r:?}");
    }
}

#[test]
fn attribution_is_identical_sequential_vs_sharded() {
    let rounds = rounds_with_ctx();
    let want_doc = trace(SEED, &rounds, None);
    let want = profile::build(&want_doc).unwrap();
    assert!(
        want.requests.len() >= BLOCKS,
        "reference run must attribute something"
    );
    assert_eq!(want.orphan_events, 0);
    assert_exact_partition(&want);
    let (want_folded, want_jsonl) = (want.to_folded(), want.to_jsonl());
    assert!(!want_folded.is_empty());
    for threads in [1usize, 2, 8] {
        let got = profile::build(&trace(SEED, &rounds, Some(threads))).unwrap();
        assert_eq!(
            got.to_folded(),
            want_folded,
            "folded stacks diverge at threads={threads}"
        );
        assert_eq!(
            got.to_jsonl(),
            want_jsonl,
            "profile JSONL diverges at threads={threads}"
        );
    }
}

#[test]
fn ctx_ops_do_not_perturb_device_results() {
    // The same ctx-op trajectory on a traced and an untraced device
    // must agree bit for bit: ctx plumbing and the scrub-debt stall
    // model are observation, not simulation.
    let rounds = rounds_with_ctx();
    let run = |traced: bool| {
        let b = DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(BLOCKS)
            .banks(BANKS)
            .seed(5);
        let b = if traced {
            b.trace(TraceConfig::new(4096))
        } else {
            b
        };
        let dev = b.build_sharded().unwrap();
        drive(&dev, &rounds, None);
        let data: Vec<Vec<u8>> = (0..BLOCKS)
            .map(|blk| dev.read_block(blk).unwrap().data)
            .collect();
        (data, dev.bank_stats(), dev.metrics().snapshot())
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn phased_ycsb_b_attributes_scrub_interference_exactly() {
    // The bench's observability pass in miniature: YCSB-B slices
    // interleaved with model-time advances and background scrub, on a
    // traced store. Scrub debt must surface as nonzero scrub_wait on
    // stalled requests, and every request must still partition exactly.
    let cfg = WorkloadConfig {
        seed: SEED,
        actors: 2,
        keys_per_actor: 40,
        ops_per_actor: 200,
        mix: Mix::YCSB_B,
        ..WorkloadConfig::default()
    };
    let store_cfg = StoreConfig {
        dir_buckets: 64,
        stripes: 16,
    };
    let banks = 8;
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(banks) * banks;
    let dev = DeviceBuilder::new()
        .blocks(blocks)
        .banks(banks)
        .seed(cfg.seed)
        .telemetry(TelemetryConfig::new(25_000_000))
        .trace(TraceConfig::new(1 << 16))
        .build_sharded()
        .unwrap();
    let store = PcmStore::format(dev, store_cfg).unwrap();
    let phased = PhasedConfig {
        phases: 8,
        advance_secs: 0.025,
        scrub_interval_secs: Some(0.005),
    };
    run_phased(&store, &cfg, &phased, 2).unwrap();

    let doc = jsonl::export(&store.device().tracer().buffer().unwrap().snapshot());
    let p = profile::build(&doc).unwrap();
    assert!(p.requests.len() > 100, "expected a populated profile");
    assert_eq!(p.orphan_events, 0, "trace ring must not wrap");
    assert_exact_partition(&p);

    let kv = |k: OpKind| matches!(k, OpKind::KvGet | OpKind::KvPut | OpKind::KvDelete);
    let stalled_kv: u64 = p
        .requests
        .iter()
        .filter(|r| kv(r.kind))
        .map(|r| r.buckets.scrub_wait_ns)
        .sum();
    assert!(
        stalled_kv > 0,
        "background scrub must interfere with some KV request"
    );
    // KV roots are modeled spans: their duration IS the sum of their
    // device work, so they carry no queue slack at all.
    for r in p.requests.iter().filter(|r| kv(r.kind)) {
        assert_eq!(r.buckets.queue_wait_ns, 0, "KV spans are exact: {r:?}");
    }
    // The interference rollup agrees with the per-request view.
    let rollup: u64 = p.scrub_interference().iter().map(|&(_, _, ns)| ns).sum();
    let per_request: u64 = p.requests.iter().map(|r| r.buckets.scrub_wait_ns).sum();
    assert_eq!(rollup, per_request);
    // And the export round-trips byte-stably.
    let jsonl_doc = p.to_jsonl();
    assert_eq!(profile::parse(&jsonl_doc).unwrap().to_jsonl(), jsonl_doc);
}
