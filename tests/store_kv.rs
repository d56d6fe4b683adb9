//! End-to-end tests of the KV serving layer on the full device stack:
//! round trips through the facade, reopen persistence, thread-count
//! determinism of the workload generator, and `trace-report` rendering
//! of the `kv_*` spans the store emits.

use mlc_pcm::device::{CellOrganization, DeviceBuilder, ShardedPcmDevice, TraceConfig};
use mlc_pcm::sim::trace_report;
use mlc_pcm::store::workload::{self, Mix, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::trace::{jsonl, OpKind};

fn traced_device(blocks: usize, seed: u64) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            mlc_pcm::core::level::LevelDesign::three_level_naive(),
        ))
        .blocks(blocks)
        .banks(4)
        .seed(seed)
        .trace(TraceConfig::new(8192))
        .build_sharded()
        .unwrap()
}

fn fresh_store(cfg: &WorkloadConfig, seed: u64) -> PcmStore {
    let store_cfg = StoreConfig {
        dir_buckets: 16,
        stripes: 8,
    };
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(4) * 4;
    PcmStore::format(traced_device(blocks, seed), store_cfg).unwrap()
}

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig {
        seed: 7,
        actors: 4,
        keys_per_actor: 12,
        ops_per_actor: 40,
        value_bytes: 80,
        mix: Mix::YCSB_A,
        zipf_theta: 0.99,
    }
}

#[test]
fn kv_round_trip_and_reopen_through_the_full_stack() {
    let dev = traced_device(64, 3);
    let store = PcmStore::format(
        dev,
        StoreConfig {
            dir_buckets: 8,
            stripes: 4,
        },
    )
    .unwrap();

    // Values spanning one and several pages, plus an overwrite.
    store.put(1, b"short").unwrap();
    store.put(2, &[0xAB; 150]).unwrap();
    store.put(1, b"replaced").unwrap();
    assert_eq!(store.get(1).unwrap().as_deref(), Some(&b"replaced"[..]));
    assert_eq!(store.get(2).unwrap().as_deref(), Some(&[0xAB; 150][..]));
    assert_eq!(store.get(99).unwrap(), None);
    assert!(store.delete(2).unwrap());
    assert!(!store.delete(2).unwrap());

    // Reopen from the raw device: state lives entirely on the device.
    let reopened = PcmStore::open(store.into_device()).unwrap();
    assert_eq!(reopened.get(1).unwrap().as_deref(), Some(&b"replaced"[..]));
    assert_eq!(reopened.get(2).unwrap(), None);
}

#[test]
fn workload_totals_are_identical_across_runs_and_thread_counts() {
    let cfg = small_cfg();
    let mut baseline = None;
    for threads in [1usize, 2, 8, 2] {
        // includes a repeat run at 2 threads
        let store = fresh_store(&cfg, cfg.seed);
        let report = workload::run(&store, &cfg, threads).unwrap();
        assert_eq!(report.totals.mismatches, 0, "read verification failed");
        assert_eq!(report.totals.misses, 0, "preloaded keys cannot miss");
        assert_eq!(
            report.totals.measured_ops(),
            cfg.actors as u64 * cfg.ops_per_actor
        );
        match &baseline {
            None => baseline = Some(report.totals),
            Some(b) => assert_eq!(*b, report.totals, "{threads} threads diverged"),
        }
    }
}

#[test]
fn trace_report_renders_kv_spans() {
    let cfg = small_cfg();
    let store = fresh_store(&cfg, cfg.seed);
    workload::run(&store, &cfg, 2).unwrap();

    let snap = store.device().tracer().buffer().unwrap().snapshot();
    let doc = jsonl::export(&snap);
    let report = trace_report::analyze(&doc).unwrap();

    for kind in [OpKind::KvGet, OpKind::KvPut] {
        let hist = report
            .histograms
            .iter()
            .find(|h| h.kind == kind)
            .unwrap_or_else(|| panic!("no {} histogram", kind.name()));
        assert!(hist.count > 0, "{} spans missing", kind.name());
        assert!(hist.p50_ns > 0, "{} spans have no duration", kind.name());
    }

    let text = report.render_text();
    assert!(text.contains("kv_get"), "render_text lacks kv_get column");
    assert!(text.contains("kv_put"), "render_text lacks kv_put column");
    // The JSON rendering carries the kv kinds too (for dashboards).
    let json = report.to_json();
    assert!(json.contains("kv_put"));
}
