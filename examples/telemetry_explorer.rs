//! Model-time telemetry end to end: run a skewed YCSB-B workload with
//! background scrub on a drift-prone 4LC store, phase by phase so model
//! time accrues between op slices, then print each bank's risk timeline
//! and the same summary `cargo run -p xtask -- obs-report` would.
//!
//! The exported JSONL under `target/telemetry/` feeds `obs-report` (and
//! any line-oriented tooling); the Prometheus text file shows the same
//! final state in scrape form.
//!
//! Run with: `cargo run --release --example telemetry_explorer`

use mlc_pcm::core::params::REFRESH_17MIN_SECS;
use mlc_pcm::device::{CellOrganization, DeviceBuilder, DriftRiskConfig, TelemetryConfig};
use mlc_pcm::store::workload::{run_phased, Mix, PhasedConfig, WorkloadConfig};
use mlc_pcm::store::{PcmStore, StoreConfig};
use mlc_pcm::telemetry::report;

const BANKS: usize = 4;
const PHASES: usize = 6;

fn main() {
    // A zipf-skewed YCSB-B mix (95% reads) over a 4LC store: the
    // organization the paper shows *needs* scrub, so the drift-risk
    // estimator has something real to watch.
    let cfg = WorkloadConfig {
        seed: 7,
        actors: 4,
        keys_per_actor: 48,
        ops_per_actor: 300,
        mix: Mix::YCSB_B,
        zipf_theta: 0.99,
        ..WorkloadConfig::default()
    };
    let store_cfg = StoreConfig {
        dir_buckets: 32,
        stripes: 8,
    };
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(BANKS) * BANKS;

    // One telemetry sample per phase boundary; a correction budget in
    // the range scrub actually corrects per interval here, so the run
    // walks the whole Healthy → Elevated → Critical state machine.
    let interval_ns = (REFRESH_17MIN_SECS * 1e9) as u64;
    let telemetry = TelemetryConfig::new(interval_ns).with_risk(DriftRiskConfig {
        budget_per_interval: 64,
        ewma_shift: 1,
        elevated_permille: 500,
        critical_permille: 900,
    });
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: mlc_pcm::core::optimize::four_level_optimal().clone(),
            smart: true,
        })
        .blocks(blocks)
        .banks(BANKS)
        .seed(cfg.seed)
        .telemetry(telemetry)
        .build_sharded()
        .expect("valid geometry");
    let store = PcmStore::format(dev, store_cfg).expect("format");

    // Phased execution: op slices interleaved with 17-minute model-time
    // advances, background scrub catching up at each boundary.
    let phased = PhasedConfig {
        phases: PHASES,
        advance_secs: REFRESH_17MIN_SECS,
        scrub_interval_secs: Some(REFRESH_17MIN_SECS),
    };
    let rep = run_phased(&store, &cfg, &phased, 2).expect("workload");
    println!(
        "{} measured ops across {PHASES} phases | {} model-seconds | {} mismatches",
        rep.totals.measured_ops(),
        PHASES as f64 * REFRESH_17MIN_SECS,
        rep.totals.mismatches
    );
    println!();

    // The per-bank risk timeline: one sampled point per phase boundary,
    // with the drift EWMA (permille of the correction budget) and the
    // risk classification the adaptive-scrub controller will consume.
    let snap = store
        .device()
        .telemetry()
        .expect("telemetry was enabled")
        .snapshot();
    println!("per-bank risk timeline (tick: ewma-permille state):");
    for bank in &snap.per_bank {
        let timeline: Vec<String> = bank
            .points
            .iter()
            .map(|p| format!("t{}: {}\u{2030} {}", p.tick, p.ewma_permille, p.risk.name()))
            .collect();
        println!("  bank {}  {}", bank.bank, timeline.join(" | "));
    }
    println!();

    let out_dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(out_dir).expect("create target/telemetry");
    let jsonl_path = out_dir.join("telemetry_explorer.jsonl");
    let prom_path = out_dir.join("telemetry_explorer.prom");
    let doc = snap.to_jsonl();
    std::fs::write(&jsonl_path, &doc).expect("write jsonl");
    std::fs::write(&prom_path, snap.to_prometheus()).expect("write prometheus");
    println!(
        "wrote {} (feed to `cargo run -p xtask -- obs-report`)",
        jsonl_path.display()
    );
    println!("wrote {} (Prometheus text exposition)", prom_path.display());
    println!();

    // The same summary `cargo run -p xtask -- obs-report <file>` prints.
    let obs = report::analyze_str(&doc, BANKS).expect("well-formed export");
    print!("{}", obs.render_text());
}
