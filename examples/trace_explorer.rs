//! Deterministic tracing end to end: run a short mixed demand + scrub
//! workload on the sharded engine with tracing on, export the event
//! stream as JSONL and as a Chrome trace, and print the same summary
//! `cargo run -p xtask -- trace-report` would.
//!
//! The JSONL file feeds `trace-report` (and any line-oriented tooling);
//! the Chrome file loads straight into `chrome://tracing` / Perfetto,
//! with banks as rows and scrub passes on their own per-bank lane.
//!
//! Run with: `cargo run --release --example trace_explorer`

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{CellOrganization, DeviceBuilder, ShardedScrubber, TraceConfig};
use mlc_pcm::sim::trace_report;
use mlc_pcm::trace::{chrome, jsonl};

const BLOCKS: usize = 32;
const BANKS: usize = 4;
const SCRUB_INTERVAL_SECS: f64 = 2.0;
const ROUNDS: usize = 4;

fn main() {
    // A traced sharded device: every thread (demand and scrub cursors)
    // records into the same per-bank ring buffers.
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(42)
        .trace(TraceConfig::new(4096))
        .build_sharded()
        .expect("valid geometry");

    for b in 0..BLOCKS {
        dev.write_block(b, &[b as u8 ^ 0xA5; 64]).expect("write");
    }

    // Mixed workload: each round advances model time, lets the scrubber
    // walk the blocks that came due from two background threads, and
    // drives demand traffic from two threads.
    let mut scrubber = ShardedScrubber::new(&dev, SCRUB_INTERVAL_SECS);
    for round in 1..=ROUNDS {
        let t = SCRUB_INTERVAL_SECS * round as f64;
        dev.advance_time(t - dev.now());
        std::thread::scope(|scope| {
            for thread in 0..2usize {
                let dev = &dev;
                scope.spawn(move || {
                    for i in 0..24 {
                        let block = (thread * 2 + i % 2) + BANKS * (i % (BLOCKS / BANKS));
                        if i % 3 == 0 {
                            dev.write_block(block, &[i as u8; 64]).expect("write");
                        } else {
                            dev.read_block(block).expect("read");
                        }
                    }
                });
            }
        });
        scrubber.run_until_concurrent(&dev, t, 2);
    }

    let snapshot = dev
        .tracer()
        .buffer()
        .expect("tracing was enabled")
        .snapshot();

    let out_dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(out_dir).expect("create target/traces");
    let jsonl_path = out_dir.join("trace_explorer.jsonl");
    let chrome_path = out_dir.join("trace_explorer.chrome.json");
    let doc = jsonl::export(&snapshot);
    std::fs::write(&jsonl_path, &doc).expect("write jsonl");
    std::fs::write(&chrome_path, chrome::export(&snapshot)).expect("write chrome");

    println!(
        "wrote {} ({} events, {} dropped)",
        jsonl_path.display(),
        snapshot.total_events(),
        snapshot.total_dropped()
    );
    println!(
        "wrote {} (load in chrome://tracing or ui.perfetto.dev)",
        chrome_path.display()
    );
    println!();

    // The same summary `cargo run -p xtask -- trace-report <file>` prints.
    let report = trace_report::analyze(&doc).expect("well-formed export");
    print!("{}", report.render_text());
}
