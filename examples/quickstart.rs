//! Quickstart: the paper's headline result in sixty lines.
//!
//! Writes the same data to a three-level-cell (3LC) device and a naive
//! four-level-cell (4LC) device, powers both off for increasing spans of
//! time, and shows the 3LC device still reads back perfectly after ten
//! years while the 4LC device rots within hours.
//!
//! Run with: `cargo run --release --example quickstart`

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::params::{format_duration, SECS_PER_YEAR};
use mlc_pcm::device::{CellOrganization, DeviceBuilder, ShardedPcmDevice};

const BLOCKS: usize = 32;

fn checkpoint_bytes(block: usize) -> Vec<u8> {
    (0..64).map(|i| (block * 64 + i) as u8 ^ 0xA5).collect()
}

fn survival(dev: &ShardedPcmDevice) -> usize {
    (0..BLOCKS)
        .filter(|&b| matches!(dev.read_block(b), Ok(r) if r.data == checkpoint_bytes(b)))
        .count()
}

fn main() {
    println!("== mlc-pcm quickstart: is MLC-PCM nonvolatile? ==\n");

    let three = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(8)
        .seed(2024)
        .build_sharded()
        .unwrap();
    let four = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: LevelDesign::four_level_naive(),
            smart: false,
        })
        .blocks(BLOCKS)
        .banks(8)
        .seed(2024)
        .build_sharded()
        .unwrap();

    for b in 0..BLOCKS {
        let data = checkpoint_bytes(b);
        three.write_block(b, &data).expect("3LC write");
        four.write_block(b, &data).expect("4LC write");
    }
    println!("wrote {BLOCKS} blocks (64 B each) to both devices, then cut power.\n");
    println!(
        "{:>12} | {:>18} | {:>18}",
        "elapsed", "3LC blocks intact", "4LCn blocks intact"
    );

    let mut elapsed = 0.0f64;
    for &t in &[
        60.0,
        3600.0,
        86_400.0,
        30.0 * 86_400.0,
        SECS_PER_YEAR,
        10.0 * SECS_PER_YEAR,
    ] {
        let dt = t - elapsed;
        three.advance_time(dt);
        four.advance_time(dt);
        elapsed = t;
        println!(
            "{:>12} | {:>15}/{BLOCKS} | {:>15}/{BLOCKS}",
            format_duration(t),
            survival(&three),
            survival(&four),
        );
    }

    println!(
        "\n3LC keeps every block for a decade without refresh or power — the\n\
         paper's definition of nonvolatile. The naive 4LC design needs refresh\n\
         every ~17 minutes (with an optimal mapping and BCH-10) just to be\n\
         usable as *volatile* memory; unrefreshed, it is gone within a day."
    );
}
