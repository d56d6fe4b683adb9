//! In-memory checkpointing for HPC (§1's motivating use case).
//!
//! An iterative solver checkpoints its state into PCM every epoch. We
//! compare the paper's three designs as checkpoint media:
//!
//! * **3LC** — write and forget: the checkpoint is durable across a crash
//!   and a long power-off repair window, with zero refresh traffic.
//! * **4LCo + refresh** — works while powered (the scrub controller keeps
//!   margins fresh) but the checkpoint is *volatile*: it dies with power.
//! * **4LCn, no refresh** — loses the checkpoint even without a power cut.
//!
//! Run with: `cargo run --release --example checkpoint_store`

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::params::REFRESH_17MIN_SECS;
use mlc_pcm::device::{CellOrganization, DeviceBuilder, ShardedPcmDevice, ShardedScrubber};

/// A toy solver whose state is a vector of f32 residuals.
struct Solver {
    state: Vec<f32>,
    epoch: u32,
}

impl Solver {
    fn new(n: usize) -> Self {
        Self {
            state: (0..n).map(|i| 1.0 / (i as f32 + 1.0)).collect(),
            epoch: 0,
        }
    }

    fn step(&mut self) {
        for (i, x) in self.state.iter_mut().enumerate() {
            *x = (*x * 0.99 + (i as f32).sin() * 1e-3).abs();
        }
        self.epoch += 1;
    }

    /// Serialize epoch + state into 64-byte blocks.
    fn checkpoint(&self) -> Vec<Vec<u8>> {
        let mut bytes = self.epoch.to_le_bytes().to_vec();
        for x in &self.state {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.resize(bytes.len().div_ceil(64) * 64, 0);
        bytes.chunks(64).map(|c| c.to_vec()).collect()
    }

    /// Restore from blocks; `None` if the image is torn.
    fn restore(blocks: &[Vec<u8>], n: usize) -> Option<Solver> {
        let bytes: Vec<u8> = blocks.concat();
        if bytes.len() < 4 + 4 * n {
            return None;
        }
        let epoch = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let state = (0..n)
            .map(|i| {
                let o = 4 + 4 * i;
                f32::from_le_bytes(bytes[o..o + 4].try_into().unwrap())
            })
            .collect();
        Some(Solver { state, epoch })
    }
}

fn store(dev: &ShardedPcmDevice, blocks: &[Vec<u8>]) -> bool {
    blocks
        .iter()
        .enumerate()
        .all(|(i, b)| dev.write_block(i, b).is_ok())
}

fn load(dev: &ShardedPcmDevice, n_blocks: usize) -> Option<Vec<Vec<u8>>> {
    (0..n_blocks)
        .map(|i| dev.read_block(i).ok().map(|r| r.data))
        .collect()
}

fn main() {
    const N: usize = 120; // solver state size → 8 blocks
    let mut solver = Solver::new(N);
    for _ in 0..500 {
        solver.step();
    }
    let image = solver.checkpoint();
    println!(
        "solver at epoch {}, checkpoint = {} blocks\n",
        solver.epoch,
        image.len()
    );

    // --- 3LC: durable checkpoint --------------------------------------
    let dev3 = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(image.len())
        .banks(4)
        .seed(7)
        .build_sharded()
        .unwrap();
    assert!(store(&dev3, &image));
    // Crash + two-year power-off repair window.
    dev3.advance_time(2.0 * 365.25 * 86_400.0);
    let restored = load(&dev3, image.len())
        .and_then(|blocks| Solver::restore(&blocks, N))
        .expect("3LC checkpoint survives years without power");
    assert_eq!(restored.epoch, solver.epoch);
    assert_eq!(restored.state, solver.state);
    println!(
        "3LC      : restored epoch {} after 2 years unpowered  [OK]",
        restored.epoch
    );

    // --- 4LCo with refresh: fine while powered ------------------------
    let dev4 = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: mlc_pcm::core::optimize::four_level_optimal().clone(),
            smart: true,
        })
        .blocks(image.len())
        .banks(4)
        .seed(7)
        .build_sharded()
        .unwrap();
    assert!(store(&dev4, &image));
    let mut scrub = ShardedScrubber::new(&dev4, REFRESH_17MIN_SECS);
    for k in 1..=24 {
        dev4.advance_time(REFRESH_17MIN_SECS);
        scrub.run_until(&dev4, REFRESH_17MIN_SECS * k as f64);
    }
    let ok = load(&dev4, image.len())
        .and_then(|b| Solver::restore(&b, N))
        .is_some_and(|s| s.epoch == solver.epoch);
    println!(
        "4LCo+REF : checkpoint after ~7 powered hours of scrubbing     [{}]",
        if ok { "OK" } else { "LOST" }
    );

    // ... but refresh requires power. Simulate an outage instead:
    let dev4_off = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: LevelDesign::four_level_naive(),
            smart: false,
        })
        .blocks(image.len())
        .banks(4)
        .seed(7)
        .build_sharded()
        .unwrap();
    assert!(store(&dev4_off, &image));
    dev4_off.advance_time(7.0 * 86_400.0); // one week, no refresh
    let lost = load(&dev4_off, image.len())
        .and_then(|b| Solver::restore(&b, N))
        .map(|s| s.epoch == solver.epoch && s.state == solver.state)
        != Some(true);
    println!(
        "4LCn off : checkpoint after a 1-week outage                   [{}]",
        if lost {
            "LOST (as the paper predicts)"
        } else {
            "OK"
        }
    );
    assert!(
        lost,
        "an unrefreshed naive 4LC checkpoint must not survive a week"
    );

    println!(
        "\nConclusion: only the 3LC design gives checkpoint storage that is\n\
         actually nonvolatile — 4LC needs standby power for refresh forever."
    );
}
