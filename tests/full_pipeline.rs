//! Cross-crate integration: the full write → drift → (refresh) → read
//! pipelines, combining the cell model (pcm-core), codecs (pcm-codec),
//! ECC (pcm-ecc), wearout tolerance (pcm-wearout) and the device
//! simulator (pcm-device).

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::core::params::{REFRESH_17MIN_SECS, SECS_PER_YEAR, TEN_YEARS_SECS};
use mlc_pcm::device::{
    BlockError, CellOrganization, DeviceBuilder, PcmError, ShardedPcmDevice, ShardedScrubber,
};

fn pattern(b: usize, salt: u8) -> Vec<u8> {
    (0..64)
        .map(|i| ((b * 64 + i) as u8).wrapping_mul(13).wrapping_add(salt))
        .collect()
}

#[test]
fn three_level_device_full_decade_with_wearout() {
    // The paper's full story on one device: wearout during the write
    // phase, then ten unpowered years, then perfect readback.
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(32)
        .banks(8)
        .seed(2013)
        .build_sharded()
        .unwrap();
    // Sprinkle early-failing cells across the array.
    for k in 0..24 {
        dev.inject_lifetime((k * 997) % (32 * 364), k as u64 % 4 + 1)
            .unwrap();
    }
    // Write everything a few times (persistent-store usage).
    for round in 0..4 {
        for b in 0..32 {
            dev.write_block(b, &pattern(b, round))
                .expect("write survives wearout");
        }
    }
    assert!(dev.stats().wearout_faults > 0, "sabotage must bite");
    dev.advance_time(TEN_YEARS_SECS);
    for b in 0..32 {
        let r = dev.read_block(b).expect("nonvolatile readback");
        assert_eq!(r.data, pattern(b, 3), "block {b}");
    }
}

#[test]
fn four_level_device_lives_on_refresh_dies_without() {
    let design = mlc_pcm::core::optimize::four_level_optimal().clone();
    // Refreshed device: survives a simulated day of 17-minute scrubs.
    let refreshed = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: design.clone(),
            smart: true,
        })
        .blocks(16)
        .banks(8)
        .seed(5)
        .build_sharded()
        .unwrap();
    for b in 0..16 {
        refreshed.write_block(b, &pattern(b, 1)).unwrap();
    }
    let mut scrubber = ShardedScrubber::new(&refreshed, REFRESH_17MIN_SECS);
    for k in 1..=84u32 {
        refreshed.advance_time(REFRESH_17MIN_SECS);
        let rep = scrubber.run_until(&refreshed, REFRESH_17MIN_SECS * k as f64);
        assert_eq!(rep.failures, 0, "scrub failed at period {k}");
    }
    for b in 0..16 {
        assert_eq!(refreshed.read_block(b).unwrap().data, pattern(b, 1));
    }

    // The same organization without refresh must eventually lose data.
    let bare = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: LevelDesign::four_level_naive(),
            smart: false,
        })
        .blocks(16)
        .banks(8)
        .seed(5)
        .build_sharded()
        .unwrap();
    for b in 0..16 {
        bare.write_block(b, &pattern(b, 1)).unwrap();
    }
    bare.advance_time(SECS_PER_YEAR);
    let dead = (0..16)
        .filter(|&b| !matches!(bare.read_block(b), Ok(r) if r.data == pattern(b, 1)))
        .count();
    assert!(
        dead >= 15,
        "a year of unrefreshed 4LCn drift: {dead}/16 dead"
    );
}

#[test]
fn refresh_resets_the_drift_clock_not_just_errors() {
    // After many refresh periods, a refreshed block must look as young as
    // a freshly written one: the next period's error statistics must not
    // accumulate.
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::FourLevel {
            design: mlc_pcm::core::optimize::four_level_optimal().clone(),
            smart: false,
        })
        .blocks(8)
        .banks(8)
        .seed(17)
        .build_sharded()
        .unwrap();
    for b in 0..8 {
        dev.write_block(b, &pattern(b, 9)).unwrap();
    }
    // 40 periods with scrubs: corrected bit count should stay roughly
    // constant per period (no error accumulation across periods).
    let mut per_period = Vec::new();
    for _ in 0..40 {
        dev.advance_time(REFRESH_17MIN_SECS);
        let before = dev.stats().corrected_bits;
        for b in 0..8 {
            dev.refresh_block(b).unwrap();
        }
        per_period.push(dev.stats().corrected_bits - before);
    }
    let first_half: u64 = per_period[..20].iter().sum();
    let second_half: u64 = per_period[20..].iter().sum();
    // Allow noise, but no systematic growth (second half ≤ 4× first+3).
    assert!(
        second_half <= 4 * first_half + 3,
        "drift errors accumulate across refreshes: {per_period:?}"
    );
}

#[test]
fn mixed_traffic_determinism() {
    // Two identically seeded devices fed identical traffic must agree
    // bit-for-bit in data and statistics.
    let build = || {
        DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(16)
            .banks(4)
            .seed(42)
            .build_sharded()
            .unwrap()
    };
    let run = |dev: ShardedPcmDevice| {
        for step in 0..200u32 {
            let b = (step as usize * 7) % 16;
            if step % 3 == 0 {
                let _ = dev.write_block(b, &pattern(b, step as u8));
            } else {
                let _ = dev.read_block(b);
            }
            dev.advance_time(3600.0);
        }
        (
            dev.stats(),
            (0..16)
                .map(|b| dev.read_block(b).ok().map(|r| r.data))
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(build()), run(build()));
}

#[test]
fn wearout_exhaustion_is_contained_per_block() {
    // Exhausting one block's spares must not affect its neighbors.
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(4)
        .banks(4)
        .seed(3)
        .build_sharded()
        .unwrap();
    // Kill 8 pairs of block 2 only.
    for p in 0..8 {
        dev.inject_lifetime(2 * 364 + p * 2, 1).unwrap();
    }
    let mut block2_failed = false;
    for round in 0..12u8 {
        for b in 0..4 {
            match dev.write_block(b, &pattern(b, round)) {
                Ok(_) => {}
                Err(PcmError::Block(BlockError::WearoutExhausted)) if b == 2 => {
                    block2_failed = true
                }
                Err(e) => panic!("block {b} unexpectedly failed: {e}"),
            }
        }
    }
    assert!(block2_failed, "block 2 must exhaust its six spares");
    for b in [0usize, 1, 3] {
        assert_eq!(dev.read_block(b).unwrap().data, pattern(b, 11), "block {b}");
    }
}

#[test]
fn corrected_bits_are_reported_through_the_stack() {
    // Age a 3LC device to where occasional drift errors appear, scrub,
    // and confirm the BCH-1 corrections surface in device stats.
    let dev = DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(64)
        .banks(8)
        .seed(1234)
        .build_sharded()
        .unwrap();
    for b in 0..64 {
        dev.write_block(b, &pattern(b, 0)).unwrap();
    }
    // ~34 years: 3LCn CER ≈ 1e-6..1e-5 — with 64 blocks × 354 cells we
    // expect a handful of single-cell upsets, all correctable.
    dev.advance_time(2f64.powi(30));
    for b in 0..64 {
        let r = dev.read_block(b).expect("BCH-1 absorbs rare upsets");
        assert_eq!(r.data, pattern(b, 0));
    }
    // Statistics must be consistent with reads.
    assert_eq!(dev.stats().reads, 64);
    assert_eq!(dev.stats().uncorrectable_reads, 0);
}
