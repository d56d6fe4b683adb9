//! Integration tests for the bank-sharded concurrent engine, driven
//! through the `mlc_pcm` facade the way an application would use it:
//! many threads contending for the same shards, the shared clock, and
//! the typed error surface.

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{CellOrganization, DeviceBuilder, PcmError, ShardedPcmDevice};

fn sharded(blocks: usize, banks: usize, seed: u64) -> ShardedPcmDevice {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(blocks)
        .banks(banks)
        .seed(seed)
        .build_sharded()
        .unwrap()
}

fn pattern(block: usize) -> Vec<u8> {
    (0..64).map(|i| (block * 31 + i) as u8).collect()
}

#[test]
fn contended_threads_share_banks_safely() {
    // 8 threads over 4 banks: every bank's mutex is contended by two
    // threads. Blocks are disjoint per thread, so after the join every
    // block must hold exactly what its writer stored.
    let dev = sharded(32, 4, 42);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let dev = &dev;
            scope.spawn(move || {
                for block in (t..32).step_by(8) {
                    dev.write_block(block, &pattern(block)).unwrap();
                    assert_eq!(dev.read_block(block).unwrap().data, pattern(block));
                }
            });
        }
    });
    for block in 0..32 {
        assert_eq!(dev.read_block(block).unwrap().data, pattern(block));
    }
    let stats = dev.stats();
    assert_eq!(stats.writes, 32);
    // 32 in-thread reads plus the 32 verification reads above.
    assert_eq!(stats.reads, 64);
}

#[test]
fn out_of_range_blocks_yield_typed_errors() {
    let dev = sharded(8, 4, 1);
    match dev.read_block(8) {
        Err(PcmError::BlockOutOfRange { block, blocks }) => {
            assert_eq!((block, blocks), (8, 8));
        }
        other => panic!("expected BlockOutOfRange, got {other:?}"),
    }
    assert!(dev.write_block(100, &[0u8; 64]).is_err());
    assert!(matches!(
        dev.refresh_block(99),
        Err(PcmError::BlockOutOfRange { block: 99, .. })
    ));
    // Fault injection past the last block names that block.
    let cells = dev.blocks() * 364;
    assert!(matches!(
        dev.inject_lifetime(cells, 1),
        Err(PcmError::BlockOutOfRange { block: 8, .. })
    ));
    // A rejected op leaves the device usable: in-range ops still work.
    dev.write_block(0, &pattern(0)).unwrap();
    dev.write_block(1, &pattern(1)).unwrap();
    assert_eq!(dev.read_block(0).unwrap().data, pattern(0));
    assert_eq!(dev.read_block(1).unwrap().data, pattern(1));
}

#[test]
fn clock_is_shared_across_threads_and_shards() {
    let dev = sharded(8, 4, 3);
    dev.write_block(0, &pattern(0)).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let dev = &dev;
            scope.spawn(move || {
                for _ in 0..250 {
                    dev.advance_time(0.5);
                }
            });
        }
    });
    assert_eq!(dev.now(), 500.0);
    // Reads observe the advanced clock (drift), and still decode.
    assert_eq!(dev.read_block(0).unwrap().data, pattern(0));
}
