//! Integration tests for the bank-sharded concurrent engine, driven
//! through the `mlc_pcm` facade the way an application would use it:
//! many threads contending for the same shards, bulk batch paths, the
//! shared clock, and the typed error surface.

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
                let mut session = dev.session();
                for block in (t..32).step_by(8) {
                    session.write_block(block, &pattern(block)).unwrap();
                    assert_eq!(session.read_block(block).unwrap().data, pattern(block));
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
fn batch_paths_cross_banks_in_one_call() {
    let dev = sharded(16, 8, 7);
    // Submission order deliberately hops banks back and forth.
    let blocks: Vec<usize> = vec![15, 0, 9, 3, 8, 1, 14, 2];
    let payloads: Vec<Vec<u8>> = blocks.iter().map(|&b| pattern(b)).collect();
    let requests: Vec<(usize, &[u8])> = blocks
        .iter()
        .zip(&payloads)
        .map(|(&b, p)| (b, p.as_slice()))
        .collect();

    let mut session = dev.session();
    let write_reports = session.write_batch(&requests);
    assert_eq!(write_reports.len(), blocks.len());
    assert!(write_reports.iter().all(|r| r.is_ok()));
    let read_reports = session.read_batch(&blocks);
    // Results come back in submission order, not bank order.
    for (report, want) in read_reports.iter().zip(&payloads) {
        assert_eq!(&report.as_ref().unwrap().data, want);
    }
    assert_eq!(session.stats().writes, blocks.len() as u64);
    assert_eq!(session.stats().reads, blocks.len() as u64);
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
    // Batches report per-op results: the bad op fails, the rest of the
    // batch is unaffected.
    dev.write_block(0, &pattern(0)).unwrap();
    dev.write_block(1, &pattern(1)).unwrap();
    let results = dev.read_batch(&[0, 1, 99]);
    assert!(matches!(results[2], Err(PcmError::BlockOutOfRange { .. })));
    assert_eq!(results[0].as_ref().unwrap().data, pattern(0));
    assert_eq!(results[1].as_ref().unwrap().data, pattern(1));
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
