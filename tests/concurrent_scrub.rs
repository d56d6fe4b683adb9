//! Integration tests for the scrub subsystem: the inline integer-tick
//! scrubber against the same schedule fanned out over scrub threads,
//! background scrub threads interleaved with demand sessions,
//! long-horizon schedule exactness, and the metrics registry shared by
//! every handle onto a device.

use mlc_pcm::core::level::LevelDesign;
use mlc_pcm::device::{CellOrganization, DeviceBuilder, RefreshReport, ShardedScrubber};

const BLOCKS: usize = 16;
const BANKS: usize = 4;

fn builder(seed: u64) -> DeviceBuilder {
    DeviceBuilder::new()
        .organization(CellOrganization::ThreeLevel(
            LevelDesign::three_level_naive(),
        ))
        .blocks(BLOCKS)
        .banks(BANKS)
        .seed(seed)
}

fn pattern(block: usize) -> Vec<u8> {
    (0..64).map(|i| (block * 17 + i) as u8).collect()
}

#[test]
fn inline_scrub_matches_sequential_controller_end_to_end() {
    // The inline scrubber is the reference: the same schedule fanned out
    // over scrub threads must match it report for report, and leave the
    // same data, stats and metrics behind.
    let run = |threads: Option<usize>| {
        let dev = builder(404).build_sharded().unwrap();
        for b in 0..BLOCKS {
            dev.write_block(b, &pattern(b)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1.6);
        let reports: Vec<RefreshReport> = (1..=6u32)
            .map(|k| {
                let t = 1.6 * k as f64;
                dev.advance_time(t - dev.now());
                match threads {
                    None => scrubber.run_until(&dev, t),
                    Some(n) => scrubber.run_until_concurrent(&dev, t, n),
                }
            })
            .collect();
        let reads: Vec<_> = (0..BLOCKS).map(|b| dev.read_block(b).unwrap()).collect();
        (reports, reads, dev.stats(), dev.metrics().snapshot())
    };
    let want = run(None);
    assert_eq!(want.2.refreshes, 6 * BLOCKS as u64);
    for threads in [1usize, 2, 4, 8] {
        assert_eq!(run(Some(threads)), want, "threads={threads}");
    }
}

#[test]
fn background_scrub_interleaves_with_demand_sessions() {
    // Free-running interleave: demand writers hammer their own blocks
    // while the scrubber walks the device from two scrub threads. The
    // interleaving is nondeterministic, so this asserts the invariants
    // that must hold regardless of schedule: exact scrub count, no
    // failures, every block readable with its writer's payload, and a
    // metrics registry whose totals agree with the device stats.
    let dev = builder(77).build_sharded().unwrap();
    for b in 0..BLOCKS {
        dev.write_block(b, &pattern(b)).unwrap();
    }
    let mut scrubber = ShardedScrubber::new(&dev, 1.6);
    const PERIODS: u32 = 4;
    let mut scrub_report = RefreshReport::default();
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let dev = &dev;
            scope.spawn(move || {
                for round in 0..25 {
                    for block in (t..BLOCKS).step_by(4) {
                        dev.write_block(block, &pattern(block)).unwrap();
                    }
                    if round % 10 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Scrub from the test thread (which itself fans out to two
        // scrub threads) while the demand writers run.
        for k in 1..=PERIODS {
            let t = 1.6 * k as f64;
            dev.advance_time(t - dev.now());
            scrub_report.merge(&scrubber.run_until_concurrent(&dev, t, 2));
        }
    });
    let expected_scrubs = (BLOCKS as u64) * PERIODS as u64;
    assert_eq!(scrub_report.blocks_refreshed, expected_scrubs);
    assert_eq!(scrub_report.failures, 0);
    assert_eq!(scrubber.completed(), expected_scrubs);

    let stats = dev.stats();
    assert_eq!(stats.refreshes, expected_scrubs);
    assert_eq!(stats.writes, (BLOCKS as u64) + 4 * 25 * (BLOCKS as u64 / 4));
    let totals = dev.metrics().snapshot().total();
    assert_eq!(totals.scrubs, stats.refreshes);
    assert_eq!(totals.writes, stats.writes);
    assert_eq!(totals.uncorrectables, 0);
    for b in 0..BLOCKS {
        assert_eq!(dev.read_block(b).unwrap().data, pattern(b), "block {b}");
    }
}

#[test]
fn long_horizon_schedule_is_exact_at_every_thread_count() {
    // interval / blocks is not binary-representable, so an accumulating
    // scheduler drifts over thousands of launches; the integer-tick
    // schedule performs exactly blocks × intervals scrubs inline and at
    // every thread count.
    const INTERVALS: u64 = 500;
    let horizon = 0.3 * INTERVALS as f64;

    let inline = builder(5).build_sharded().unwrap();
    for b in 0..BLOCKS {
        inline.write_block(b, &pattern(b)).unwrap();
    }
    let mut scrubber = ShardedScrubber::new(&inline, 0.3);
    inline.advance_time(horizon);
    let rep = scrubber.run_until(&inline, horizon);
    assert_eq!(rep.blocks_refreshed, BLOCKS as u64 * INTERVALS);

    for threads in [1usize, 2, 4, 8] {
        let dev = builder(5).build_sharded().unwrap();
        for b in 0..BLOCKS {
            dev.write_block(b, &pattern(b)).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 0.3);
        dev.advance_time(horizon);
        let rep = scrubber.run_until_concurrent(&dev, horizon, threads);
        assert_eq!(
            rep.blocks_refreshed,
            BLOCKS as u64 * INTERVALS,
            "threads={threads}"
        );
        assert_eq!(rep.failures, 0, "threads={threads}");
        assert_eq!(dev.stats().refreshes, BLOCKS as u64 * INTERVALS);
        assert_eq!(dev.stats(), inline.stats(), "threads={threads}");
    }
}

#[test]
fn metrics_registry_is_shared_across_handles() {
    let dev = builder(12).build_sharded().unwrap();
    let bank = 3 % BANKS;
    dev.write_block(3, &pattern(3)).unwrap();
    dev.read_block(3).unwrap();
    let snap = dev.metrics().snapshot();
    assert_eq!(snap.per_bank[bank].writes, 1);
    assert_eq!(snap.per_bank[bank].reads, 1);
    assert!(snap.per_bank[bank].busy_ns > 0);

    // Other threads keep accumulating into the same banks.
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let dev = &dev;
            scope.spawn(move || {
                dev.write_block(3, &pattern(3)).unwrap();
                dev.read_block(3).unwrap();
            });
        }
    });
    let snap = dev.metrics().snapshot();
    let total = snap.total();
    assert_eq!((total.writes, total.reads), (3, 3));
    // Latency histogram saw every successful op.
    let hist: u64 = snap.per_bank[bank].latency_buckets.iter().sum();
    assert_eq!(hist, 6);
}
