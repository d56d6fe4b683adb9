//! The shared driver of the determinism oracles: preloaded devices
//! walked through scrubbed rounds of demand ops, either inline on one
//! thread (the reference) or with the banks partitioned over threads.

use mlc_pcm::device::{BankScrubCursor, ShardedPcmDevice, ShardedScrubber};

/// Drive `rounds` on `dev`: round `k` advances the clock to
/// `interval × (k + 1)`, scrubs every block that came due, then applies
/// the round's ops.
///
/// With `threads == None` everything runs inline on the calling thread:
/// [`ShardedScrubber::run_until`], then each op in list order. With
/// `Some(n)`, thread `i` of `n` scoped threads owns the banks `b` with
/// `b % n == i`: it runs their scrub cursors, then their ops in list
/// order. Either way every bank sees the same operation sequence, so the
/// outcomes must be bit-identical.
pub fn run_rounds<Op: Sync>(
    dev: &ShardedPcmDevice,
    interval: f64,
    rounds: &[Vec<Op>],
    threads: Option<usize>,
    block_of: impl Fn(&Op) -> usize + Sync,
    apply: impl Fn(&ShardedPcmDevice, &Op) + Sync,
) {
    let mut scrubber = ShardedScrubber::new(dev, interval);
    for (k, ops) in rounds.iter().enumerate() {
        let until = interval * (k + 1) as f64;
        dev.advance_time(until - dev.now());
        let Some(threads) = threads else {
            scrubber.run_until(dev, until);
            ops.iter().for_each(|op| apply(dev, op));
            continue;
        };
        let mut cursors = scrubber.bank_cursors();
        std::thread::scope(|scope| {
            let mut groups: Vec<Vec<&mut BankScrubCursor>> =
                (0..threads).map(|_| Vec::new()).collect();
            for cursor in cursors.iter_mut() {
                groups[cursor.bank() % threads].push(cursor);
            }
            for (owner, group) in groups.into_iter().enumerate() {
                let (block_of, apply) = (&block_of, &apply);
                scope.spawn(move || {
                    for cursor in group {
                        cursor.run_until(dev, until);
                    }
                    let owned = |op: &&Op| dev.bank_of(block_of(op)) % threads == owner;
                    ops.iter().filter(owned).for_each(|op| apply(dev, op));
                });
            }
        });
        scrubber.adopt_cursors(&cursors);
    }
}
