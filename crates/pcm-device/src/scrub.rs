//! Scrub (refresh) for the device engine.
//!
//! The paper's availability results (§4.1, §7, Figure 4) hinge on
//! refresh: every block is read, ECC-corrected, and rewritten once per
//! interval, stealing per-bank write bandwidth from demand traffic. This
//! module walks a [`ShardedPcmDevice`] on that schedule, inline or from
//! scrub threads interleaved with demand sessions, so the model captures
//! the refresh-vs-demand interaction.
//!
//! ## The schedule
//!
//! Launch `k` (1-based) is due at exactly `k × step` where
//! `step = interval / blocks`, and scrubs global block
//! `(k - 1) % blocks`. Due times are integer-tick products, never
//! accumulated, so the schedule cannot drift over long horizons, and the
//! first launch is at `step` — not `t = 0`, which would scrub one extra
//! block per run. With low-order bank interleaving the global walk visits
//! banks round-robin, which means **each bank's scrub stream is
//! independent**: bank `b`'s `j`-th scrub is launch `j·banks + b + 1`,
//! at local block `j % blocks_per_bank`. That is what
//! [`BankScrubCursor`] exploits to scrub banks from separate threads.
//!
//! ## Determinism rule
//!
//! Bank RNG streams make a bank's outcomes a pure function of the
//! sequence of operations applied to that bank. Scrub launches for a
//! given bank always happen in schedule order (a cursor is owned by one
//! thread at a time), so:
//!
//! * [`ShardedScrubber::run_until_concurrent`] is bit-identical to the
//!   inline [`ShardedScrubber::run_until`] at any thread count;
//! * interleaving demand sessions preserves the identity whenever the
//!   *per-bank* order of demand ops relative to scrubs matches an inline
//!   reference run (cross-validated in `tests/proptests.rs` and
//!   `tests/concurrent_scrub.rs`).

use crate::concurrent::ShardedPcmDevice;
use crate::trace_hooks::{self, scrub_ctx};

/// What a scrub run did during a `run_until` call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RefreshReport {
    /// Blocks scrubbed.
    pub blocks_refreshed: u64,
    /// Blocks whose scrub failed (uncorrectable or worn out).
    pub failures: u64,
    /// Bank-seconds of busy time consumed.
    pub bank_busy_secs: f64,
}

impl RefreshReport {
    /// Fold another report into this one (merging per-bank or per-thread
    /// scrub reports).
    pub fn merge(&mut self, other: &RefreshReport) {
        self.blocks_refreshed += other.blocks_refreshed;
        self.failures += other.failures;
        self.bank_busy_secs += other.bank_busy_secs;
    }
}

/// The integer-tick scrub schedule for a device geometry.
///
/// Pure arithmetic — holds no cursor state — so it can be shared freely
/// across threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubScheduler {
    /// Target interval between successive scrubs of the same block.
    pub interval_secs: f64,
    /// Time one block's scrub occupies its bank (paper: 1 µs).
    pub block_scrub_secs: f64,
    blocks: usize,
    banks: usize,
}

impl ScrubScheduler {
    /// A schedule covering `dev` once per `interval_secs`, with the
    /// paper's 1 µs per-block scrub cost.
    pub fn new(dev: &ShardedPcmDevice, interval_secs: f64) -> Self {
        Self::for_geometry(dev.blocks(), dev.banks(), interval_secs)
    }

    /// A schedule for an explicit geometry (`blocks` must be a multiple
    /// of `banks`, as in any built device).
    pub fn for_geometry(blocks: usize, banks: usize, interval_secs: f64) -> Self {
        // pcm-lint: allow(no-panic-lib) — config contract: the scrub interval is a positive experiment parameter
        assert!(interval_secs > 0.0);
        // pcm-lint: allow(no-panic-lib) — config contract: geometry comes from a built device, which enforces divisibility
        assert!(blocks > 0 && banks > 0 && blocks.is_multiple_of(banks));
        Self {
            interval_secs,
            block_scrub_secs: 1e-6,
            blocks,
            banks,
        }
    }

    /// Blocks covered per interval.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Banks the schedule rotates over.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Seconds between consecutive single-block launches.
    pub fn step_secs(&self) -> f64 {
        self.interval_secs / self.blocks as f64
    }

    /// Due time of launch `tick` (1-based): `tick × step`, computed as a
    /// product so long horizons accumulate no error.
    pub fn due_time(&self, tick: u64) -> f64 {
        tick as f64 * self.step_secs()
    }

    /// Global block scrubbed by launch `tick` (1-based).
    pub fn block_of(&self, tick: u64) -> usize {
        ((tick - 1) % self.blocks as u64) as usize
    }

    /// Fraction of each bank's time consumed by scrub at this interval
    /// (the §7 bandwidth tax): blocks-per-bank × cost / interval.
    pub fn bank_utilization(&self) -> f64 {
        let blocks_per_bank = (self.blocks / self.banks) as f64;
        (blocks_per_bank * self.block_scrub_secs / self.interval_secs).min(1.0)
    }

    /// One cursor per bank, resuming from global launch `next_tick`
    /// (1-based; pass 1 for a fresh schedule).
    pub fn bank_cursors(&self, next_tick: u64) -> Vec<BankScrubCursor> {
        let fired = next_tick - 1;
        (0..self.banks)
            .map(|bank| BankScrubCursor {
                sched: *self,
                bank,
                // Launches 1..=fired hit bank b at j·banks + b + 1 ≤ fired.
                done: fired
                    .saturating_sub(bank as u64)
                    .div_ceil(self.banks as u64),
            })
            .collect()
    }
}

/// One bank's scrub stream: the launches of the global schedule that
/// land on this bank, advanced independently of every other bank.
///
/// A cursor is `Send` and owns only its position, so a background
/// scrubber hands each thread the cursors of the banks it owns and lets
/// them interleave freely with demand sessions.
#[derive(Debug, Clone)]
pub struct BankScrubCursor {
    sched: ScrubScheduler,
    bank: usize,
    /// Scrubs this bank has completed since schedule start.
    done: u64,
}

impl BankScrubCursor {
    /// The bank this cursor scrubs.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Scrubs completed by this cursor since schedule start.
    pub fn completed(&self) -> u64 {
        self.done
    }

    /// Global launch index (1-based) of this bank's next scrub.
    pub fn next_tick(&self) -> u64 {
        self.done * self.sched.banks as u64 + self.bank as u64 + 1
    }

    /// Due time of this bank's next scrub.
    pub fn next_due(&self) -> f64 {
        self.sched.due_time(self.next_tick())
    }

    /// Global block this bank scrubs next.
    pub fn next_block(&self) -> usize {
        let per_bank = self.sched.blocks / self.sched.banks;
        (self.done as usize % per_bank) * self.sched.banks + self.bank
    }

    /// Scrub every block of this bank that came due by device time `t`.
    /// The device clock must already be at (or past) `t`.
    pub fn run_until(&mut self, dev: &ShardedPcmDevice, t: f64) -> RefreshReport {
        let mut report = RefreshReport::default();
        let mut pass: Option<(u64, u64, u64)> = None;
        while self.next_due() <= t {
            let launch = self.next_tick();
            let first = pass.map_or(launch, |(f, _, _)| f);
            match dev.refresh_block_ctx(self.next_block(), scrub_ctx(self.bank, first)) {
                Ok(()) => report.blocks_refreshed += 1,
                Err(_) => report.failures += 1,
            }
            trace_hooks::track_pass(&mut pass, launch);
            self.done += 1;
        }
        trace_hooks::scrub_pass_event(
            dev.tracer(),
            self.bank,
            pass,
            self.sched.step_secs(),
            self.sched.block_scrub_secs,
        );
        // One product, not accumulation — see `ShardedScrubber::run_until`.
        report.bank_busy_secs =
            (report.blocks_refreshed + report.failures) as f64 * self.sched.block_scrub_secs;
        report
    }
}

/// A periodic scrubber over a [`ShardedPcmDevice`].
///
/// Run it inline with [`run_until`](Self::run_until), fan it out with
/// [`run_until_concurrent`](Self::run_until_concurrent), or split it
/// into [`BankScrubCursor`]s via [`bank_cursors`](Self::bank_cursors)
/// and drive those from long-lived scrub threads interleaved with
/// demand sessions (then fold progress back with
/// [`adopt_cursors`](Self::adopt_cursors)).
#[derive(Debug, Clone)]
pub struct ShardedScrubber {
    sched: ScrubScheduler,
    /// Next global launch index, 1-based.
    tick: u64,
}

impl ShardedScrubber {
    /// A scrubber covering `dev` once per `interval_secs`.
    pub fn new(dev: &ShardedPcmDevice, interval_secs: f64) -> Self {
        Self {
            sched: ScrubScheduler::new(dev, interval_secs),
            tick: 1,
        }
    }

    /// The underlying schedule.
    pub fn scheduler(&self) -> &ScrubScheduler {
        &self.sched
    }

    /// Scrubs launched so far.
    pub fn completed(&self) -> u64 {
        self.tick - 1
    }

    /// Advance to device time `t`, scrubbing every block that came due,
    /// in global launch order. The device clock must already be at (or
    /// past) `t`.
    pub fn run_until(&mut self, dev: &ShardedPcmDevice, t: f64) -> RefreshReport {
        let mut report = RefreshReport::default();
        // Per-bank (first launch, last launch, count) accumulators for
        // the scrub-pass trace spans; the first launch also names the
        // pass's correlation id, which every refresh in the pass carries.
        let mut passes: Vec<Option<(u64, u64, u64)>> = vec![None; self.sched.banks];
        while self.sched.due_time(self.tick) <= t {
            let block = self.sched.block_of(self.tick);
            let bank = block % self.sched.banks;
            let first = passes[bank].map_or(self.tick, |(f, _, _)| f);
            match dev.refresh_block_ctx(block, scrub_ctx(bank, first)) {
                Ok(()) => report.blocks_refreshed += 1,
                Err(_) => report.failures += 1,
            }
            trace_hooks::track_pass(&mut passes[bank], self.tick);
            self.tick += 1;
        }
        for (bank, pass) in passes.iter().enumerate() {
            trace_hooks::scrub_pass_event(
                dev.tracer(),
                bank,
                *pass,
                self.sched.step_secs(),
                self.sched.block_scrub_secs,
            );
        }
        // Busy time as one product, not accumulated 1 µs at a time: the
        // result is then independent of how launches were grouped, so
        // split runs, cursors and concurrent runs report identical totals.
        report.bank_busy_secs =
            (report.blocks_refreshed + report.failures) as f64 * self.sched.block_scrub_secs;
        report
    }

    /// Advance to device time `t` on `threads` scoped threads; thread
    /// `i` owns the cursors of banks `i, i + threads, …`. Per-bank order
    /// is the schedule order, so the result is bit-identical to the
    /// inline [`run_until`](Self::run_until) at any thread count.
    pub fn run_until_concurrent(
        &mut self,
        dev: &ShardedPcmDevice,
        t: f64,
        threads: usize,
    ) -> RefreshReport {
        // pcm-lint: allow(no-panic-lib) — contract: a parallel scrub needs at least one thread
        assert!(threads >= 1, "need at least one scrub thread");
        let mut cursors = self.bank_cursors();
        let mut report = RefreshReport::default();
        std::thread::scope(|scope| {
            let mut groups: Vec<Vec<&mut BankScrubCursor>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (bank, cursor) in cursors.iter_mut().enumerate() {
                groups[bank % threads].push(cursor);
            }
            let handles: Vec<_> = groups
                .into_iter()
                .map(|group| {
                    scope.spawn(move || {
                        let mut rep = RefreshReport::default();
                        for cursor in group {
                            rep.merge(&cursor.run_until(dev, t));
                        }
                        rep
                    })
                })
                .collect();
            for h in handles {
                // pcm-lint: allow(no-panic-lib) — propagates a worker panic; the join cannot fail otherwise
                report.merge(&h.join().expect("scrub thread panicked"));
            }
        });
        self.adopt_cursors(&cursors);
        // Recompute busy time from the merged counts so the report is
        // bit-identical to the inline run regardless of thread grouping.
        report.bank_busy_secs =
            (report.blocks_refreshed + report.failures) as f64 * self.sched.block_scrub_secs;
        report
    }

    /// Split into one cursor per bank, resuming from the scrubber's
    /// current position.
    pub fn bank_cursors(&self) -> Vec<BankScrubCursor> {
        self.sched.bank_cursors(self.tick)
    }

    /// Fold per-bank cursor progress back into the global position.
    /// Cursors must originate from [`bank_cursors`](Self::bank_cursors)
    /// of this scrubber (one per bank) and have been advanced to a
    /// common horizon, so the completed launches form a prefix of the
    /// global schedule.
    pub fn adopt_cursors(&mut self, cursors: &[BankScrubCursor]) {
        assert_eq!(cursors.len(), self.sched.banks, "one cursor per bank");
        // The global position is the smallest pending launch across banks.
        self.tick = cursors
            .iter()
            .map(BankScrubCursor::next_tick)
            .min()
            // pcm-lint: allow(no-panic-lib) — infallible: the scheduler rejects banks == 0, so the cursor set is non-empty
            .expect("at least one bank");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CellOrganization, DeviceBuilder};
    use pcm_core::level::LevelDesign;

    fn builder() -> DeviceBuilder {
        DeviceBuilder::new()
            .organization(CellOrganization::ThreeLevel(
                LevelDesign::three_level_naive(),
            ))
            .blocks(16)
            .banks(4)
            .seed(2024)
    }

    #[test]
    fn schedule_walks_blocks_in_order() {
        let sched = ScrubScheduler::for_geometry(16, 4, 1.6);
        assert!((sched.step_secs() - 0.1).abs() < 1e-15);
        // Launches walk blocks 0, 1, 2, … — banks round-robin.
        for tick in 1..=32u64 {
            assert_eq!(sched.block_of(tick), ((tick - 1) % 16) as usize);
        }
        assert!((sched.due_time(16) - 1.6).abs() < 1e-12);
        // Bank utilization: 4 blocks/bank × 1 µs / 1.6 s.
        assert!((sched.bank_utilization() - 4.0e-6 / 1.6).abs() < 1e-18);
    }

    #[test]
    fn cursors_partition_the_schedule() {
        let sched = ScrubScheduler::for_geometry(16, 4, 1.6);
        let cursors = sched.bank_cursors(1);
        // Bank b's first launch is tick b + 1, at block b.
        for (b, c) in cursors.iter().enumerate() {
            assert_eq!(c.next_tick(), b as u64 + 1);
            assert_eq!(c.next_block(), b);
        }
        // Resuming mid-round: after 6 launches, banks 0 and 1 have done
        // 2, banks 2 and 3 have done 1.
        let resumed = sched.bank_cursors(7);
        let done: Vec<u64> = resumed.iter().map(BankScrubCursor::completed).collect();
        assert_eq!(done, vec![2, 2, 1, 1]);
        // Their next ticks tile the upcoming launches exactly.
        let mut next: Vec<u64> = resumed.iter().map(BankScrubCursor::next_tick).collect();
        next.sort_unstable();
        assert_eq!(next, vec![7, 8, 9, 10]);
        // And local blocks wrap per bank: bank 0's third scrub is block 8.
        assert_eq!(resumed[0].next_block(), 8);
    }

    #[test]
    fn split_cursors_resume_the_global_schedule() {
        let dev = builder().build_sharded().unwrap();
        let data = vec![0x91u8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1.6);
        // Stop mid-round: 0.65 s covers launches 1..=6 (step 0.1 s).
        dev.advance_time(0.65);
        let rep = scrubber.run_until(&dev, 0.65);
        assert_eq!(rep.blocks_refreshed, 6);
        // Split, advance each bank on its own, and fold back.
        let mut cursors = scrubber.bank_cursors();
        dev.advance_time(0.95);
        let mut rep = RefreshReport::default();
        for c in cursors.iter_mut().rev() {
            rep.merge(&c.run_until(&dev, 1.6));
        }
        assert_eq!(rep.blocks_refreshed, 10);
        scrubber.adopt_cursors(&cursors);
        assert_eq!(scrubber.completed(), 16);
        assert_eq!(dev.stats().refreshes, 16);
    }

    #[test]
    fn long_horizon_concurrent_count_is_exact() {
        let dev = builder().build_sharded().unwrap();
        let data = vec![0x5Eu8; 64];
        for b in 0..16 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 0.3);
        const INTERVALS: u64 = 200;
        let horizon = 0.3 * INTERVALS as f64;
        dev.advance_time(horizon);
        let rep = scrubber.run_until_concurrent(&dev, horizon, 4);
        assert_eq!(rep.blocks_refreshed, 16 * INTERVALS);
        assert_eq!(rep.failures, 0);
        assert_eq!(dev.stats().refreshes, 16 * INTERVALS);
    }

    fn four_level(design: LevelDesign, blocks: usize, seed: u64) -> ShardedPcmDevice {
        DeviceBuilder::new()
            .organization(CellOrganization::FourLevel {
                design,
                smart: false,
            })
            .blocks(blocks)
            .banks(4)
            .seed(seed)
            .build_sharded()
            .unwrap()
    }

    #[test]
    fn long_horizon_inline_count_is_exact() {
        // interval / blocks = 0.075 s: not representable in binary, so
        // an accumulating `next_due += step` schedule (plus a t=0 launch)
        // drifts off by one or worse over 8000 launches. Due times are
        // `tick × step`, so the count is exactly blocks × intervals.
        let dev = DeviceBuilder::new()
            .blocks(4)
            .banks(4)
            .seed(3)
            .build_sharded()
            .unwrap();
        for b in 0..4 {
            dev.write_block(b, &[0x1D; 64]).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 0.3);
        const INTERVALS: u64 = 2000;
        let horizon = 0.3 * INTERVALS as f64;
        dev.advance_time(horizon);
        let rep = scrubber.run_until(&dev, horizon);
        assert_eq!(rep.blocks_refreshed, 4 * INTERVALS, "{rep:?}");
        assert_eq!(rep.failures, 0);
        assert_eq!(dev.stats().refreshes, 4 * INTERVALS);
        // And the count stays exact across split calls, one per interval.
        let dev = builder().build_sharded().unwrap();
        for b in 0..16 {
            dev.write_block(b, &[0x2E; 64]).unwrap();
        }
        let mut split = ShardedScrubber::new(&dev, 0.3);
        let mut total = 0u64;
        for k in 1..=40u64 {
            let t = 0.3 * k as f64;
            dev.advance_time(t - dev.now());
            let rep = split.run_until(&dev, t);
            // One interval covers each block exactly once.
            assert_eq!(rep.blocks_refreshed, 16, "interval {k}");
            total += rep.blocks_refreshed;
        }
        assert_eq!(total, 16 * 40);
    }

    #[test]
    fn bank_utilization_matches_analytic_model() {
        let dev = four_level(pcm_core::optimize::four_level_optimal().clone(), 16, 123);
        let scrubber = ShardedScrubber::new(&dev, 1024.0);
        // 4 blocks per bank, 1 µs each, per 1024 s.
        let expect = 4.0 * 1e-6 / 1024.0;
        assert!((scrubber.scheduler().bank_utilization() - expect).abs() < 1e-15);
    }

    #[test]
    fn refreshed_4lc_survives_many_intervals() {
        let dev = four_level(pcm_core::optimize::four_level_optimal().clone(), 8, 123);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for b in 0..8 {
            dev.write_block(b, &data).unwrap();
        }
        let mut scrubber = ShardedScrubber::new(&dev, 1024.0);
        // A simulated half-day in 17-minute steps.
        for k in 1..=42u32 {
            let t = 1024.0 * k as f64;
            dev.advance_time(1024.0);
            assert_eq!(scrubber.run_until(&dev, t).failures, 0, "at t={t}");
        }
        for b in 0..8 {
            assert_eq!(dev.read_block(b).unwrap().data, data, "block {b}");
        }
    }

    #[test]
    fn unrefreshed_naive_4lc_loses_data_within_two_days() {
        // The naive design's CER after two unrefreshed days (~5e-2) puts
        // ~15 expected cell errors in every 306-cell block — far past
        // BCH-10. (The *optimized* design fails more slowly: its 17-minute
        // interval is set by the fleet-wide 3.73e-9 BLER target, not by
        // single-block day-scale loss.)
        let dev = four_level(LevelDesign::four_level_naive(), 8, 31);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        for b in 0..8 {
            dev.write_block(b, &data).unwrap();
        }
        dev.advance_time(2.0 * 86_400.0);
        let dead = (0..8)
            .filter(|&b| !matches!(dev.read_block(b), Ok(r) if r.data == data))
            .count();
        assert!(
            dead > 0,
            "an unrefreshed 4LCn device must lose blocks in two days"
        );
    }

    #[test]
    fn scrub_failures_are_counted_not_panicked() {
        let dev = four_level(LevelDesign::four_level_naive(), 4, 9);
        for b in 0..4 {
            dev.write_block(b, &[0xE7; 64]).unwrap();
        }
        // Let the naive design rot for a day, then try to scrub.
        dev.advance_time(86_400.0);
        let mut scrubber = ShardedScrubber::new(&dev, 86_400.0);
        let rep = scrubber.run_until(&dev, 86_400.0);
        assert!(
            rep.failures > 0,
            "scrubbing a rotten 4LCn device must fail: {rep:?}"
        );
        assert_eq!(rep.blocks_refreshed + rep.failures, 4);
    }
}
