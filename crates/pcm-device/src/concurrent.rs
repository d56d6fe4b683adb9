//! The bank-sharded concurrent device engine.
//!
//! §7 of the paper models the device as independent banks with their own
//! occupancy; this module turns that observation into a scalable
//! *functional* engine. A [`ShardedPcmDevice`] holds one lock per bank
//! ([`PcmBank`]), routes each operation to its bank by low-order
//! interleaving **before** taking any lock, and aggregates statistics
//! across shards on demand. Threads operating on different banks never
//! contend.
//!
//! ## Determinism guarantee
//!
//! Every bank owns an RNG stream derived from `(device_seed, bank_id)`,
//! so a bank's outcomes are a pure function of the *sequence of
//! operations applied to that bank* — independent of thread count,
//! cross-bank interleaving, and wall-clock scheduling. For the same seed,
//! a run on N threads is bit-identical to the same ops issued inline on
//! one thread whenever the per-bank operation order matches
//! (cross-validated in `tests/proptests.rs` and `tests/concurrent_scrub.rs`).
//!
//! ## One record point per op
//!
//! Every bank op (read, write, refresh) ends in one record step, run
//! under its bank's lock: it computes the op's modeled busy window
//! once, records it in the metrics registry, and — when tracing —
//! emits the op's events and settles the bank's causal state (demand
//! ids and scrub debt, kept on [`PcmBank`]). Metrics, trace spans and
//! the duration the `*_block_ctx` ops return therefore always agree.
//!
//! ## Example
//!
//! ```
//! use pcm_device::DeviceBuilder;
//! use std::thread;
//!
//! let dev = DeviceBuilder::new().blocks(64).banks(8).seed(7)
//!     .build_sharded().unwrap();
//! thread::scope(|s| {
//!     for t in 0..4 {
//!         let dev = &dev;
//!         s.spawn(move || {
//!             for b in (t..64).step_by(4) {
//!                 dev.write_block(b, &[t as u8; 64]).unwrap();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(dev.stats().writes, 64);
//! ```

use crate::bank::{DeviceStats, PcmBank};
use crate::block::{BlockError, ReadReport, WriteReport, BLOCK_BYTES};
use crate::error::PcmError;
use crate::metrics::{self, DeviceMetrics};
use pcm_telemetry::TelemetryRecorder;
use pcm_trace::{pack_ctx, secs_to_ns, CtxClass, OpKind, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Acquire one bank lock, unwinding on poisoning.
///
/// A poisoned bank lock means a sibling thread panicked mid-operation;
/// the bank's cell state is unknowable and no typed error could make it
/// usable again, so propagating the panic is the only sound option.
/// Every bank acquisition in this module routes through here so that
/// reasoning lives in exactly one place.
fn lock_bank(shard: &Mutex<PcmBank>) -> MutexGuard<'_, PcmBank> {
    // pcm-lint: allow(no-panic-lib) — poisoning implies a sibling thread already panicked.
    shard.lock().expect("bank lock poisoned")
}

/// Stable failure-event payload codes (documented in DESIGN.md §12).
fn failure_code(e: BlockError) -> u64 {
    match e {
        BlockError::Uncorrectable => 1,
        BlockError::WearoutExhausted => 2,
        BlockError::WriteFailed => 3,
    }
}

/// A PCM device sharing its banks across threads behind per-bank locks.
///
/// Built by [`DeviceBuilder::build_sharded`](crate::builder::DeviceBuilder::build_sharded).
/// All methods take `&self`, so threads share one `&ShardedPcmDevice`;
/// the only synchronization an op meets is its target bank's lock.
pub struct ShardedPcmDevice {
    shards: Vec<Mutex<PcmBank>>,
    blocks: usize,
    /// Cells per block (uniform across banks); cached so hot paths and
    /// fault injection never take a lock just to read geometry.
    cells_per_block: usize,
    /// Device clock, seconds, stored as `f64::to_bits`.
    now_bits: AtomicU64,
    metrics: DeviceMetrics,
    trace: Recorder,
    telemetry: Option<Arc<TelemetryRecorder>>,
}

impl ShardedPcmDevice {
    pub(crate) fn from_banks(
        banks: Vec<PcmBank>,
        trace: Recorder,
        telemetry: Option<Arc<TelemetryRecorder>>,
    ) -> Self {
        let metrics = DeviceMetrics::new(banks.len());
        let blocks = banks.iter().map(PcmBank::blocks).sum();
        let cells_per_block = banks.first().map_or(0, PcmBank::cells_per_block);
        Self {
            shards: banks.into_iter().map(Mutex::new).collect(),
            blocks,
            cells_per_block,
            now_bits: AtomicU64::new(0.0f64.to_bits()),
            metrics,
            trace,
            telemetry,
        }
    }

    /// The observability registry: per-bank atomic counters and latency
    /// histograms, recorded on every operation.
    pub fn metrics(&self) -> &DeviceMetrics {
        &self.metrics
    }

    /// The event recorder: disabled (one branch per op) unless the
    /// device was built with
    /// [`DeviceBuilder::trace`](crate::builder::DeviceBuilder::trace).
    /// Events for a bank are recorded while that bank's lock is held, so
    /// each bank's stream order equals its operation order — the basis
    /// of the trace determinism oracle.
    pub fn tracer(&self) -> &Recorder {
        &self.trace
    }

    /// The telemetry recorder: `None` unless the device was built with
    /// [`DeviceBuilder::telemetry`](crate::builder::DeviceBuilder::telemetry).
    /// Sample ticks are claimed when [`ShardedPcmDevice::advance_time`]
    /// crosses a sample deadline; the determinism rule is the same as
    /// the clock's — advance time only from quiesced points.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryRecorder>> {
        self.telemetry.as_ref()
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.blocks * BLOCK_BYTES
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of banks (= shards = independent locks).
    pub fn banks(&self) -> usize {
        self.shards.len()
    }

    /// Bank owning a block (low-order interleaving, like DDR rank/bank
    /// address maps).
    pub fn bank_of(&self, block: usize) -> usize {
        block % self.shards.len()
    }

    /// Current device time, seconds.
    pub fn now(&self) -> f64 {
        f64::from_bits(self.now_bits.load(Ordering::Acquire))
    }

    /// Advance the global clock (drift accrues on every written cell).
    /// Safe to call concurrently; advances are atomic and cumulative.
    ///
    /// With telemetry on, the recorder then claims every sample tick
    /// the new time made due, reading the metrics registry. Sampling
    /// only here keeps the series thread-count invariant as long as the
    /// clock moves only at quiesced points.
    pub fn advance_time(&self, secs: f64) {
        // pcm-lint: allow(no-panic-lib) — documented precondition; a negative advance is a caller bug that must not silently corrupt drift state.
        assert!(secs >= 0.0, "time flows forward");
        self.now_bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                Some((f64::from_bits(bits) + secs).to_bits())
            })
            // pcm-lint: allow(no-panic-lib) — infallible: the closure above always returns Some.
            .expect("fetch_update closure never fails");
        if let Some(tel) = &self.telemetry {
            // Gather the counters only when a tick will be claimed.
            let now_ns = secs_to_ns(self.now());
            if tel.due_before(now_ns) {
                tel.sample_up_to(now_ns, &self.metrics.snapshot().per_bank, &self.trace);
            }
        }
    }

    /// Route a global block index to `(shard, local_block)`.
    fn locate(&self, block: usize) -> Result<(usize, usize), PcmError> {
        if block >= self.blocks {
            return Err(PcmError::BlockOutOfRange {
                block,
                blocks: self.blocks,
            });
        }
        Ok((block % self.shards.len(), block / self.shards.len()))
    }

    /// The record step every bank op ends with, run under the bank's
    /// lock so the bank's metrics, events and causal state follow its
    /// operation order. `kind` is the op (`Read`, `Write` or `Refresh`);
    /// a successful `outcome` is `(attempts, count)`: program attempts
    /// and new wearout faults for a write, `(0, corrected symbols)` for
    /// a read or refresh.
    ///
    /// It computes the op's modeled busy window (§7: a read holds its
    /// bank 200 ns, a write 1 µs scaled by its verify attempts, a
    /// refresh one nominal read plus write) and records it in the
    /// bank's [`metrics::BankMetrics`]. When tracing, it then emits the
    /// op's events in order — the scrub stall a ctx-carrying read or
    /// write drains from the bank's debt, the op span (or a failure
    /// instant), and the ECC-decode span nested at a correcting read's
    /// tail — and a successful refresh deposits its window as debt. A
    /// plain op (`ctx = None`) takes the bank's next demand id.
    ///
    /// Returns the op's modeled duration: the drained stall plus the
    /// busy window, which is exactly what its spans cover.
    fn record(
        &self,
        bank: &mut PcmBank,
        block: usize,
        now: f64,
        ctx: Option<u64>,
        kind: OpKind,
        outcome: Result<(u64, u64), BlockError>,
    ) -> u64 {
        let shard = bank.id();
        let m = self.metrics.bank(shard);
        let busy_ns = match (kind, outcome) {
            (_, Err(_)) => {
                m.record_failure();
                0
            }
            (OpKind::Write, Ok((attempts, new_faults))) => {
                let busy = metrics::write_busy_ns(attempts, self.cells_per_block as u64);
                m.record_write(new_faults, busy);
                busy
            }
            (OpKind::Read, Ok((_, corrected))) => {
                m.record_read(corrected, metrics::READ_BUSY_NS);
                metrics::READ_BUSY_NS
            }
            (_, Ok((_, corrected))) => {
                let busy = metrics::READ_BUSY_NS + metrics::WRITE_BUSY_NS;
                m.record_scrub(corrected, busy);
                busy
            }
        };
        let rec = &self.trace;
        if !rec.is_enabled() {
            return busy_ns;
        }
        let (ctx, wait_ns) = match ctx {
            Some(ctx) if kind == OpKind::Refresh => (ctx, 0),
            Some(ctx) => (ctx, std::mem::take(&mut bank.scrub_debt)),
            None => {
                let seq = bank.demand_seq;
                bank.demand_seq += 1;
                (pack_ctx(CtxClass::Demand, shard as u64, seq as u32), 0)
            }
        };
        let (b, blk, t) = (shard as u32, block as u32, secs_to_ns(now));
        if wait_ns > 0 {
            rec.span_ctx(
                OpKind::ScrubStall,
                b,
                blk,
                (t, t + wait_ns),
                (wait_ns, wait_ns),
                ctx,
            );
        }
        match outcome {
            Ok((attempts, count)) => {
                let payload = match kind {
                    OpKind::Refresh => (0, 0),
                    _ => (attempts, count),
                };
                rec.span_ctx(kind, b, blk, (t, t + busy_ns), payload, ctx);
                if kind == OpKind::Read && count > 0 {
                    // Decode work rides inside the read window (the BCH
                    // pipeline overlaps the array access): carve it from
                    // the tail, clamped to the window.
                    let decode_ns = (count * metrics::ECC_DECODE_NS_PER_SYMBOL).min(busy_ns);
                    let end = t + busy_ns;
                    rec.span_ctx(
                        OpKind::EccDecode,
                        b,
                        blk,
                        (end - decode_ns, end),
                        (count, count),
                        ctx,
                    );
                }
                if kind == OpKind::Refresh {
                    bank.scrub_debt += busy_ns;
                }
            }
            Err(e) => rec.instant_ctx(OpKind::Failure, b, blk, t, failure_code(e), ctx),
        }
        wait_ns + busy_ns
    }

    /// Write 64 bytes to a block (locks only that block's bank).
    pub fn write_block(&self, block: usize, data: &[u8]) -> Result<WriteReport, PcmError> {
        self.write_impl(block, data, None).map(|(rep, _)| rep)
    }

    /// [`ShardedPcmDevice::write_block`] with a caller-supplied
    /// correlation id (e.g. a KV request's). When tracing, drains the
    /// bank's accumulated scrub debt first, emitted as a `scrub_stall`
    /// span under the caller's ctx. Returns the op's modeled duration
    /// alongside the report: the drained stall plus the write's busy
    /// window (retries included), the sum of the spans it emitted.
    /// Plain ops never drain, so debt only surfaces on attributed
    /// requests.
    pub fn write_block_ctx(
        &self,
        block: usize,
        data: &[u8],
        ctx: u64,
    ) -> Result<(WriteReport, u64), PcmError> {
        self.write_impl(block, data, Some(ctx))
    }

    /// Read 64 bytes from a block (locks only that block's bank).
    pub fn read_block(&self, block: usize) -> Result<ReadReport, PcmError> {
        self.read_impl(block, None).map(|(rep, _)| rep)
    }

    /// [`ShardedPcmDevice::read_block`] with a caller-supplied
    /// correlation id; same scrub-debt drain and returned duration as
    /// [`ShardedPcmDevice::write_block_ctx`].
    pub fn read_block_ctx(&self, block: usize, ctx: u64) -> Result<(ReadReport, u64), PcmError> {
        self.read_impl(block, Some(ctx))
    }

    fn write_impl(
        &self,
        block: usize,
        data: &[u8],
        ctx: Option<u64>,
    ) -> Result<(WriteReport, u64), PcmError> {
        let (shard, local) = self.locate(block)?;
        let now = self.now();
        let mut bank = lock_bank(&self.shards[shard]);
        let r = bank.write(local, now, data);
        let outcome = r.map(|rep| (rep.attempts, rep.new_faults as u64));
        let ns = self.record(&mut bank, block, now, ctx, OpKind::Write, outcome);
        Ok((r?, ns))
    }

    fn read_impl(&self, block: usize, ctx: Option<u64>) -> Result<(ReadReport, u64), PcmError> {
        let (shard, local) = self.locate(block)?;
        let now = self.now();
        let mut bank = lock_bank(&self.shards[shard]);
        let r = bank.read(local, now);
        let outcome = r.as_ref().map(|rep| (0, rep.corrected_bits as u64));
        let ns = self.record(
            &mut bank,
            block,
            now,
            ctx,
            OpKind::Read,
            outcome.map_err(|e| *e),
        );
        Ok((r?, ns))
    }

    /// Refresh (scrub) one block: read, correct, rewrite — the §1
    /// mechanism ("for every cell, at least once per refresh period, we
    /// read, correct if needed, and re-write"). A directly-issued refresh
    /// is a demand op and gets a demand correlation id; the scrub walkers
    /// tag theirs with the owning scrub pass's id instead.
    pub fn refresh_block(&self, block: usize) -> Result<(), PcmError> {
        self.refresh_impl(block, None)
    }

    /// [`ShardedPcmDevice::refresh_block`] with an explicit correlation
    /// id (the scrub pass the refresh belongs to).
    pub(crate) fn refresh_block_ctx(&self, block: usize, ctx: u64) -> Result<(), PcmError> {
        self.refresh_impl(block, Some(ctx))
    }

    fn refresh_impl(&self, block: usize, ctx: Option<u64>) -> Result<(), PcmError> {
        let (shard, local) = self.locate(block)?;
        let now = self.now();
        let mut bank = lock_bank(&self.shards[shard]);
        let r = bank.refresh(local, now);
        let outcome = r.map(|corrected| (0, corrected));
        self.record(&mut bank, block, now, ctx, OpKind::Refresh, outcome);
        r?;
        Ok(())
    }

    /// Cumulative statistics aggregated across all banks. Locks each bank
    /// briefly; numbers are a consistent snapshot only when no writer is
    /// concurrently active.
    pub fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for shard in &self.shards {
            total.accumulate(&lock_bank(shard).stats());
        }
        total
    }

    /// Per-bank statistics, indexed by bank id.
    pub fn bank_stats(&self) -> Vec<DeviceStats> {
        self.shards.iter().map(|s| lock_bank(s).stats()).collect()
    }

    /// Fault-injection hook: force a cell's lifetime. Cell indices use
    /// the device-wide layout (block-major: block `b` owns cells
    /// `[b*cells_per_block, (b+1)*cells_per_block)`). A cell past the
    /// last block is [`PcmError::BlockOutOfRange`], naming its block.
    pub fn inject_lifetime(&self, cell: usize, cycles: u64) -> Result<(), PcmError> {
        let cpb = self.cells_per_block;
        let (shard, local_block) = self.locate(cell / cpb)?;
        lock_bank(&self.shards[shard]).set_lifetime(local_block * cpb + cell % cpb, cycles);
        Ok(())
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
            .blocks(32)
            .banks(8)
            .seed(1234)
    }

    #[test]
    fn per_bank_stats_sum_to_device_stats() {
        let dev = builder().build_sharded().unwrap();
        assert_eq!(dev.capacity_bytes(), 32 * 64);
        assert_eq!((dev.bank_of(0), dev.bank_of(9), dev.bank_of(31)), (0, 1, 7));
        for b in 0..32 {
            dev.write_block(b, &[b as u8 ^ 0x42; 64]).unwrap();
        }
        for b in 0..16 {
            dev.read_block(b).unwrap();
        }
        let per_bank = dev.bank_stats();
        assert_eq!(per_bank.len(), 8);
        let mut sum = DeviceStats::default();
        for s in &per_bank {
            sum.accumulate(s);
            // Low-order interleaving spreads 32 blocks evenly over 8 banks.
            assert_eq!((s.writes, s.reads), (4, 2));
        }
        assert_eq!(sum, dev.stats());
        // 364 cells per 3LC write, at least one program pass each.
        assert!(sum.write_attempts >= 32 * 364, "{}", sum.write_attempts);
    }

    #[test]
    fn metrics_registry_tracks_ops_per_bank() {
        let dev = builder().build_sharded().unwrap();
        for b in 0..32 {
            dev.write_block(b, &[0x24; 64]).unwrap();
        }
        for b in 0..8 {
            dev.read_block(b).unwrap();
        }
        dev.refresh_block(0).unwrap();
        let snap = dev.metrics().snapshot();
        assert_eq!(snap.per_bank.len(), 8);
        // Low-order interleaving: 4 writes per bank; the 8 reads land one
        // per bank and the scrub on bank 0.
        for (bank, m) in snap.per_bank.iter().enumerate() {
            assert_eq!((m.writes, m.reads), (4, 1), "bank {bank}");
        }
        assert_eq!(snap.per_bank[0].scrubs, 1);
        let total = snap.total();
        assert_eq!(
            (total.writes, total.scrubs, total.uncorrectables),
            (32, 1, 0)
        );
        // Busy time: 32 writes ≥ 1 µs each + 8 reads at 200 ns + one
        // scrub at 1.2 µs.
        assert!(total.busy_ns >= 32_000 + 1600 + 1200, "{}", total.busy_ns);
        // The histogram saw every successful op.
        assert_eq!(total.latency_buckets.iter().sum::<u64>(), 41);
    }

    #[test]
    fn generic_organization_works_device_wide() {
        use pcm_codec::enumerative::EnumerativeCode;
        // A ternary generic device must behave like the dedicated 3LC one.
        let dev = DeviceBuilder::new()
            .organization(CellOrganization::Generic {
                design: LevelDesign::three_level_naive(),
                code: EnumerativeCode::new(3, 2),
                spare_groups: 6,
                tec_strength: 1,
            })
            .blocks(8)
            .banks(4)
            .seed(21)
            .build_sharded()
            .unwrap();
        let pat = |b: usize| vec![(b as u8).wrapping_mul(41) ^ 0x69; 64];
        for b in 0..8 {
            dev.write_block(b, &pat(b)).unwrap();
        }
        dev.advance_time(pcm_core::params::TEN_YEARS_SECS);
        for b in 0..8 {
            assert_eq!(dev.read_block(b).unwrap().data, pat(b), "block {b}");
        }
        // Refresh through the generic path works too.
        dev.refresh_block(3).unwrap();
        assert_eq!(dev.stats().refreshes, 1);
        assert_eq!(dev.read_block(3).unwrap().data, pat(3));
    }

    #[test]
    fn concurrent_writes_scale_across_banks_deterministically() {
        // Run the same per-bank op streams under 1 thread and 8 threads:
        // outputs must be identical.
        let run = |threads: usize| {
            let dev = builder().build_sharded().unwrap();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let dev = &dev;
                    s.spawn(move || {
                        // Thread t owns banks t, t+threads, ... — each
                        // bank's ops stay on one thread, in order.
                        for bank in (t..8).step_by(threads) {
                            for round in 0..4u8 {
                                for blk in (bank..32).step_by(8) {
                                    dev.write_block(blk, &[round ^ blk as u8; 64]).unwrap();
                                }
                            }
                        }
                    });
                }
            });
            let reads: Vec<Vec<u8>> = (0..32).map(|b| dev.read_block(b).unwrap().data).collect();
            (reads, dev.stats())
        };
        let (data1, stats1) = run(1);
        let (data8, stats8) = run(8);
        assert_eq!(data1, data8);
        assert_eq!(stats1, stats8);
        assert_eq!(stats1.writes, 128);
    }

    #[test]
    fn out_of_range_is_an_error_not_a_panic() {
        let dev = builder().build_sharded().unwrap();
        match dev.read_block(99) {
            Err(PcmError::BlockOutOfRange {
                block: 99,
                blocks: 32,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            dev.write_block(500, &[0u8; 64]),
            Err(PcmError::BlockOutOfRange { block: 500, .. })
        ));
        assert!(matches!(
            dev.refresh_block(32),
            Err(PcmError::BlockOutOfRange { block: 32, .. })
        ));
        // Rejected ops never reach a bank: nothing is recorded.
        let t = dev.metrics().snapshot().total();
        assert_eq!(
            (t.reads, t.writes, t.scrubs, t.uncorrectables),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn inject_lifetime_out_of_range_is_an_error_not_a_panic() {
        let dev = builder().build_sharded().unwrap();
        // 3LC blocks are 364 cells: the last cell of block 31 is in
        // range, the first cell past it names block 32.
        assert!(dev.inject_lifetime(32 * 364 - 1, 1).is_ok());
        assert!(matches!(
            dev.inject_lifetime(32 * 364, 1),
            Err(PcmError::BlockOutOfRange {
                block: 32,
                blocks: 32
            })
        ));
        assert!(matches!(
            dev.inject_lifetime(usize::MAX, 1),
            Err(PcmError::BlockOutOfRange { .. })
        ));
    }

    /// A 4LC device, traced or not, with every block written.
    fn written_4lc(traced: bool) -> ShardedPcmDevice {
        let mut b = builder().organization(CellOrganization::FourLevel {
            design: LevelDesign::four_level_naive(),
            smart: false,
        });
        if traced {
            b = b.trace(pcm_trace::TraceConfig::new(4096));
        }
        let dev = b.build_sharded().unwrap();
        for blk in 0..32 {
            dev.write_block(blk, &[blk as u8 ^ 0x5A; 64]).unwrap();
        }
        dev
    }

    /// Run `op` and return what it returned, the busy ns it added to
    /// bank 0's metrics, and the events it emitted on bank 0.
    fn observe<T>(
        dev: &ShardedPcmDevice,
        op: impl FnOnce() -> T,
    ) -> (T, u64, Vec<pcm_trace::TraceEvent>) {
        let events = || {
            dev.tracer()
                .buffer()
                .map_or(Vec::new(), |b| b.snapshot().per_bank[0].events.clone())
        };
        let (busy0, seen) = (dev.metrics().bank(0).snapshot().busy_ns, events().len());
        let out = op();
        let busy = dev.metrics().bank(0).snapshot().busy_ns - busy0;
        (out, busy, events().split_off(seen))
    }

    /// Summed durations of the top-level spans in `events` (begin/end
    /// pairs). An ECC-decode span is carved from its read's window, so
    /// it is checked to nest there and not counted again.
    fn span_sum(events: &[pcm_trace::TraceEvent]) -> u64 {
        let spans: Vec<_> = events
            .chunks(2)
            .map(|pair| {
                assert_eq!(pair[0].phase, pcm_trace::Phase::Begin);
                assert_eq!(pair[1].phase, pcm_trace::Phase::End);
                (pair[0].kind, pair[0].t_ns, pair[1].t_ns)
            })
            .collect();
        let mut sum = 0;
        for &(kind, begin, end) in &spans {
            if kind == OpKind::EccDecode {
                let read = spans.iter().find(|s| s.0 == OpKind::Read).unwrap();
                assert!(
                    read.1 <= begin && end == read.2,
                    "decode nests at the read's tail"
                );
            } else {
                sum += end - begin;
            }
        }
        sum
    }

    #[test]
    fn refresh_records_one_window_and_deposits_it_as_debt() {
        for traced in [false, true] {
            let dev = written_4lc(traced);
            let ((), busy, events) = observe(&dev, || dev.refresh_block(0).unwrap());
            assert_eq!(busy, busy_of_refresh());
            if traced {
                let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
                assert_eq!(kinds, [OpKind::Refresh; 2]);
                assert_eq!(span_sum(&events), busy);
            } else {
                assert!(events.is_empty());
            }
            // A scrub-pass refresh carries its pass's ctx and drains
            // nothing: its events hold no stall, and it deposits too.
            let ctx = crate::trace_hooks::scrub_ctx(0, 1);
            let (r, _, events) = observe(&dev, || dev.refresh_block_ctx(8, ctx));
            r.unwrap();
            assert!(events
                .iter()
                .all(|e| e.kind == OpKind::Refresh && e.ctx == ctx));
            // The next ctx-carrying op pays both refreshes' windows as
            // its stall, only when tracing.
            let ((_, ns), busy, _) = observe(&dev, || dev.read_block_ctx(16, 7).unwrap());
            let debt = if traced { 2 * busy_of_refresh() } else { 0 };
            assert_eq!(ns, busy + debt, "traced = {traced}");
        }
    }

    fn busy_of_refresh() -> u64 {
        metrics::READ_BUSY_NS + metrics::WRITE_BUSY_NS
    }

    #[test]
    fn write_ctx_returns_its_spans_and_its_busy_window() {
        for traced in [false, true] {
            let dev = written_4lc(traced);
            dev.refresh_block(0).unwrap();
            let debt = if traced { busy_of_refresh() } else { 0 };
            let ((rep, ns), busy, events) =
                observe(&dev, || dev.write_block_ctx(8, &[0xC3; 64], 11).unwrap());
            assert_eq!(
                busy,
                metrics::write_busy_ns(rep.attempts, dev.cells_per_block as u64)
            );
            assert_eq!(ns, busy + debt, "traced = {traced}");
            if traced {
                let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
                assert_eq!(kinds[..2], [OpKind::ScrubStall; 2], "stall first");
                assert_eq!(kinds[2..], [OpKind::Write; 2]);
                assert!(events.iter().all(|e| e.ctx == 11));
                assert_eq!(span_sum(&events), ns);
            } else {
                assert!(events.is_empty());
            }
            // Debt is paid once: the next ctx op owes no stall.
            let ((_, ns), busy, _) =
                observe(&dev, || dev.write_block_ctx(8, &[1; 64], 12).unwrap());
            assert_eq!(ns, busy);
        }
    }

    #[test]
    fn read_ctx_returns_its_spans_and_its_busy_window() {
        let mut decodes = 0;
        for traced in [false, true] {
            let dev = written_4lc(traced);
            // Drift for a day so reads correct symbols (4LC, no refresh).
            dev.advance_time(86_400.0);
            dev.refresh_block(24).unwrap();
            let mut debt = if traced { busy_of_refresh() } else { 0 };
            for blk in [0, 8, 16] {
                let ((rep, ns), busy, events) =
                    observe(&dev, || dev.read_block_ctx(blk, 21).unwrap());
                assert_eq!(busy, metrics::READ_BUSY_NS);
                assert_eq!(ns, busy + debt, "traced = {traced}, block {blk}");
                if traced {
                    assert_eq!(span_sum(&events), ns);
                    let decode = events.iter().any(|e| e.kind == OpKind::EccDecode);
                    assert_eq!(decode, rep.corrected_bits > 0);
                    decodes += decode as u32;
                } else {
                    assert!(events.is_empty());
                }
                debt = 0;
            }
        }
        assert!(
            decodes > 0,
            "no read corrected a symbol: the decode span went untested"
        );
    }

    #[test]
    fn plain_ops_take_per_bank_demand_ids() {
        let dev = written_4lc(true);
        let ((), _, events) = observe(&dev, || {
            dev.read_block(0).unwrap();
            dev.read_block(8).unwrap();
        });
        let ids: Vec<_> = events
            .iter()
            .filter(|e| e.kind == OpKind::Read)
            .map(|e| (pcm_trace::ctx_class(e.ctx), pcm_trace::ctx_seq(e.ctx)))
            .collect();
        // Bank 0 already handed ids 0..4 to its four writes.
        let demand = CtxClass::Demand;
        assert_eq!(ids, [(demand, 4), (demand, 4), (demand, 5), (demand, 5)]);
        let (_, _, events) = observe(&dev, || dev.refresh_block(16).unwrap());
        assert_eq!(
            pcm_trace::ctx_seq(events[0].ctx),
            6,
            "refreshes share the stream"
        );
    }

    #[test]
    fn advance_time_samples_only_due_ticks() {
        let dev = builder()
            .telemetry(pcm_telemetry::TelemetryConfig::new(1_000))
            .build_sharded()
            .unwrap();
        let points = |dev: &ShardedPcmDevice| {
            dev.telemetry().unwrap().snapshot().per_bank[0]
                .points
                .clone()
        };
        dev.write_block(0, &[1; 64]).unwrap();
        dev.advance_time(5e-7);
        assert!(points(&dev).is_empty(), "500 ns: nothing due yet");
        dev.advance_time(2e-6);
        let p = points(&dev);
        assert_eq!(p.len(), 2, "2.5 µs: ticks 1 and 2 claimed");
        assert_eq!((p[0].writes, p[1].writes), (1, 0));
    }

    #[test]
    fn clock_is_atomic_and_cumulative() {
        let dev = builder().build_sharded().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        dev.advance_time(0.5);
                    }
                });
            }
        });
        assert!((dev.now() - 2000.0).abs() < 1e-9, "{}", dev.now());
    }
}
