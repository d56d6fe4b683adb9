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
//!         let mut session = dev.session();
//!         s.spawn(move || {
//!             for b in (t..64).step_by(4) {
//!                 session.write_block(b, &[t as u8; 64]).unwrap();
//!             }
//!         });
//!     }
//! });
//! assert_eq!(dev.stats().writes, 64);
//! ```

use crate::bank::{DeviceStats, PcmBank};
use crate::block::{ReadReport, WriteReport, BLOCK_BYTES};
use crate::causal::{self, CausalState};
use crate::error::PcmError;
use crate::metrics::{self, DeviceMetrics};
use crate::telemetry_hooks;
use crate::trace_hooks;
use pcm_telemetry::TelemetryRecorder;
use pcm_trace::{Recorder, NO_CTX};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Acquire one bank lock, unwinding on poisoning.
///
/// A poisoned bank lock means a sibling thread panicked mid-operation;
/// the bank's cell state is unknowable and no typed error could make it
/// usable again, so propagating the panic is the only sound option.
/// Every single-bank acquisition in this module routes through here so
/// that reasoning lives in exactly one place.
fn lock_bank(shard: &Mutex<PcmBank>) -> MutexGuard<'_, PcmBank> {
    // pcm-lint: allow(no-panic-lib) — poisoning implies a sibling thread already panicked.
    shard.lock().expect("bank lock poisoned")
}

/// A PCM device sharing its banks across threads behind per-bank locks.
///
/// Built by [`DeviceBuilder::build_sharded`](crate::builder::DeviceBuilder::build_sharded).
/// All methods take `&self`; clone-free [`Session`] handles are the
/// intended per-thread interface.
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
    causal: CausalState,
}

impl ShardedPcmDevice {
    pub(crate) fn from_banks(
        banks: Vec<PcmBank>,
        trace: Recorder,
        telemetry: Option<Arc<TelemetryRecorder>>,
    ) -> Self {
        let metrics = DeviceMetrics::new(banks.len());
        let causal = CausalState::new(banks.len());
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
            causal,
        }
    }

    /// The observability registry: per-bank atomic counters and latency
    /// histograms, recorded lock-free on every operation.
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

    /// A handle for issuing operations from one thread. Sessions are
    /// cheap, independent, and carry per-session operation counters.
    pub fn session(&self) -> Session<'_> {
        Session {
            dev: self,
            stats: SessionStats::default(),
        }
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
    pub fn advance_time(&self, secs: f64) {
        // pcm-lint: allow(no-panic-lib) — documented precondition; a negative advance is a caller bug that must not silently corrupt drift state.
        assert!(secs >= 0.0, "time flows forward");
        self.now_bits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |bits| {
                Some((f64::from_bits(bits) + secs).to_bits())
            })
            // pcm-lint: allow(no-panic-lib) — infallible: the closure above always returns Some.
            .expect("fetch_update closure never fails");
        telemetry_hooks::poll_telemetry(
            self.telemetry.as_ref(),
            self.now(),
            &self.metrics,
            &self.trace,
        );
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

    /// Record a write outcome into the metrics registry.
    fn note_write(&self, shard: usize, cells: u64, r: &Result<WriteReport, PcmError>) {
        match r {
            Ok(rep) => self.metrics.bank(shard).record_write(
                rep.new_faults as u64,
                metrics::write_busy_ns(rep.attempts, cells),
            ),
            Err(_) => self.metrics.bank(shard).record_failure(),
        }
    }

    /// Record a read outcome into the metrics registry.
    fn note_read(&self, shard: usize, r: &Result<ReadReport, PcmError>) {
        match r {
            Ok(rep) => self
                .metrics
                .bank(shard)
                .record_read(rep.corrected_bits as u64, metrics::READ_BUSY_NS),
            Err(_) => self.metrics.bank(shard).record_failure(),
        }
    }

    /// Next demand correlation id for `shard`. Call while holding the
    /// bank's lock so per-bank allocation order equals op order;
    /// [`NO_CTX`] when tracing is disabled.
    fn demand_ctx(&self, shard: usize) -> u64 {
        if self.trace.is_enabled() {
            self.causal.next_demand(shard)
        } else {
            NO_CTX
        }
    }

    /// Drain `shard`'s scrub debt at issue time, emitting the stall span
    /// under the requester's ctx. Call while holding the bank's lock.
    fn drain_debt(&self, shard: usize, block: usize, now: f64, ctx: u64) -> u64 {
        if !self.trace.is_enabled() {
            return 0;
        }
        let wait_ns = self.causal.take_debt(shard);
        trace_hooks::scrub_stall_event(&self.trace, shard, block, now, wait_ns, ctx);
        wait_ns
    }

    /// Trace a write outcome. Must be called while the bank's lock is
    /// still held so the bank's event order equals its op order.
    fn trace_write(
        &self,
        shard: usize,
        block: usize,
        now: f64,
        cells: u64,
        r: &Result<WriteReport, PcmError>,
        ctx: u64,
    ) {
        let outcome = match r {
            Ok(rep) => Ok((rep.attempts, rep.new_faults as u64)),
            Err(e) => match trace_hooks::pcm_error_code(e) {
                Some(code) => Err(code),
                None => return,
            },
        };
        trace_hooks::write_event(&self.trace, shard, block, now, cells, outcome, ctx);
    }

    /// Trace a read outcome (same under-the-lock rule as
    /// [`Self::trace_write`]).
    fn trace_read(
        &self,
        shard: usize,
        block: usize,
        now: f64,
        r: &Result<ReadReport, PcmError>,
        ctx: u64,
    ) {
        let outcome = match r {
            Ok(rep) => Ok(rep.corrected_bits as u64),
            Err(e) => match trace_hooks::pcm_error_code(e) {
                Some(code) => Err(code),
                None => return,
            },
        };
        trace_hooks::read_event(&self.trace, shard, block, now, outcome, ctx);
    }

    /// The model-time busy window the trace records for a completed
    /// write: [`metrics::write_busy_ns`] of its program attempts over
    /// this device's cells per block. Callers that model request
    /// durations (the KV store's per-op spans) charge this, so a
    /// retried write costs its request exactly what its trace span
    /// covers.
    pub fn write_busy_window_ns(&self, rep: &WriteReport) -> u64 {
        metrics::write_busy_ns(rep.attempts, self.cells_per_block as u64)
    }

    /// Write 64 bytes to a block (locks only that block's bank).
    pub fn write_block(&self, block: usize, data: &[u8]) -> Result<WriteReport, PcmError> {
        self.write_impl(block, data, None).map(|(rep, _)| rep)
    }

    /// [`ShardedPcmDevice::write_block`] with a caller-supplied
    /// correlation id (e.g. a KV request's). Drains the bank's
    /// accumulated scrub debt first — emitted as a `scrub_stall` span
    /// under the caller's ctx — and returns the drained wait alongside
    /// the report. Plain ops never drain, so debt only surfaces on
    /// attributed requests.
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
    /// correlation id; same scrub-debt drain semantics as
    /// [`ShardedPcmDevice::write_block_ctx`].
    pub fn read_block_ctx(&self, block: usize, ctx: u64) -> Result<(ReadReport, u64), PcmError> {
        self.read_impl(block, Some(ctx))
    }

    /// Under the bank's lock, resolve the op's correlation id: `None` is
    /// a plain op (a fresh demand ctx, no debt drain); `Some(ctx)` drains
    /// the scrub debt under `ctx` and returns the drained wait.
    fn op_ctx(&self, shard: usize, block: usize, now: f64, ctx: Option<u64>) -> (u64, u64) {
        match ctx {
            Some(ctx) => (ctx, self.drain_debt(shard, block, now, ctx)),
            None => (self.demand_ctx(shard), 0),
        }
    }

    fn write_impl(
        &self,
        block: usize,
        data: &[u8],
        ctx: Option<u64>,
    ) -> Result<(WriteReport, u64), PcmError> {
        let (shard, local) = self.locate(block)?;
        let now = self.now();
        let cells = self.cells_per_block as u64;
        let mut bank = lock_bank(&self.shards[shard]);
        let (ctx, wait_ns) = self.op_ctx(shard, block, now, ctx);
        let r = bank.write(local, now, data).map_err(PcmError::from);
        self.trace_write(shard, block, now, cells, &r, ctx);
        drop(bank);
        self.note_write(shard, cells, &r);
        r.map(|rep| (rep, wait_ns))
    }

    fn read_impl(&self, block: usize, ctx: Option<u64>) -> Result<(ReadReport, u64), PcmError> {
        let (shard, local) = self.locate(block)?;
        let now = self.now();
        let mut bank = lock_bank(&self.shards[shard]);
        let (ctx, wait_ns) = self.op_ctx(shard, block, now, ctx);
        let r = bank.read(local, now).map_err(PcmError::from);
        self.trace_read(shard, block, now, &r, ctx);
        drop(bank);
        self.note_read(shard, &r);
        r.map(|rep| (rep, wait_ns))
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
        let ctx = ctx.unwrap_or_else(|| self.demand_ctx(shard));
        let r = bank.refresh(local, now).map_err(PcmError::from);
        match &r {
            Ok(_) => {
                trace_hooks::refresh_event(&self.trace, shard, block, now, Ok(()), ctx);
                // A successful refresh owes the next attributed demand
                // op its busy window (see `causal`).
                if self.trace.is_enabled() {
                    self.causal.add_debt(shard, causal::refresh_debt_ns());
                }
            }
            Err(e) => {
                if let Some(code) = trace_hooks::pcm_error_code(e) {
                    trace_hooks::refresh_event(&self.trace, shard, block, now, Err(code), ctx);
                }
            }
        }
        drop(bank);
        match &r {
            Ok(corrected) => self
                .metrics
                .bank(shard)
                .record_scrub(*corrected, metrics::READ_BUSY_NS + metrics::WRITE_BUSY_NS),
            Err(_) => self.metrics.bank(shard).record_failure(),
        }
        r.map(|_| ())
    }

    /// The canonical multi-bank acquisition: guards are always taken in
    /// ascending bank-id order, so any two threads locking the same pair
    /// agree on the order and cannot deadlock. Returns the guards in the
    /// caller's `(a, b)` order. `pcm-lint`'s `lock-order` analysis flags
    /// any function holding two or more bank guards that does not route
    /// through here.
    fn lock_pair_ordered(
        &self,
        a: usize,
        b: usize,
    ) -> (MutexGuard<'_, PcmBank>, MutexGuard<'_, PcmBank>) {
        debug_assert_ne!(a, b, "a pair means two distinct banks");
        let lo_guard = lock_bank(&self.shards[a.min(b)]);
        let hi_guard = lock_bank(&self.shards[a.max(b)]);
        if a < b {
            (lo_guard, hi_guard)
        } else {
            (hi_guard, lo_guard)
        }
    }

    /// Copy one block's stored data onto another, atomically with
    /// respect to both banks — the wear-leveling migration primitive.
    /// Source read and destination write happen under simultaneously
    /// held bank locks (sorted acquisition via
    /// `lock_pair_ordered`), so no concurrent write can slip
    /// between the two halves.
    ///
    /// Returns the destination's write report; metrics record one read
    /// on the source bank and one write on the destination bank, and the
    /// outcome is bit-identical to a [`Self::read_block`] of `src`
    /// followed by a [`Self::write_block`] of its data to `dst`.
    pub fn copy_block(&self, src: usize, dst: usize) -> Result<WriteReport, PcmError> {
        let (s_shard, s_local) = self.locate(src)?;
        let (d_shard, d_local) = self.locate(dst)?;
        let now = self.now();
        let cells = self.cells_per_block as u64;
        let write = if s_shard == d_shard {
            let mut bank = lock_bank(&self.shards[s_shard]);
            let read_ctx = self.demand_ctx(s_shard);
            let read = bank.read(s_local, now).map_err(PcmError::from);
            self.note_read(s_shard, &read);
            self.trace_read(s_shard, src, now, &read, read_ctx);
            let data = read?.data;
            let write_ctx = self.demand_ctx(d_shard);
            let w = bank.write(d_local, now, &data).map_err(PcmError::from);
            self.trace_write(d_shard, dst, now, cells, &w, write_ctx);
            w
        } else {
            let (mut s_bank, mut d_bank) = self.lock_pair_ordered(s_shard, d_shard);
            let read_ctx = self.demand_ctx(s_shard);
            let read = s_bank.read(s_local, now).map_err(PcmError::from);
            self.note_read(s_shard, &read);
            self.trace_read(s_shard, src, now, &read, read_ctx);
            let data = read?.data;
            let write_ctx = self.demand_ctx(d_shard);
            let w = d_bank.write(d_local, now, &data).map_err(PcmError::from);
            self.trace_write(d_shard, dst, now, cells, &w, write_ctx);
            w
        };
        self.note_write(d_shard, cells, &write);
        write
    }

    /// Bulk write path: requests are grouped by bank *before* any lock is
    /// taken, so each bank is locked exactly once per call and requests
    /// to a bank apply in submission order. Results come back in
    /// submission order.
    pub fn write_batch(&self, requests: &[(usize, &[u8])]) -> Vec<Result<WriteReport, PcmError>> {
        let now = self.now();
        let mut results: Vec<Option<Result<WriteReport, PcmError>>> =
            (0..requests.len()).map(|_| None).collect();
        // Group indices by bank, preserving submission order within each.
        let mut by_bank: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, (block, _)) in requests.iter().enumerate() {
            match self.locate(*block) {
                Ok((shard, _)) => by_bank[shard].push(i),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        for (shard, idxs) in by_bank.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut bank = lock_bank(&self.shards[shard]);
            let cells = self.cells_per_block as u64;
            for &i in idxs {
                let (block, data) = requests[i];
                let local = block / self.shards.len();
                let ctx = self.demand_ctx(shard);
                let r = bank.write(local, now, data).map_err(PcmError::from);
                self.note_write(shard, cells, &r);
                self.trace_write(shard, block, now, cells, &r, ctx);
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            // pcm-lint: allow(no-panic-lib) — infallible: locate() either grouped index i by bank or filled results[i] with Err.
            .map(|r| r.expect("every request routed"))
            .collect()
    }

    /// Bulk read path; same grouping rule as [`Self::write_batch`].
    pub fn read_batch(&self, blocks: &[usize]) -> Vec<Result<ReadReport, PcmError>> {
        let now = self.now();
        let mut results: Vec<Option<Result<ReadReport, PcmError>>> =
            (0..blocks.len()).map(|_| None).collect();
        let mut by_bank: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, block) in blocks.iter().enumerate() {
            match self.locate(*block) {
                Ok((shard, _)) => by_bank[shard].push(i),
                Err(e) => results[i] = Some(Err(e)),
            }
        }
        for (shard, idxs) in by_bank.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut bank = lock_bank(&self.shards[shard]);
            for &i in idxs {
                let local = blocks[i] / self.shards.len();
                let ctx = self.demand_ctx(shard);
                let r = bank.read(local, now).map_err(PcmError::from);
                self.note_read(shard, &r);
                self.trace_read(shard, blocks[i], now, &r, ctx);
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            // pcm-lint: allow(no-panic-lib) — infallible: locate() either grouped index i by bank or filled results[i] with Err.
            .map(|r| r.expect("every request routed"))
            .collect()
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
    /// `[b*cells_per_block, (b+1)*cells_per_block)`).
    pub fn inject_lifetime(&self, cell: usize, cycles: u64) {
        let cpb = self.cells_per_block;
        let block = cell / cpb;
        let within = cell % cpb;
        let shard = block % self.shards.len();
        let local_block = block / self.shards.len();
        lock_bank(&self.shards[shard]).set_lifetime(local_block * cpb + within, cycles);
    }
}

/// Per-session operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Writes issued through this session.
    pub writes: u64,
    /// Reads issued through this session.
    pub reads: u64,
    /// Refreshes issued through this session.
    pub refreshes: u64,
}

/// A per-thread handle onto a [`ShardedPcmDevice`].
///
/// Sessions route operations without any shared mutable state of their
/// own, so handing one to each thread gives lock-free *routing* — the
/// only synchronization is the per-bank lock of the target bank.
pub struct Session<'d> {
    dev: &'d ShardedPcmDevice,
    stats: SessionStats,
}

impl<'d> Session<'d> {
    /// The device this session operates on.
    pub fn device(&self) -> &'d ShardedPcmDevice {
        self.dev
    }

    /// Operations issued through this session.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The device-wide observability registry (shared across sessions).
    pub fn metrics(&self) -> &'d DeviceMetrics {
        self.dev.metrics()
    }

    /// The device-wide event recorder (shared across sessions).
    pub fn tracer(&self) -> &'d Recorder {
        self.dev.tracer()
    }

    /// Write 64 bytes to a block.
    pub fn write_block(&mut self, block: usize, data: &[u8]) -> Result<WriteReport, PcmError> {
        self.stats.writes += 1;
        self.dev.write_block(block, data)
    }

    /// Read 64 bytes from a block.
    pub fn read_block(&mut self, block: usize) -> Result<ReadReport, PcmError> {
        self.stats.reads += 1;
        self.dev.read_block(block)
    }

    /// Refresh (scrub) one block.
    pub fn refresh_block(&mut self, block: usize) -> Result<(), PcmError> {
        self.stats.refreshes += 1;
        self.dev.refresh_block(block)
    }

    /// Copy one block onto another (counts as one read and one write).
    pub fn copy_block(&mut self, src: usize, dst: usize) -> Result<WriteReport, PcmError> {
        self.stats.reads += 1;
        self.stats.writes += 1;
        self.dev.copy_block(src, dst)
    }

    /// Bulk write; counts as one write per request.
    pub fn write_batch(
        &mut self,
        requests: &[(usize, &[u8])],
    ) -> Vec<Result<WriteReport, PcmError>> {
        self.stats.writes += requests.len() as u64;
        self.dev.write_batch(requests)
    }

    /// Bulk read; counts as one read per request.
    pub fn read_batch(&mut self, blocks: &[usize]) -> Vec<Result<ReadReport, PcmError>> {
        self.stats.reads += blocks.len() as u64;
        self.dev.read_batch(blocks)
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
    fn batch_paths_match_singles() {
        let singles = builder().build_sharded().unwrap();
        let batched = builder().build_sharded().unwrap();
        let payloads: Vec<Vec<u8>> = (0..32).map(|b| vec![b as u8 ^ 0x99; 64]).collect();
        for (b, p) in payloads.iter().enumerate() {
            singles.write_block(b, p).unwrap();
        }
        let requests: Vec<(usize, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(b, p)| (b, p.as_slice()))
            .collect();
        for r in batched.write_batch(&requests) {
            r.unwrap();
        }
        let blocks: Vec<usize> = (0..32).collect();
        let a = singles.read_batch(&blocks);
        for (b, r) in batched.read_batch(&blocks).into_iter().enumerate() {
            assert_eq!(
                r.as_ref().unwrap(),
                a[b].as_ref().unwrap(),
                "batch read diverged at block {b}"
            );
        }
        assert_eq!(singles.stats(), batched.stats());
    }

    #[test]
    fn concurrent_writes_scale_across_banks_deterministically() {
        // Run the same per-bank op streams under 1 thread and 8 threads:
        // outputs must be identical.
        let run = |threads: usize| {
            let dev = builder().build_sharded().unwrap();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let mut session = dev.session();
                    s.spawn(move || {
                        // Thread t owns banks t, t+threads, ... — each
                        // bank's ops stay on one thread, in order.
                        for bank in (t..8).step_by(threads) {
                            for round in 0..4u8 {
                                for blk in (bank..32).step_by(8) {
                                    session.write_block(blk, &[round ^ blk as u8; 64]).unwrap();
                                }
                            }
                        }
                    });
                }
            });
            let blocks: Vec<usize> = (0..32).collect();
            let reads: Vec<Vec<u8>> = dev
                .read_batch(&blocks)
                .into_iter()
                .map(|r| r.unwrap().data)
                .collect();
            (reads, dev.stats())
        };
        let (data1, stats1) = run(1);
        let (data8, stats8) = run(8);
        assert_eq!(data1, data8);
        assert_eq!(stats1, stats8);
        assert_eq!(stats1.writes, 128);
    }

    #[test]
    fn copy_block_equals_read_then_write() {
        // `copy_block` is a read of the source and a write of its data,
        // under both bank locks at once: a second same-seed device doing
        // the two halves as separate ops must agree bit for bit.
        let copied = builder().build_sharded().unwrap();
        let split = builder().build_sharded().unwrap();
        for b in 0..8 {
            let data = vec![(b as u8).wrapping_mul(31); 64];
            copied.write_block(b, &data).unwrap();
            split.write_block(b, &data).unwrap();
        }
        // Cross-bank (0 → 13), same-bank (2 → 10 with 8 banks), and
        // reversed-order (13 → 0) copies must all agree.
        for (src, dst) in [(0, 13), (2, 10), (13, 0)] {
            let a = copied.copy_block(src, dst).unwrap();
            let data = split.read_block(src).unwrap().data;
            let b = split.write_block(dst, &data).unwrap();
            assert_eq!(a, b, "copy report diverged for {src}->{dst}");
            assert_eq!(
                copied.read_block(dst).unwrap(),
                split.read_block(dst).unwrap()
            );
        }
        assert_eq!(copied.stats(), split.stats());
        assert_eq!(copied.metrics().snapshot(), split.metrics().snapshot());
    }

    #[test]
    fn copy_block_is_atomic_and_deadlock_free_under_contention() {
        // Two threads copy in opposite directions between the same bank
        // pair for many iterations. Unordered double-locking would
        // deadlock here almost immediately; sorted acquisition cannot.
        let dev = builder().build_sharded().unwrap();
        dev.write_block(0, &[0xAA; 64]).unwrap(); // bank 0
        dev.write_block(1, &[0x55; 64]).unwrap(); // bank 1
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..500 {
                    dev.copy_block(0, 1).unwrap();
                }
            });
            s.spawn(|| {
                for _ in 0..500 {
                    dev.copy_block(1, 0).unwrap();
                }
            });
        });
        // Atomicity: both blocks must hold one of the two payloads, and
        // every copy recorded exactly one read + one write.
        let stats = dev.stats();
        assert_eq!(stats.writes, 2 + 1000);
        assert_eq!(stats.reads, 1000);
        for b in [0, 1] {
            let data = dev.read_block(b).unwrap().data;
            assert!(data == vec![0xAA; 64] || data == vec![0x55; 64]);
        }
    }

    #[test]
    fn copy_block_propagates_out_of_range() {
        let dev = builder().build_sharded().unwrap();
        assert!(matches!(
            dev.copy_block(0, 99),
            Err(PcmError::BlockOutOfRange { block: 99, .. })
        ));
        assert!(matches!(
            dev.copy_block(99, 0),
            Err(PcmError::BlockOutOfRange { block: 99, .. })
        ));
        // Failed copies record no read/write.
        assert_eq!(dev.stats().writes, 0);
    }

    #[test]
    fn session_copy_counts_one_read_and_one_write() {
        let dev = builder().build_sharded().unwrap();
        let mut s = dev.session();
        s.write_block(0, &[7u8; 64]).unwrap();
        s.copy_block(0, 5).unwrap();
        assert_eq!(
            s.stats(),
            SessionStats {
                writes: 2,
                reads: 1,
                refreshes: 0
            }
        );
        assert_eq!(dev.read_block(5).unwrap().data, vec![7u8; 64]);
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
        let res = dev.write_batch(&[(0, &[0u8; 64][..]), (500, &[0u8; 64][..])]);
        assert!(res[0].is_ok());
        assert!(matches!(res[1], Err(PcmError::BlockOutOfRange { .. })));
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

    #[test]
    fn session_counters_track_usage() {
        let dev = builder().build_sharded().unwrap();
        let mut s = dev.session();
        s.write_block(0, &[1u8; 64]).unwrap();
        s.write_block(1, &[2u8; 64]).unwrap();
        s.read_block(0).unwrap();
        assert_eq!(
            s.stats(),
            SessionStats {
                writes: 2,
                reads: 1,
                refreshes: 0
            }
        );
    }
}
