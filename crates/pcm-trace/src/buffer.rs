//! Lock-free bounded per-bank ring buffer for trace events.
//!
//! One [`TraceBuffer`] holds a fixed-capacity ring of encoded
//! [`TraceEvent`] slots per bank. Recording claims a slot with a single
//! `fetch_add` on the bank's sequence counter and writes six atomic
//! words — no locks, no allocation, no blocking — and overwrites the
//! oldest event once the ring wraps, counting how many were dropped so
//! exporters can surface the loss instead of hiding it.
//!
//! Slots use a seqlock-style version word (`seq + 1`; `0` = empty or
//! mid-write). In the device stack every event for bank *b* is recorded
//! while bank *b*'s lock is held, so each lane has one writer at a time
//! and a quiesced snapshot sees every slot consistent. A snapshot taken
//! *while* writers are active is still memory-safe (everything is an
//! atomic word) and simply skips slots whose version word is torn.

use crate::event::{OpKind, Phase, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};

/// Configuration for a [`TraceBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity per bank, in events. Values below 1 are clamped
    /// to 1.
    pub events_per_bank: usize,
}

impl TraceConfig {
    /// A config retaining the most recent `events_per_bank` events per
    /// bank.
    pub fn new(events_per_bank: usize) -> Self {
        TraceConfig { events_per_bank }
    }
}

impl Default for TraceConfig {
    /// 4096 events per bank (~160 KiB per bank).
    fn default() -> Self {
        TraceConfig::new(4096)
    }
}

/// One encoded event slot: `[version, t_ns, bank<<32|block,
/// kind<<8|phase, ctx, payload]` where `version = seq + 1` and `0`
/// marks an empty or in-flight slot.
struct Slot {
    version: AtomicU64,
    t_ns: AtomicU64,
    addr: AtomicU64,
    kind_phase: AtomicU64,
    ctx: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            version: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            addr: AtomicU64::new(0),
            kind_phase: AtomicU64::new(0),
            ctx: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

/// One bank's ring: a sequence counter (doubling as the total-recorded
/// counter) plus the slot array.
struct Lane {
    next_seq: AtomicU64,
    slots: Box<[Slot]>,
}

/// The bounded multi-bank event recorder.
pub struct TraceBuffer {
    lanes: Box<[Lane]>,
    capacity: usize,
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("banks", &self.lanes.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TraceBuffer {
    /// A buffer with one ring per bank. Zero banks or zero capacity are
    /// clamped to 1 so recording never has to branch on emptiness.
    pub fn new(banks: usize, config: &TraceConfig) -> Self {
        let banks = banks.max(1);
        let capacity = config.events_per_bank.max(1);
        let lanes = (0..banks)
            .map(|_| Lane {
                next_seq: AtomicU64::new(0),
                slots: (0..capacity).map(|_| Slot::empty()).collect(),
            })
            .collect();
        TraceBuffer { lanes, capacity }
    }

    /// Number of banks (lanes).
    pub fn banks(&self) -> usize {
        self.lanes.len()
    }

    /// Ring capacity per bank, in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event into its bank's ring, assigning the per-bank
    /// sequence number. Never blocks or allocates; once the ring is
    /// full the oldest event is overwritten and counted as dropped.
    pub fn record(&self, ev: TraceEvent) {
        // Out-of-range banks fold into the last lane rather than
        // panicking: the recorder sits on hot paths that must not abort.
        let lane = &self.lanes[(ev.bank as usize).min(self.lanes.len() - 1)];
        // The sequence ticket is a claim counter, not the seqlock word:
        // slot.version (Release/Acquire below) carries the publication.
        // pcm-lint: atomic(job-claim)
        let seq = lane.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = &lane.slots[(seq as usize) % self.capacity];
        // Seqlock write: invalidate, fill, publish. Release on the
        // publish orders the field stores before the new version for
        // any reader that Acquire-loads it.
        slot.version.store(0, Ordering::Release);
        slot.t_ns.store(ev.t_ns, Ordering::Release);
        slot.addr.store(
            ((ev.bank as u64) << 32) | ev.block as u64,
            Ordering::Release,
        );
        slot.kind_phase
            .store((ev.kind.code() << 8) | ev.phase.code(), Ordering::Release);
        slot.ctx.store(ev.ctx, Ordering::Release);
        slot.payload.store(ev.payload, Ordering::Release);
        slot.version.store(seq + 1, Ordering::Release);
    }

    /// Copy out everything currently retained.
    ///
    /// Quiesced (no concurrent writers), the snapshot holds exactly the
    /// last `min(recorded, capacity)` events per bank in sequence order.
    /// Concurrent with writers, slots that are mid-write are skipped.
    pub fn snapshot(&self) -> TraceSnapshot {
        let per_bank = self
            .lanes
            .iter()
            .enumerate()
            .map(|(bank, lane)| {
                let total = lane.next_seq.load(Ordering::Acquire);
                let retained = (total as usize).min(self.capacity);
                let first = total - retained as u64;
                let mut events: Vec<TraceEvent> = (first..total)
                    .filter_map(|seq| decode(&lane.slots[(seq as usize) % self.capacity]))
                    .collect();
                events.sort_by_key(|e| e.seq);
                BankTrace {
                    bank,
                    recorded: total,
                    dropped: total - retained as u64,
                    events,
                }
            })
            .collect();
        TraceSnapshot {
            capacity: self.capacity,
            per_bank,
        }
    }
}

/// Seqlock read of one slot; `None` when empty, torn, or corrupt.
fn decode(slot: &Slot) -> Option<TraceEvent> {
    let v1 = slot.version.load(Ordering::Acquire);
    if v1 == 0 {
        return None;
    }
    let t_ns = slot.t_ns.load(Ordering::Acquire);
    let addr = slot.addr.load(Ordering::Acquire);
    let kind_phase = slot.kind_phase.load(Ordering::Acquire);
    let ctx = slot.ctx.load(Ordering::Acquire);
    let payload = slot.payload.load(Ordering::Acquire);
    let v2 = slot.version.load(Ordering::Acquire);
    if v1 != v2 {
        return None;
    }
    Some(TraceEvent {
        seq: v1 - 1,
        t_ns,
        bank: (addr >> 32) as u32,
        block: (addr & 0xffff_ffff) as u32,
        kind: OpKind::from_code(kind_phase >> 8)?,
        phase: Phase::from_code(kind_phase & 0xff)?,
        ctx,
        payload,
    })
}

/// One bank's retained events plus its loss accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankTrace {
    /// Bank index.
    pub bank: usize,
    /// Total events ever recorded into this bank (including dropped).
    pub recorded: u64,
    /// Events overwritten before this snapshot (`recorded -
    /// retained`).
    pub dropped: u64,
    /// Retained events, in sequence order.
    pub events: Vec<TraceEvent>,
}

/// A copied-out view of a [`TraceBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Ring capacity per bank the buffer was built with.
    pub capacity: usize,
    /// Per-bank traces, indexed by bank.
    pub per_bank: Vec<BankTrace>,
}

impl TraceSnapshot {
    /// Total events retained across banks.
    pub fn total_events(&self) -> u64 {
        self.per_bank.iter().map(|b| b.events.len() as u64).sum()
    }

    /// Total events dropped (overwritten) across banks.
    pub fn total_dropped(&self) -> u64 {
        self.per_bank.iter().map(|b| b.dropped).sum()
    }

    /// The canonical per-bank event order used by the determinism
    /// oracle: each bank's events sorted by `(t_ns, seq)`.
    pub fn canonical_per_bank(&self) -> Vec<Vec<TraceEvent>> {
        self.per_bank
            .iter()
            .map(|b| {
                let mut events = b.events.clone();
                events.sort_by_key(|e| (e.t_ns, e.seq));
                events
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(bank: u32, t_ns: u64, payload: u64) -> TraceEvent {
        TraceEvent {
            seq: 0,
            t_ns,
            bank,
            block: 7,
            kind: OpKind::Read,
            phase: Phase::Begin,
            ctx: crate::ctx::NO_CTX,
            payload,
        }
    }

    #[test]
    fn records_in_sequence_order_per_bank() {
        let buf = TraceBuffer::new(2, &TraceConfig::new(8));
        for i in 0..5u64 {
            buf.record(ev(i as u32 % 2, 10 * i, i));
        }
        let snap = buf.snapshot();
        assert_eq!(snap.per_bank[0].events.len(), 3);
        assert_eq!(snap.per_bank[1].events.len(), 2);
        assert_eq!(snap.per_bank[0].dropped, 0);
        let seqs: Vec<u64> = snap.per_bank[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(snap.per_bank[0].events[1].t_ns, 20);
        assert_eq!(snap.per_bank[0].events[1].payload, 2);
        assert_eq!(snap.per_bank[0].events[1].block, 7);
    }

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let buf = TraceBuffer::new(1, &TraceConfig::new(4));
        for i in 0..10u64 {
            buf.record(ev(0, i, i));
        }
        let snap = buf.snapshot();
        let lane = &snap.per_bank[0];
        assert_eq!(lane.recorded, 10);
        assert_eq!(lane.dropped, 6);
        assert_eq!(lane.events.len(), 4);
        // The retained window is the *last* four events.
        let seqs: Vec<u64> = lane.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(snap.total_dropped(), 6);
        assert_eq!(snap.total_events(), 4);
    }

    #[test]
    fn zero_capacity_and_zero_banks_are_clamped() {
        let buf = TraceBuffer::new(0, &TraceConfig::new(0));
        assert_eq!(buf.banks(), 1);
        assert_eq!(buf.capacity(), 1);
        buf.record(ev(0, 1, 1));
        buf.record(ev(0, 2, 2));
        let snap = buf.snapshot();
        assert_eq!(snap.per_bank[0].events.len(), 1);
        assert_eq!(snap.per_bank[0].events[0].seq, 1);
        assert_eq!(snap.per_bank[0].dropped, 1);
    }

    #[test]
    fn out_of_range_bank_folds_into_last_lane() {
        let buf = TraceBuffer::new(2, &TraceConfig::new(4));
        buf.record(ev(99, 5, 5));
        let snap = buf.snapshot();
        assert_eq!(snap.per_bank[1].events.len(), 1);
        // The event keeps its own bank id even when stored in a
        // fallback lane.
        assert_eq!(snap.per_bank[1].events[0].bank, 99);
    }

    #[test]
    fn canonical_order_sorts_by_time_then_seq() {
        let buf = TraceBuffer::new(1, &TraceConfig::new(8));
        buf.record(ev(0, 50, 0));
        buf.record(ev(0, 10, 1));
        buf.record(ev(0, 50, 2));
        let canon = buf.snapshot().canonical_per_bank();
        let order: Vec<(u64, u64)> = canon[0].iter().map(|e| (e.t_ns, e.seq)).collect();
        assert_eq!(order, vec![(10, 1), (50, 0), (50, 2)]);
    }

    #[test]
    fn concurrent_recording_from_many_threads_loses_nothing() {
        let buf = TraceBuffer::new(4, &TraceConfig::new(1024));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let buf = &buf;
                scope.spawn(move || {
                    for i in 0..256u64 {
                        buf.record(ev(t, i, i));
                    }
                });
            }
        });
        let snap = buf.snapshot();
        assert_eq!(snap.total_events(), 4 * 256);
        assert_eq!(snap.total_dropped(), 0);
        for lane in &snap.per_bank {
            let seqs: Vec<u64> = lane.events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, (0..256).collect::<Vec<_>>());
        }
    }
}
