//! Per-device causal-correlation state.
//!
//! Two pieces, both indexed by bank and both touched only while the
//! owning bank's lock is held, so their evolution is a pure function of
//! each bank's operation order — the same determinism rule the trace buffer
//! and the bank RNG streams already obey:
//!
//! * **Demand ctx counters** — one split counter per bank handing out
//!   correlation ids for demand ops issued directly against an engine
//!   (`ctx = pack(Demand, bank, seq)`). Only consulted when tracing is
//!   enabled, so untraced runs never touch them.
//! * **Scrub debt** — modeled nanoseconds of refresh work a bank has
//!   performed that no demand op has yet "paid for". A successful
//!   refresh deposits its busy window; the next ctx-carrying demand op
//!   on that bank drains the whole balance as a ready-queue stall
//!   (emitted as a `scrub_stall` span and returned to the caller). This
//!   is pure observability: metrics, data, and RNG streams are
//!   untouched, so enabling it cannot perturb device results.

use crate::metrics;
use pcm_trace::{pack_ctx, CtxClass};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared causal state: demand-ctx split counters and scrub debt, one
/// slot of each per bank.
#[derive(Debug)]
pub(crate) struct CausalState {
    demand_seq: Vec<AtomicU64>,
    scrub_debt: Vec<AtomicU64>,
}

impl CausalState {
    pub(crate) fn new(banks: usize) -> Self {
        let banks = banks.max(1);
        Self {
            demand_seq: (0..banks).map(|_| AtomicU64::new(0)).collect(),
            scrub_debt: (0..banks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slot(v: &[AtomicU64], bank: usize) -> &AtomicU64 {
        // Out-of-range banks fold into the last slot, mirroring the
        // trace buffer's lane routing.
        &v[bank.min(v.len() - 1)]
    }

    /// Allocate the next demand correlation id for `bank`. Call only
    /// while holding the bank's lock so per-bank allocation order
    /// equals op order.
    pub(crate) fn next_demand(&self, bank: usize) -> u64 {
        // Per-bank split counter: the atomic is for `&self` access, not
        // for cross-thread ordering — the bank lock serializes callers.
        // pcm-lint: atomic(counter)
        let seq = Self::slot(&self.demand_seq, bank).fetch_add(1, Ordering::Relaxed);
        pack_ctx(CtxClass::Demand, bank as u64, seq as u32)
    }

    /// Deposit one successful refresh's busy window into `bank`'s debt.
    pub(crate) fn add_debt(&self, bank: usize, ns: u64) {
        // pcm-lint: atomic(counter)
        Self::slot(&self.scrub_debt, bank).fetch_add(ns, Ordering::Relaxed);
    }

    /// Drain `bank`'s accumulated scrub debt (returns the balance and
    /// zeroes it). Same locking rule as [`CausalState::next_demand`].
    pub(crate) fn take_debt(&self, bank: usize) -> u64 {
        // pcm-lint: atomic(counter)
        Self::slot(&self.scrub_debt, bank).swap(0, Ordering::Relaxed)
    }
}

/// The scrub-pass correlation id: a pure function of the schedule
/// (bank + first launch tick of the pass), so every walker — the
/// inline scrubber and per-bank cursors at any thread count — derives
/// the identical id.
pub(crate) fn scrub_ctx(bank: usize, first_tick: u64) -> u64 {
    pack_ctx(CtxClass::Scrub, bank as u64, first_tick as u32)
}

/// Busy window one successful block refresh deposits as scrub debt.
pub(crate) fn refresh_debt_ns() -> u64 {
    metrics::READ_BUSY_NS + metrics::WRITE_BUSY_NS
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::{ctx_class, ctx_seq, ctx_stream};

    #[test]
    fn demand_ids_are_per_bank_sequences() {
        let c = CausalState::new(2);
        let a0 = c.next_demand(0);
        let a1 = c.next_demand(0);
        let b0 = c.next_demand(1);
        assert_eq!(ctx_class(a0), CtxClass::Demand);
        assert_eq!((ctx_stream(a0), ctx_seq(a0)), (0, 0));
        assert_eq!((ctx_stream(a1), ctx_seq(a1)), (0, 1));
        assert_eq!((ctx_stream(b0), ctx_seq(b0)), (1, 0));
    }

    #[test]
    fn debt_accumulates_and_drains_atomically() {
        let c = CausalState::new(1);
        assert_eq!(c.take_debt(0), 0);
        c.add_debt(0, 1200);
        c.add_debt(0, 1200);
        assert_eq!(c.take_debt(0), 2400);
        assert_eq!(c.take_debt(0), 0);
    }

    #[test]
    fn scrub_ctx_is_schedule_pure() {
        let a = scrub_ctx(3, 17);
        assert_eq!(ctx_class(a), CtxClass::Scrub);
        assert_eq!(ctx_stream(a), 3);
        assert_eq!(ctx_seq(a), 17);
        assert_eq!(a, scrub_ctx(3, 17));
    }
}
