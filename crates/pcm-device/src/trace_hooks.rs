//! Shared trace-emission helpers for the device engine.
//!
//! The determinism oracle (`tests/trace_determinism.rs`) demands that
//! an inline run and runs at any thread count emit *identical* per-bank
//! event streams for the same per-bank operation order. Exactly one
//! function per touchpoint — the engine's ops, the inline scrubber, the
//! per-bank scrub cursors and the remapping layer all call these —
//! keeps an emission change from landing on one path and not another.
//!
//! Timestamps: an op's span begins at the device clock when the op is
//! issued (`secs_to_ns(now)`) and ends after its modeled busy window
//! (the same constants `metrics` charges). Scrub-pass spans run from
//! the pass's first launch deadline to its last launch deadline plus
//! one block-scrub cost, both derived from integer ticks.

use crate::block::BlockError;
use crate::causal;
use crate::error::PcmError;
use crate::metrics;
use pcm_trace::{secs_to_ns, OpKind, Recorder, NO_BLOCK};

/// Stable failure-event payload codes (documented in DESIGN.md §12).
/// Only block datapath failures are traced; config/out-of-range errors
/// never reach a bank (and record no metrics either).
pub(crate) fn pcm_error_code(e: &PcmError) -> Option<u64> {
    match e {
        PcmError::Block(BlockError::Uncorrectable) => Some(1),
        PcmError::Block(BlockError::WearoutExhausted) => Some(2),
        PcmError::Block(BlockError::WriteFailed) => Some(3),
        _ => None,
    }
}

/// A completed (or failed) block write: `outcome` is
/// `Ok((attempts, new_faults))` or `Err(code)`. `ctx` is the issuing
/// request's correlation id ([`pcm_trace::NO_CTX`] for untracked ops).
pub(crate) fn write_event(
    rec: &Recorder,
    bank: usize,
    block: usize,
    now: f64,
    cells: u64,
    outcome: Result<(u64, u64), u64>,
    ctx: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    let t = secs_to_ns(now);
    match outcome {
        Ok((attempts, new_faults)) => rec.span_ctx(
            OpKind::Write,
            bank as u32,
            block as u32,
            (t, t + metrics::write_busy_ns(attempts, cells)),
            (attempts, new_faults),
            ctx,
        ),
        Err(code) => rec.instant_ctx(OpKind::Failure, bank as u32, block as u32, t, code, ctx),
    }
}

/// A completed (or failed) block read: `outcome` is corrected symbols
/// or an error code. Nonzero correction additionally emits an
/// `ecc_decode` span nested at the tail of the read window — decode
/// work is carved *out of* the 200 ns media window (the BCH pipeline
/// overlaps the array access), clamped so it can never extend past the
/// read span it belongs to.
pub(crate) fn read_event(
    rec: &Recorder,
    bank: usize,
    block: usize,
    now: f64,
    outcome: Result<u64, u64>,
    ctx: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    let t = secs_to_ns(now);
    match outcome {
        Ok(corrected) => {
            rec.span_ctx(
                OpKind::Read,
                bank as u32,
                block as u32,
                (t, t + metrics::READ_BUSY_NS),
                (0, corrected),
                ctx,
            );
            if corrected > 0 {
                let decode_ns =
                    (corrected * metrics::ECC_DECODE_NS_PER_SYMBOL).min(metrics::READ_BUSY_NS);
                rec.span_ctx(
                    OpKind::EccDecode,
                    bank as u32,
                    block as u32,
                    (
                        t + metrics::READ_BUSY_NS - decode_ns,
                        t + metrics::READ_BUSY_NS,
                    ),
                    (corrected, corrected),
                    ctx,
                );
            }
        }
        Err(code) => rec.instant_ctx(OpKind::Failure, bank as u32, block as u32, t, code, ctx),
    }
}

/// A completed (or failed) single-block refresh/scrub rewrite.
pub(crate) fn refresh_event(
    rec: &Recorder,
    bank: usize,
    block: usize,
    now: f64,
    outcome: Result<(), u64>,
    ctx: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    let t = secs_to_ns(now);
    match outcome {
        Ok(()) => rec.span_ctx(
            OpKind::Refresh,
            bank as u32,
            block as u32,
            (t, t + metrics::READ_BUSY_NS + metrics::WRITE_BUSY_NS),
            (0, 0),
            ctx,
        ),
        Err(code) => rec.instant_ctx(OpKind::Failure, bank as u32, block as u32, t, code, ctx),
    }
}

/// The ready-queue stall a ctx-carrying demand op served before its own
/// busy window: the bank's accumulated scrub debt, drained at issue
/// time. Emitted as a span `[now, now + wait_ns]` carrying the
/// requester's ctx (payloads: drained ns on both phases).
pub(crate) fn scrub_stall_event(
    rec: &Recorder,
    bank: usize,
    block: usize,
    now: f64,
    wait_ns: u64,
    ctx: u64,
) {
    if !rec.is_enabled() || wait_ns == 0 {
        return;
    }
    let t = secs_to_ns(now);
    rec.span_ctx(
        OpKind::ScrubStall,
        bank as u32,
        block as u32,
        (t, t + wait_ns),
        (wait_ns, wait_ns),
        ctx,
    );
}

/// A block retirement performed by `RemappedDevice`: an instant-width
/// span pairing the failing physical block with its replacement
/// (begin payload) and the cumulative retired count (end payload).
pub(crate) fn remap_event(
    rec: &Recorder,
    bank: usize,
    block: usize,
    now: f64,
    replacement: usize,
    retired_total: u64,
) {
    if !rec.is_enabled() {
        return;
    }
    let t = secs_to_ns(now);
    rec.span(
        OpKind::Remap,
        bank as u32,
        block as u32,
        (t, t),
        (replacement as u64, retired_total),
    );
}

/// Fold one scrub launch tick into a bank's pass accumulator
/// (`(first_tick, last_tick, launches)`).
pub(crate) fn track_pass(slot: &mut Option<(u64, u64, u64)>, tick: u64) {
    *slot = Some(match *slot {
        None => (tick, tick, 1),
        Some((first, _, n)) => (first, tick, n + 1),
    });
}

/// Emit one bank's scrub-pass span after a scheduler walk: from the
/// first launch deadline to the last launch deadline plus one
/// block-scrub cost. Begin payload = first tick (a stable pass id),
/// end payload = launches in the pass. The span carries the pass's
/// correlation id, derived from the schedule (`bank`, first tick) so
/// every walker emits the identical id (see [`causal::scrub_ctx`]).
pub(crate) fn scrub_pass_event(
    rec: &Recorder,
    bank: usize,
    pass: Option<(u64, u64, u64)>,
    step_secs: f64,
    block_cost_secs: f64,
) {
    if !rec.is_enabled() {
        return;
    }
    if let Some((first, last, launches)) = pass {
        rec.span_ctx(
            OpKind::ScrubPass,
            bank as u32,
            NO_BLOCK,
            (
                secs_to_ns(first as f64 * step_secs),
                secs_to_ns(last as f64 * step_secs + block_cost_secs),
            ),
            (first, launches),
            causal::scrub_ctx(bank, first),
        );
    }
}
