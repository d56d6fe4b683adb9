//! Trace emitters the scrub walkers and the remapping layer share.
//!
//! The determinism oracle (`tests/trace_determinism.rs`) demands that
//! an inline run and runs at any thread count emit *identical* per-bank
//! event streams for the same per-bank operation order. The inline
//! scrubber and the per-bank scrub cursors both call these, so a
//! scrub-pass emission change cannot land on one walker and not the
//! other. Per-op events (read, write, refresh, stall, ECC decode) come
//! from the device engine's record step, one per bank op.
//!
//! Scrub-pass spans run from the pass's first launch deadline to its
//! last launch deadline plus one block-scrub cost, both derived from
//! integer ticks.

use pcm_trace::{pack_ctx, secs_to_ns, CtxClass, OpKind, Recorder, NO_BLOCK};

/// The scrub-pass correlation id: a pure function of the schedule
/// (bank + first launch tick of the pass), so every walker — the
/// inline scrubber and per-bank cursors at any thread count — derives
/// the identical id.
pub(crate) fn scrub_ctx(bank: usize, first_tick: u64) -> u64 {
    pack_ctx(CtxClass::Scrub, bank as u64, first_tick as u32)
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
/// every walker emits the identical id (see [`scrub_ctx`]).
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
            scrub_ctx(bank, first),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::{ctx_class, ctx_seq, ctx_stream};

    #[test]
    fn scrub_ctx_is_schedule_pure() {
        let a = scrub_ctx(3, 17);
        assert_eq!(ctx_class(a), CtxClass::Scrub);
        assert_eq!(ctx_stream(a), 3);
        assert_eq!(ctx_seq(a), 17);
        assert_eq!(a, scrub_ctx(3, 17));
    }
}
