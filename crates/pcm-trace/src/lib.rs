//! Deterministic model-time tracing for the mlc-pcm stack.
//!
//! The aggregate counters in `pcm-device::metrics` answer *how much*
//! (reads, corrected symbols, busy time) but not *when* — and the
//! paper's refresh/scrub results (§6, Fig. 14–16) are precisely about
//! timing: demand reads colliding with background scrub, drift-triggered
//! refresh bursts, remap storms near end-of-life. This crate records
//! those moments as a bounded, lock-free event stream:
//!
//! - [`TraceEvent`] — 40 bytes of integers: model-time ns, bank, block,
//!   op kind, span phase, payload. No wall-clock, no thread ids.
//! - [`TraceBuffer`] — per-bank ring buffers; recording is a
//!   `fetch_add` plus five atomic stores (never blocks, never
//!   allocates), overwriting the oldest event with a dropped counter.
//! - [`Recorder`] — the handle the device engines carry: an optional
//!   shared [`TraceBuffer`], so disabled tracing costs one branch.
//! - [`jsonl`] / [`chrome`] — exporters: line-oriented JSONL with a
//!   stable field order (the `xtask trace-report` input), and Chrome
//!   trace-event JSON (banks as threads, spans as `B`/`E` pairs).
//! - [`json`] — the workspace's one JSON writer and reader, which every
//!   exporter, report and analyzer in the stack goes through.
//!
//! # Determinism contract
//!
//! Every timestamp derives from device model time via [`secs_to_ns`],
//! and per-bank sequence numbers are assigned in record order — which
//! the device stack makes deterministic by recording under the owning
//! bank's lock. The canonical per-bank order
//! ([`TraceSnapshot::canonical_per_bank`], sort by `(t_ns, seq)`) is
//! therefore identical between an inline device run and the same ops
//! at any thread count, making the trace itself a correctness
//! oracle (`tests/trace_determinism.rs`) rather than just a debugging
//! aid. The same property holds for this crate as for the device
//! crates: it is covered by `pcm-lint`'s `no-ambient-nondeterminism`
//! rule, so `Instant`/`SystemTime`/environment reads cannot creep in.

#![warn(missing_docs)]

mod buffer;
pub mod chrome;
pub mod ctx;
mod event;
pub mod json;
pub mod jsonl;
mod recorder;

pub use buffer::{BankTrace, TraceBuffer, TraceConfig, TraceSnapshot};
pub use ctx::{
    ctx_base, ctx_class, ctx_is_index, ctx_seq, ctx_stream, pack_ctx, CtxClass, CtxCounter,
    CTX_INDEX_FLAG, NO_CTX,
};
pub use event::{OpKind, Phase, TraceEvent, NO_BLOCK};
pub use json::DecodeError;
pub use jsonl::{LaneSummary, ParsedTrace};
pub use recorder::Recorder;

/// Model seconds to integer nanoseconds, rounded to nearest.
///
/// This is the single seconds→ns conversion every emitter uses, so the
/// same model instant always stamps the same integer. Negative and
/// non-finite inputs saturate (Rust float→int casts are saturating).
pub fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9).round() as u64
}

/// A model-time value already in (possibly fractional) nanoseconds to
/// an integer stamp, rounded to nearest. Used by the performance engine,
/// whose clock is f64 nanoseconds.
pub fn round_ns(ns: f64) -> u64 {
    ns.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_to_ns_rounds_and_saturates() {
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1.0), 1_000_000_000);
        assert_eq!(secs_to_ns(2e-7), 200);
        assert_eq!(secs_to_ns(1.6), 1_600_000_000);
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(f64::NAN), 0);
    }

    #[test]
    fn round_ns_rounds_to_nearest() {
        assert_eq!(round_ns(0.4), 0);
        assert_eq!(round_ns(0.5), 1);
        assert_eq!(round_ns(1234.9), 1235);
        assert_eq!(round_ns(-5.0), 0);
    }
}
