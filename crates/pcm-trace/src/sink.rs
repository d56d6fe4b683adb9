//! The recording interface: [`TraceSink`], the no-op [`NullSink`], and
//! the cloneable [`Recorder`] handle the device stack threads through
//! its engines the same way `DeviceMetrics` travels.
//!
//! Disabled tracing must cost one predictable branch: a disabled
//! [`Recorder`] holds no sink at all, so `record` is a `None` check and
//! an immediate return — no virtual call, no allocation, no event
//! construction on the caller side beyond building the argument struct.

use crate::buffer::{TraceBuffer, TraceConfig};
use crate::ctx::NO_CTX;
use crate::event::{OpKind, Phase, TraceEvent};
use std::sync::Arc;

/// Anything that can accept trace events.
///
/// Implementations must be cheap and non-blocking: sinks are invoked on
/// device hot paths, sometimes while a bank lock is held. The `seq`
/// field of the incoming event is unassigned (zero); order-preserving
/// sinks such as [`TraceBuffer`] assign their own sequence numbers.
pub trait TraceSink: Send + Sync {
    /// Accept one event.
    fn record(&self, ev: TraceEvent);
}

/// A sink that discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _ev: TraceEvent) {}
}

/// The handle device engines carry: either disabled (the default — one
/// branch per would-be event) or backed by a shared sink.
///
/// `Recorder` is `Clone`; clones share the same sink, so everything
/// holding a clone (a device and anything it hands the recorder to)
/// records into one buffer.
#[derive(Clone, Default)]
pub struct Recorder {
    sink: Option<Arc<dyn TraceSink>>,
    buffer: Option<Arc<TraceBuffer>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .field("buffer", &self.buffer)
            .finish()
    }
}

impl Recorder {
    /// The disabled recorder: every `record` is a single branch.
    pub fn disabled() -> Recorder {
        Recorder {
            sink: None,
            buffer: None,
        }
    }

    /// A recorder backed by a fresh per-bank ring buffer.
    pub fn buffered(banks: usize, config: &TraceConfig) -> Recorder {
        let buffer = Arc::new(TraceBuffer::new(banks, config));
        Recorder {
            sink: Some(buffer.clone()),
            buffer: Some(buffer),
        }
    }

    /// A recorder draining into an arbitrary sink (no snapshot support).
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Recorder {
        Recorder {
            sink: Some(sink),
            buffer: None,
        }
    }

    /// Is any sink attached?
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The ring buffer behind this recorder, when built with
    /// [`Recorder::buffered`].
    pub fn buffer(&self) -> Option<&Arc<TraceBuffer>> {
        self.buffer.as_ref()
    }

    /// Record a raw event (`seq` is assigned by the sink).
    pub fn record(&self, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(ev);
        }
    }

    /// Record a begin/end pair for a span covering `range_ns`, with
    /// per-phase payloads and no correlation id.
    pub fn span(
        &self,
        kind: OpKind,
        bank: u32,
        block: u32,
        range_ns: (u64, u64),
        payloads: (u64, u64),
    ) {
        self.span_ctx(kind, bank, block, range_ns, payloads, NO_CTX);
    }

    /// Record a begin/end pair carrying the request's correlation id
    /// (both phases carry the same `ctx`).
    pub fn span_ctx(
        &self,
        kind: OpKind,
        bank: u32,
        block: u32,
        range_ns: (u64, u64),
        payloads: (u64, u64),
        ctx: u64,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                seq: 0,
                t_ns: range_ns.0,
                bank,
                block,
                kind,
                phase: Phase::Begin,
                ctx,
                payload: payloads.0,
            });
            sink.record(TraceEvent {
                seq: 0,
                t_ns: range_ns.1,
                bank,
                block,
                kind,
                phase: Phase::End,
                ctx,
                payload: payloads.1,
            });
        }
    }

    /// Record a point event with no correlation id.
    pub fn instant(&self, kind: OpKind, bank: u32, block: u32, t_ns: u64, payload: u64) {
        self.instant_ctx(kind, bank, block, t_ns, payload, NO_CTX);
    }

    /// Record a point event carrying the request's correlation id.
    pub fn instant_ctx(
        &self,
        kind: OpKind,
        bank: u32,
        block: u32,
        t_ns: u64,
        payload: u64,
        ctx: u64,
    ) {
        if let Some(sink) = &self.sink {
            sink.record(TraceEvent {
                seq: 0,
                t_ns,
                bank,
                block,
                kind,
                phase: Phase::Instant,
                ctx,
                payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        assert!(rec.buffer().is_none());
        rec.instant(OpKind::Read, 0, 0, 1, 0);
        rec.span(OpKind::Write, 0, 0, (0, 10), (1, 2));
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Recorder::default().is_enabled());
    }

    #[test]
    fn buffered_recorder_shares_one_buffer_across_clones() {
        let rec = Recorder::buffered(2, &TraceConfig::new(16));
        let clone = rec.clone();
        rec.instant(OpKind::Read, 0, 3, 100, 0);
        clone.span(OpKind::Write, 1, 4, (200, 300), (1, 0));
        let snap = rec.buffer().map(|b| b.snapshot());
        let snap = snap.as_ref();
        assert_eq!(snap.map(|s| s.per_bank[0].events.len()), Some(1));
        assert_eq!(snap.map(|s| s.per_bank[1].events.len()), Some(2));
        let span = snap.map(|s| &s.per_bank[1].events);
        assert_eq!(span.map(|e| e[0].phase), Some(Phase::Begin));
        assert_eq!(span.map(|e| e[1].phase), Some(Phase::End));
        assert_eq!(span.map(|e| e[1].t_ns), Some(300));
    }

    #[test]
    fn null_sink_recorder_is_enabled_but_bufferless() {
        let rec = Recorder::with_sink(Arc::new(NullSink));
        assert!(rec.is_enabled());
        assert!(rec.buffer().is_none());
        rec.instant(OpKind::Failure, 0, 0, 5, 1);
    }
}
