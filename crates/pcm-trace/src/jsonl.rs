//! JSONL export/import: one record per line, stable field order.
//!
//! The export is the interchange format between a traced run and the
//! `xtask trace-report` analyzer, and doubles as the determinism
//! fixture: a fixed-seed run must produce a byte-identical export
//! across invocations, so every line is emitted in canonical per-bank
//! `(t_ns, seq)` order with a fixed field order and no floating-point
//! formatting anywhere. Both directions go through [`crate::json`].
//!
//! Line vocabulary (`type` field):
//! - `meta` — bank count and ring capacity
//! - `bank` — per-bank totals: events ever recorded, events dropped
//! - `event` — one [`TraceEvent`]

use crate::buffer::TraceSnapshot;
use crate::event::{OpKind, Phase, TraceEvent};
use crate::json::{self, DecodeError};

/// Render a snapshot as JSONL (trailing newline included).
pub fn export(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    json::line(&mut out, |o| {
        o.str("type", "meta")
            .num("banks", snap.per_bank.len())
            .num("capacity", snap.capacity);
    });
    for lane in &snap.per_bank {
        json::line(&mut out, |o| {
            o.str("type", "bank")
                .num("bank", lane.bank)
                .num("recorded", lane.recorded)
                .num("dropped", lane.dropped);
        });
    }
    for lane_events in snap.canonical_per_bank() {
        for ev in lane_events {
            json::line(&mut out, |o| {
                o.str("type", "event")
                    .num("bank", ev.bank)
                    .num("seq", ev.seq)
                    .num("t_ns", ev.t_ns)
                    .str("kind", ev.kind.name())
                    .str("phase", ev.phase.name())
                    .num("block", ev.block)
                    .num("ctx", ev.ctx)
                    .num("payload", ev.payload);
            });
        }
    }
    out
}

/// A parsed JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Bank count from the `meta` line.
    pub banks: usize,
    /// Ring capacity from the `meta` line.
    pub capacity: usize,
    /// Per-bank totals, in file order.
    pub lanes: Vec<LaneSummary>,
    /// Events, in file (canonical) order.
    pub events: Vec<TraceEvent>,
}

/// One `bank` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSummary {
    /// Bank index.
    pub bank: usize,
    /// Total events ever recorded into this bank.
    pub recorded: u64,
    /// Events overwritten before export.
    pub dropped: u64,
}

/// Parse a JSONL export back into structured form. The export writes
/// one `bank` line per bank, so a document with fewer is an error: that
/// also keeps a corrupt `banks` count from sizing what analyzers
/// allocate per bank.
pub fn parse(text: &str) -> Result<ParsedTrace, DecodeError> {
    let mut meta: Option<(usize, usize)> = None;
    let mut lanes = Vec::new();
    let mut events = Vec::new();
    let mut last_line = 0;
    for line in json::lines(text) {
        let line = line?;
        last_line = line.number;
        match line.str("type")? {
            "meta" => meta = Some((line.u64("banks")? as usize, line.u64("capacity")? as usize)),
            "bank" => lanes.push(LaneSummary {
                bank: line.u64("bank")? as usize,
                recorded: line.u64("recorded")?,
                dropped: line.u64("dropped")?,
            }),
            "event" => events.push(TraceEvent {
                seq: line.u64("seq")?,
                t_ns: line.u64("t_ns")?,
                bank: line.u32("bank")?,
                block: line.u32("block")?,
                kind: OpKind::from_name(line.str("kind")?)
                    .ok_or_else(|| line.error("unknown op kind"))?,
                phase: Phase::from_name(line.str("phase")?)
                    .ok_or_else(|| line.error("unknown phase"))?,
                ctx: line.u64("ctx")?,
                payload: line.u64("payload")?,
            }),
            _ => return Err(line.error("unknown record type")),
        }
    }
    let fail = |reason: String| DecodeError {
        line: last_line.max(1),
        reason,
    };
    let (banks, capacity) = meta.ok_or_else(|| fail("no meta line".to_string()))?;
    if lanes.len() != banks {
        return Err(fail(format!(
            "meta line names {banks} banks, found {} bank lines",
            lanes.len()
        )));
    }
    Ok(ParsedTrace {
        banks,
        capacity,
        lanes,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{TraceBuffer, TraceConfig};

    fn sample_buffer() -> TraceBuffer {
        let buf = TraceBuffer::new(2, &TraceConfig::new(8));
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 100,
            bank: 0,
            block: 3,
            kind: OpKind::Read,
            phase: Phase::Begin,
            ctx: 77,
            payload: 0,
        });
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 300,
            bank: 0,
            block: 3,
            kind: OpKind::Read,
            phase: Phase::End,
            ctx: 77,
            payload: 2,
        });
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 50,
            bank: 1,
            block: 5,
            kind: OpKind::Failure,
            phase: Phase::Instant,
            ctx: 0,
            payload: 1,
        });
        buf
    }

    #[test]
    fn export_parse_round_trips() {
        let snap = sample_buffer().snapshot();
        let text = export(&snap);
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.banks, 2);
        assert_eq!(parsed.capacity, 8);
        assert_eq!(parsed.lanes.len(), 2);
        assert_eq!(parsed.lanes[0].recorded, 2);
        assert_eq!(parsed.lanes[1].dropped, 0);
        let flat: Vec<TraceEvent> = snap.canonical_per_bank().into_iter().flatten().collect();
        assert_eq!(parsed.events, flat);
    }

    #[test]
    fn export_is_deterministic() {
        let a = export(&sample_buffer().snapshot());
        let b = export(&sample_buffer().snapshot());
        assert_eq!(a, b);
        assert!(a.starts_with("{\"type\":\"meta\",\"banks\":2,\"capacity\":8}\n"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert_eq!(parse("{\"no\":1}").err().map(|e| e.line), Some(1));
        assert!(parse("").is_err(), "missing meta line");
        let bad_kind = "{\"type\":\"meta\",\"banks\":1,\"capacity\":1}\n\
                        {\"type\":\"event\",\"bank\":0,\"seq\":0,\"t_ns\":0,\
                        \"kind\":\"bogus\",\"phase\":\"B\",\"block\":0,\"ctx\":0,\"payload\":0}\n";
        let err = parse(bad_kind).expect_err("bad kind");
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("unknown op kind"));
        let no_ctx = "{\"type\":\"meta\",\"banks\":1,\"capacity\":1}\n\
                      {\"type\":\"event\",\"bank\":0,\"seq\":0,\"t_ns\":0,\
                      \"kind\":\"read\",\"phase\":\"B\",\"block\":0,\"payload\":0}\n";
        let err = parse(no_ctx).expect_err("missing ctx");
        assert!(err.to_string().contains("missing ctx"));
    }

    #[test]
    fn event_lines_carry_ctx() {
        let text = export(&sample_buffer().snapshot());
        assert!(text.contains("\"ctx\":77"), "{text}");
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed.events.iter().filter(|e| e.ctx == 77).count(), 2);
    }
}
