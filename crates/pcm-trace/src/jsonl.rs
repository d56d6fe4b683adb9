//! JSONL export/import: one record per line, stable field order.
//!
//! The export is the interchange format between a traced run and the
//! `xtask trace-report` analyzer, and doubles as the determinism
//! fixture: a fixed-seed run must produce a byte-identical export
//! across invocations, so every line is emitted in canonical per-bank
//! `(t_ns, seq)` order with a fixed field order and no floating-point
//! formatting anywhere.
//!
//! Line vocabulary (`type` field):
//! - `meta` — bank count and ring capacity
//! - `bank` — per-bank totals: events ever recorded, events dropped
//! - `event` — one [`TraceEvent`]

use crate::buffer::TraceSnapshot;
use crate::event::{OpKind, Phase, TraceEvent};

/// Render a snapshot as JSONL (trailing newline included).
pub fn export(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"banks\":{},\"capacity\":{}}}\n",
        snap.per_bank.len(),
        snap.capacity
    ));
    for lane in &snap.per_bank {
        out.push_str(&format!(
            "{{\"type\":\"bank\",\"bank\":{},\"recorded\":{},\"dropped\":{}}}\n",
            lane.bank, lane.recorded, lane.dropped
        ));
    }
    for lane_events in snap.canonical_per_bank() {
        for ev in lane_events {
            out.push_str(&format!(
                "{{\"type\":\"event\",\"bank\":{},\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\
                 \"phase\":\"{}\",\"block\":{},\"ctx\":{},\"payload\":{}}}\n",
                ev.bank,
                ev.seq,
                ev.t_ns,
                ev.kind.name(),
                ev.phase.name(),
                ev.block,
                ev.ctx,
                ev.payload
            ));
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

/// A malformed trace line.
///
/// Named `TraceDecodeError` (not `TraceParseError`) because `pcm-sim`
/// already exports a `TraceParseError` for workload trace files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDecodeError {
    /// 1-based line number.
    pub line: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for TraceDecodeError {}

/// A [`TraceDecodeError`] at 1-based `line`; shared by every JSONL
/// parser in the workspace (trace, profile).
pub fn fail(line: usize, what: &'static str) -> TraceDecodeError {
    TraceDecodeError { line, what }
}

/// Extract an unquoted integer field (`"key":123`) from one JSONL line;
/// `None` if the key is absent or its value is not a `u64`.
pub fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    rest.get(..digits)?.parse().ok()
}

/// Extract a quoted string field (`"key":"value"`) from one JSONL
/// line; values never contain escapes in this format.
pub fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    rest.find('"').and_then(|end| rest.get(..end))
}

/// Parse a JSONL export back into structured form.
pub fn parse(text: &str) -> Result<ParsedTrace, TraceDecodeError> {
    let mut meta: Option<(usize, usize)> = None;
    let mut lanes = Vec::new();
    let mut events = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        match str_field(line, "type").ok_or(fail(lineno, "missing \"type\" field"))? {
            "meta" => {
                let banks = u64_field(line, "banks").ok_or(fail(lineno, "meta missing banks"))?;
                let capacity =
                    u64_field(line, "capacity").ok_or(fail(lineno, "meta missing capacity"))?;
                meta = Some((banks as usize, capacity as usize));
            }
            "bank" => lanes.push(LaneSummary {
                bank: u64_field(line, "bank").ok_or(fail(lineno, "bank line missing bank"))?
                    as usize,
                recorded: u64_field(line, "recorded")
                    .ok_or(fail(lineno, "bank line missing recorded"))?,
                dropped: u64_field(line, "dropped")
                    .ok_or(fail(lineno, "bank line missing dropped"))?,
            }),
            "event" => {
                let kind = str_field(line, "kind")
                    .and_then(OpKind::from_name)
                    .ok_or(fail(lineno, "unknown op kind"))?;
                let phase = str_field(line, "phase")
                    .and_then(Phase::from_name)
                    .ok_or(fail(lineno, "unknown phase"))?;
                events.push(TraceEvent {
                    seq: u64_field(line, "seq").ok_or(fail(lineno, "event missing seq"))?,
                    t_ns: u64_field(line, "t_ns").ok_or(fail(lineno, "event missing t_ns"))?,
                    bank: u64_field(line, "bank").ok_or(fail(lineno, "event missing bank"))? as u32,
                    block: u64_field(line, "block").ok_or(fail(lineno, "event missing block"))?
                        as u32,
                    kind,
                    phase,
                    ctx: u64_field(line, "ctx").ok_or(fail(lineno, "event missing ctx"))?,
                    payload: u64_field(line, "payload")
                        .ok_or(fail(lineno, "event missing payload"))?,
                });
            }
            _ => return Err(fail(lineno, "unknown record type")),
        }
    }
    let (banks, capacity) = meta.ok_or(fail(1, "no meta line"))?;
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
    fn risk_transition_round_trips() {
        // The telemetry layer's Healthy→Elevated→Critical instants ride
        // the same stream; their kind name and packed payload must
        // survive export → parse exactly.
        let buf = TraceBuffer::new(1, &TraceConfig::new(4));
        let ev = TraceEvent {
            seq: 0,
            t_ns: 2_000,
            bank: 0,
            block: 0,
            kind: OpKind::RiskTransition,
            phase: Phase::Instant,
            ctx: 0,
            payload: (640 << 8) | 1,
        };
        buf.record(ev);
        let text = export(&buf.snapshot());
        assert!(text.contains("\"kind\":\"risk_transition\""), "{text}");
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.events, vec![ev]);
    }

    #[test]
    fn event_lines_carry_ctx() {
        let text = export(&sample_buffer().snapshot());
        assert!(text.contains("\"ctx\":77"), "{text}");
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed.events.iter().filter(|e| e.ctx == 77).count(), 2);
    }
}
