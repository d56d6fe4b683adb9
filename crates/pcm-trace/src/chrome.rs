//! Chrome trace-event export (`chrome://tracing` / Perfetto).
//!
//! Banks map to "threads" of one "process": demand/refresh activity for
//! bank *b* lands on tid *b*, and bank-wide scrub-pass spans land on a
//! parallel lane tid `banks + b` so a pass renders as a bar above the
//! per-block activity it schedules. Spans become `B`/`E` pairs and
//! instants become `i` events, all stamped in model time (`ts` is
//! microseconds, emitted via integer math so the export never touches
//! float formatting).

use crate::buffer::TraceSnapshot;
use crate::event::{OpKind, Phase, TraceEvent};
use crate::json;

/// `t_ns` as a Chrome `ts` value: microseconds with exactly three
/// decimal places, via integer arithmetic only.
fn ts_us(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn tid(ev: &TraceEvent, banks: usize) -> u64 {
    match ev.kind {
        OpKind::ScrubPass => banks as u64 + ev.bank as u64,
        _ => ev.bank as u64,
    }
}

fn event_record(ev: &TraceEvent, banks: usize) -> String {
    json::object(|o| {
        o.str("name", ev.kind.name())
            .str("cat", "pcm")
            .str("ph", ev.phase.name());
        if ev.phase == Phase::Instant {
            o.str("s", "t");
        }
        o.num("ts", ts_us(ev.t_ns))
            .num("pid", 0)
            .num("tid", tid(ev, banks))
            .object("args", |a| {
                a.num("bank", ev.bank)
                    .num("block", ev.block)
                    .num("seq", ev.seq)
                    .num("ctx", ev.ctx)
                    .num("payload", ev.payload);
            });
    })
}

/// A metadata (`"ph":"M"`) record naming the process, or thread `tid`.
fn metadata_record(name: &str, tid: Option<usize>, label: &str) -> String {
    json::object(|o| {
        o.str("name", name).str("ph", "M").num("pid", 0);
        if let Some(tid) = tid {
            o.num("tid", tid);
        }
        o.object("args", |a| {
            a.str("name", label);
        });
    })
}

/// Render a snapshot as a Chrome trace-event JSON document.
pub fn export(snap: &TraceSnapshot) -> String {
    let banks = snap.per_bank.len();
    let mut records = vec![metadata_record("process_name", None, "pcm-device")];
    for b in 0..banks {
        records.push(metadata_record(
            "thread_name",
            Some(b),
            &format!("bank {b}"),
        ));
        records.push(metadata_record(
            "thread_name",
            Some(banks + b),
            &format!("bank {b} scrub schedule"),
        ));
    }
    for lane_events in snap.canonical_per_bank() {
        records.extend(lane_events.iter().map(|ev| event_record(ev, banks)));
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{TraceBuffer, TraceConfig};

    #[test]
    fn ts_is_integer_microsecond_math() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1_000), "1.000");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn export_places_scrub_passes_on_their_own_lane() {
        let buf = TraceBuffer::new(2, &TraceConfig::new(8));
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 1000,
            bank: 1,
            block: 4,
            kind: OpKind::Write,
            phase: Phase::Begin,
            ctx: 9,
            payload: 1,
        });
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 2000,
            bank: 1,
            block: crate::NO_BLOCK,
            kind: OpKind::ScrubPass,
            phase: Phase::Begin,
            ctx: 0,
            payload: 1,
        });
        let text = export(&buf.snapshot());
        assert!(text.contains("\"name\":\"write\",\"cat\":\"pcm\",\"ph\":\"B\""));
        // Write rides tid 1 (its bank); the pass rides tid 3 (banks +
        // bank).
        assert!(text.contains("\"ts\":1.000,\"pid\":0,\"tid\":1"));
        assert!(text.contains(
            "\"name\":\"scrub_pass\",\"cat\":\"pcm\",\"ph\":\"B\",\"ts\":2.000,\"pid\":0,\"tid\":3"
        ));
        assert!(text.contains("\"name\":\"bank 1 scrub schedule\""));
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("],\"displayTimeUnit\":\"ns\"}"));
    }

    #[test]
    fn instants_carry_a_scope() {
        let buf = TraceBuffer::new(1, &TraceConfig::new(4));
        buf.record(TraceEvent {
            seq: 0,
            t_ns: 5,
            bank: 0,
            block: 2,
            kind: OpKind::Failure,
            phase: Phase::Instant,
            ctx: 0,
            payload: 1,
        });
        let text = export(&buf.snapshot());
        assert!(text.contains("\"ph\":\"i\",\"s\":\"t\""));
    }
}
