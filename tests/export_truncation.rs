//! Every JSONL reader rejects a document cut inside a line.
//!
//! Trace, telemetry and profile exports are read back by the reports,
//! and a capture cut short (a full disk, a killed run) must fail to
//! parse rather than yield a shorter number: a trace cut inside
//! `"payload":12345` must not read as payload 123. Each export below is
//! parsed at every byte prefix; none may panic, a prefix that ends
//! inside a line must be an error, and the whole document must
//! round-trip.

use mlc_pcm::sim::profile;
use mlc_pcm::telemetry::{self, BankCounters, TelemetryConfig, TelemetryRecorder};
use mlc_pcm::trace::{
    jsonl, pack_ctx, CtxClass, OpKind, Recorder, TraceConfig, TraceEvent, CTX_INDEX_FLAG,
};

/// Parse every prefix of `doc`; return the parse of the whole.
fn parse_every_prefix<T, E>(doc: &str, parse: impl Fn(&str) -> Result<T, E>) -> T {
    for end in 0..doc.len() {
        if !doc.is_char_boundary(end) {
            continue;
        }
        let (head, tail) = doc.split_at(end);
        let got = parse(head);
        let inside_line = !head.is_empty() && !head.ends_with('\n') && !tail.starts_with('\n');
        assert!(
            !inside_line || got.is_err(),
            "a document cut after {end} bytes parsed: …{:?}",
            &head[head.len().saturating_sub(40)..]
        );
    }
    match parse(doc) {
        Ok(whole) => whole,
        Err(_) => panic!("the whole document does not parse"),
    }
}

fn trace_recorder() -> Recorder {
    let rec = Recorder::buffered(2, &TraceConfig::new(64));
    let kv = pack_ctx(CtxClass::Kv, 3, 0);
    rec.span_ctx(
        OpKind::Read,
        0,
        1,
        (1000, 1200),
        (0, 0),
        kv | CTX_INDEX_FLAG,
    );
    rec.span_ctx(OpKind::Read, 0, 9, (1200, 1400), (0, 3), kv);
    rec.span_ctx(OpKind::EccDecode, 0, 9, (1352, 1400), (3, 3), kv);
    rec.span_ctx(OpKind::KvGet, 0, 1, (1000, 1400), (12345, 2), kv);
    let demand = pack_ctx(CtxClass::Demand, 1, 0);
    rec.span_ctx(OpKind::Write, 1, 5, (2000, 3000), (1, 0), demand);
    rec
}

#[test]
fn a_trace_cut_inside_a_line_is_an_error() {
    let snap = trace_recorder().buffer().unwrap().snapshot();
    let doc = jsonl::export(&snap);
    assert!(doc.contains("\"payload\":12345"), "{doc}");
    let parsed = parse_every_prefix(&doc, jsonl::parse);
    let events: Vec<TraceEvent> = snap.canonical_per_bank().into_iter().flatten().collect();
    assert_eq!(parsed.events, events);
}

#[test]
fn a_profile_cut_inside_a_line_is_an_error() {
    let trace = jsonl::export(&trace_recorder().buffer().unwrap().snapshot());
    let doc = profile::build(&trace).unwrap().to_jsonl();
    assert_eq!(parse_every_prefix(&doc, profile::parse).to_jsonl(), doc);
}

#[test]
fn a_telemetry_series_cut_inside_a_line_is_an_error() {
    let rec = TelemetryRecorder::new(2, TelemetryConfig::new(1000).with_capacity(4));
    let mut counters = vec![BankCounters::default(); 2];
    for step in 1..=3u64 {
        counters[0].reads += 4;
        counters[0].busy_ns += 800;
        counters[1].scrubs += 1;
        counters[1].corrected_symbols += step * 30;
        rec.sample_up_to(step * 1000, &counters, &Recorder::disabled());
    }
    let doc = rec.snapshot().to_jsonl();
    assert_eq!(parse_every_prefix(&doc, telemetry::parse).to_jsonl(), doc);
}
