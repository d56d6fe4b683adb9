//! Every JSONL reader rejects a document cut inside a line.
//!
//! Trace, telemetry and profile exports are read back by the reports,
//! and a capture cut short (a full disk, a killed run) must fail to
//! parse rather than yield a shorter number: a trace cut inside
//! `"payload":12345` must not read as payload 123. Each export below is
//! parsed at every byte prefix; none may panic, a prefix that ends
//! inside a line must be an error, and the whole document must
//! round-trip.

use mlc_pcm::sim::{profile, trace_report};
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
        rec.sample_up_to(step * 1000, &counters);
    }
    let doc = rec.snapshot().to_jsonl();
    assert_eq!(parse_every_prefix(&doc, telemetry::parse).to_jsonl(), doc);
}

/// Parse every prefix of `doc` and the whole: each must be `Ok` or a
/// typed error naming a line within the document, never a panic.
fn reads_or_fails_typed<T>(
    doc: &str,
    parse: impl Fn(&str) -> Result<T, mlc_pcm::trace::DecodeError>,
) {
    let lines = doc.lines().count() + 1;
    for end in (0..=doc.len()).filter(|&e| doc.is_char_boundary(e)) {
        if let Err(e) = parse(&doc[..end]) {
            assert!((1..=lines).contains(&e.line), "{e} after {end} bytes");
        }
    }
}

#[test]
fn an_export_with_drift_risk_fields_reads_or_fails_typed() {
    // Exports written while the stack still had a drift-risk estimator
    // carry a `risk_transition` trace kind and `ewma_permille`/`risk`
    // telemetry fields. Reading one back must not panic.
    let trace = "{\"type\":\"meta\",\"banks\":1,\"capacity\":4}\n\
                 {\"type\":\"bank\",\"bank\":0,\"recorded\":2,\"dropped\":0}\n\
                 {\"type\":\"event\",\"bank\":0,\"seq\":0,\"t_ns\":1000,\"kind\":\"read\",\
                 \"phase\":\"i\",\"block\":3,\"ctx\":0,\"payload\":0}\n\
                 {\"type\":\"event\",\"bank\":0,\"seq\":1,\"t_ns\":2000,\
                 \"kind\":\"risk_transition\",\"phase\":\"i\",\"block\":4294967295,\
                 \"ctx\":0,\"payload\":41943041}\n";
    let err = jsonl::parse(trace).expect_err("the kind is gone");
    assert!(err.reason.contains("unknown op kind"), "{err}");
    reads_or_fails_typed(trace, jsonl::parse);
    reads_or_fails_typed(trace, trace_report::analyze);
    reads_or_fails_typed(trace, profile::build);

    let series = "{\"telemetry\":1,\"banks\":1,\"interval_ns\":1000,\"capacity\":4}\n\
                  {\"bank\":0,\"dropped\":0,\"ewma_permille\":640,\"risk\":\"elevated\",\"points\":1}\n\
                  {\"bank\":0,\"tick\":1,\"t_ns\":1000,\"reads\":4,\"writes\":0,\"scrubs\":0,\
                  \"corrected_symbols\":3,\"corrections\":1,\"uncorrectables\":0,\"remaps\":0,\
                  \"busy_ns\":800,\"p50_ns\":0,\"p99_ns\":0,\"ewma_permille\":640,\"risk\":\"elevated\"}\n";
    reads_or_fails_typed(series, telemetry::parse);
    reads_or_fails_typed(series, telemetry::report::analyze_str);
    // The extra fields are ignored: every counter still reads back.
    let snap = telemetry::parse(series).expect("the series fields are all present");
    assert_eq!(snap.per_bank[0].points[0].corrected_symbols, 3);
    assert_eq!(snap.per_bank[0].points[0].busy_ns, 800);
}
