//! The `profile-report` subcommand: read a ctx-carrying `pcm-trace`
//! JSONL file and print the [`pcm_sim::profile`] causal attribution —
//! per-request latency split into named buckets, the per-kind rollup,
//! and scrub-interference-by-bank.
//!
//! This module is a thin I/O wrapper — all analysis lives in
//! `pcm_sim::profile` so library users and the `store_throughput`
//! bench's `--profile-out` path get exactly the same numbers as the
//! CLI. It accepts either input format: a raw ctx-carrying trace
//! (attribution is built here) or an already-built profile JSONL as
//! written by `--profile-out` (distinguished by its `"profile":1`
//! meta line).

/// Parsed `profile-report` flags.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Emit the report as one JSON object instead of tables.
    pub json: bool,
    /// Rows in the slowest-requests table.
    pub top: usize,
    /// Emit collapsed-stack (flamegraph folded) lines instead of the
    /// report — pipe straight into `flamegraph.pl` / `inferno`.
    pub folded: bool,
}

/// Read `path` and render its attribution per `opts`. Errors are
/// returned as display-ready strings so `main` stays a thin exit-code
/// adapter.
pub fn report_file(path: &str, opts: &Options) -> Result<String, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    report_str(&doc, opts).map_err(|e| format!("{path}: {e}"))
}

/// [`report_file`] over an in-memory document (testable without I/O).
pub fn report_str(doc: &str, opts: &Options) -> Result<String, String> {
    let top = if opts.top == 0 { 10 } else { opts.top };
    // A profile JSONL declares itself on its meta line; anything else
    // is treated as a raw trace and attributed here.
    let already_built = pcm_trace::json::lines(doc)
        .next()
        .is_some_and(|l| l.is_ok_and(|l| l.value.get("profile").is_some()));
    let profile = if already_built {
        pcm_sim::profile::parse(doc)
    } else {
        pcm_sim::profile::build(doc)
    }
    .map_err(|e| e.to_string())?;
    Ok(if opts.folded {
        profile.to_folded()
    } else if opts.json {
        let mut s = profile.to_json();
        s.push('\n');
        s
    } else {
        profile.render_text(top)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        use pcm_trace::{jsonl, pack_ctx, CtxClass, OpKind, Recorder, TraceConfig, CTX_INDEX_FLAG};
        let rec = Recorder::buffered(2, &TraceConfig::new(64));
        let kv = pack_ctx(CtxClass::Kv, 1, 0);
        rec.span_ctx(
            OpKind::Read,
            0,
            1,
            (1000, 1200),
            (0, 0),
            kv | CTX_INDEX_FLAG,
        );
        rec.span_ctx(OpKind::Read, 0, 9, (1200, 1400), (0, 0), kv);
        rec.span_ctx(OpKind::KvGet, 0, 1, (1000, 1400), (7, 2), kv);
        let scrub = pack_ctx(CtxClass::Scrub, 1, 0);
        rec.span_ctx(OpKind::Refresh, 1, 7, (4000, 5200), (0, 0), scrub);
        rec.span_ctx(
            OpKind::ScrubPass,
            1,
            pcm_trace::NO_BLOCK,
            (4000, 5200),
            (1, 1),
            scrub,
        );
        jsonl::export(&rec.buffer().expect("buffered").snapshot())
    }

    #[test]
    fn text_report_renders_tables() {
        let out = report_str(&sample_doc(), &Options::default()).unwrap();
        assert!(out.contains("latency attribution by request kind"), "{out}");
        assert!(out.contains("kv_get"), "{out}");
    }

    #[test]
    fn json_report_has_fixed_shape() {
        let opts = Options {
            json: true,
            top: 5,
            folded: false,
        };
        let out = report_str(&sample_doc(), &opts).unwrap();
        assert!(out.starts_with("{\"banks\":2,"), "{out}");
        assert!(out.contains("\"kinds\":["), "{out}");
        assert!(out.contains("\"scrub_interference\":["), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // Byte-stable across invocations.
        assert_eq!(out, report_str(&sample_doc(), &opts).unwrap());
    }

    #[test]
    fn folded_output_is_collapsed_stacks() {
        let opts = Options {
            folded: true,
            ..Options::default()
        };
        let out = report_str(&sample_doc(), &opts).unwrap();
        assert!(out.contains("kv_get;alloc_index 200\n"), "{out}");
        assert!(out.contains("scrub_pass;media 1200\n"), "{out}");
        // Every line is `frames weight`.
        for line in out.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weight column");
            assert!(stack.contains(';'), "{line}");
            assert!(weight.parse::<u64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn accepts_an_already_built_profile_document() {
        let profile = pcm_sim::profile::build(&sample_doc()).unwrap();
        let from_trace = report_str(&sample_doc(), &Options::default()).unwrap();
        let from_profile = report_str(&profile.to_jsonl(), &Options::default()).unwrap();
        assert_eq!(from_trace, from_profile);
    }

    #[test]
    fn bad_input_is_an_error_string() {
        assert!(report_str("nope\n", &Options::default()).is_err());
        assert!(report_file("/nonexistent/trace.jsonl", &Options::default()).is_err());
    }
}
