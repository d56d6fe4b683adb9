//! The `obs-report` subcommand: read a `pcm-telemetry` JSONL export
//! and print the [`pcm_telemetry::report`] summary.
//!
//! This module is a thin I/O wrapper — all analysis lives in
//! `pcm_telemetry::report` so library users and the
//! `telemetry_explorer` example get exactly the same numbers as the
//! CLI.

/// Parsed `obs-report` flags.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Emit the report as one JSON object instead of tables.
    pub json: bool,
    /// Fail (nonzero exit) when any bank dropped samples to ring wrap
    /// — a dropped sample means the summaries undercount.
    pub strict: bool,
}

/// Read `path` and render its report per `opts`. Errors are returned as
/// display-ready strings so `main` stays a thin exit-code adapter.
pub fn report_file(path: &str, opts: &Options) -> Result<String, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    report_str(&doc, opts).map_err(|e| format!("{path}: {e}"))
}

/// [`report_file`] over an in-memory document (testable without I/O).
pub fn report_str(doc: &str, opts: &Options) -> Result<String, String> {
    let report = pcm_telemetry::report::analyze_str(doc).map_err(|e| e.to_string())?;
    let total_dropped: u64 = report.per_bank.iter().map(|b| b.dropped).sum();
    if opts.strict && total_dropped > 0 {
        return Err(format!(
            "strict: {total_dropped} sample(s) dropped to ring wrap — the summaries \
             undercount; re-record with a larger telemetry capacity"
        ));
    }
    Ok(if opts.json {
        let mut s = report.to_json();
        s.push('\n');
        s
    } else {
        report.render_text()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> String {
        use pcm_telemetry::{BankCounters, TelemetryConfig, TelemetryRecorder};
        let rec = TelemetryRecorder::new(2, TelemetryConfig::new(1000).with_capacity(16));
        let mut c0 = BankCounters::default();
        let mut c1 = BankCounters::default();
        for step in 1..=8u64 {
            c0.reads += 4;
            c0.busy_ns += 800;
            c1.scrubs += 1;
            c1.busy_ns += 1200;
            c1.corrected_symbols += step * 30;
            rec.sample_up_to(step * 1000, &[c0.clone(), c1.clone()]);
        }
        rec.snapshot().to_jsonl()
    }

    #[test]
    fn text_report_renders_tables() {
        let out = report_str(&sample_doc(), &Options::default()).unwrap();
        assert!(out.contains("2 banks"), "{out}");
        assert!(out.contains("interference:"), "{out}");
    }

    #[test]
    fn json_report_has_fixed_shape() {
        let opts = Options {
            json: true,
            strict: false,
        };
        let out = report_str(&sample_doc(), &opts).unwrap();
        assert!(out.starts_with("{\"banks\":2,"), "{out}");
        assert!(out.contains("\"per_bank\":["), "{out}");
        assert!(out.contains("\"interference\":{"), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        // Byte-stable across invocations.
        assert_eq!(out, report_str(&sample_doc(), &opts).unwrap());
    }

    #[test]
    fn bad_input_is_an_error_string() {
        assert!(report_str("nope\n", &Options::default()).is_err());
        assert!(report_file("/nonexistent/telemetry.jsonl", &Options::default()).is_err());
    }

    #[test]
    fn strict_fails_on_dropped_samples() {
        use pcm_telemetry::{BankCounters, TelemetryConfig, TelemetryRecorder};
        // A 2-point ring receiving 8 samples must drop 6 per bank.
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(1000).with_capacity(2));
        let mut c = BankCounters::default();
        for step in 1..=8u64 {
            c.reads += 1;
            c.busy_ns += 200;
            rec.sample_up_to(step * 1000, &[c.clone()]);
        }
        let doc = rec.snapshot().to_jsonl();
        let strict = Options {
            strict: true,
            ..Options::default()
        };
        // Lax mode still renders; strict mode refuses.
        assert!(report_str(&doc, &Options::default()).is_ok());
        let err = report_str(&doc, &strict).unwrap_err();
        assert!(err.contains("dropped"), "{err}");
        // A loss-free export passes strict.
        assert!(report_str(&sample_doc(), &strict).is_ok());
    }
}
