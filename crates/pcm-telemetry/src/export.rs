//! Snapshot types and exporters: byte-stable JSONL (the `obs-report`
//! input and the determinism oracle's comparand) and its parser, both
//! through `pcm_trace::json`, and a Prometheus-style text rendering.
//!
//! The JSONL schema is line-oriented with a fixed field order:
//!
//! ```text
//! {"telemetry":1,"banks":B,"interval_ns":I,"capacity":C}
//! {"bank":0,"dropped":D,"points":K}
//! {"bank":0,"tick":1,"t_ns":…,"reads":…,…,"p99_ns":…}   × K
//! …one summary + K point lines per bank, in bank order…
//! ```
//!
//! Export is a pure function of the snapshot, so byte-identical
//! snapshots produce byte-identical documents — which is exactly what
//! `tests/telemetry_determinism.rs` compares across engines and thread
//! counts.

use crate::series::SamplePoint;
use pcm_trace::json::{self, DecodeError, Line};

/// One bank's retained series and its ring-wrap loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSeriesSnapshot {
    /// Bank id.
    pub bank: u32,
    /// Samples lost to ring wrap.
    pub dropped: u64,
    /// Retained points, oldest first.
    pub points: Vec<SamplePoint>,
}

/// A point-in-time copy of the whole telemetry layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Model nanoseconds between samples.
    pub sample_interval_ns: u64,
    /// Ring capacity per bank.
    pub capacity: usize,
    /// Per-bank series, indexed by bank id.
    pub per_bank: Vec<BankSeriesSnapshot>,
}

impl TelemetrySnapshot {
    /// The snapshot as JSONL (see module docs for the schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        json::line(&mut out, |o| {
            o.num("telemetry", 1)
                .num("banks", self.per_bank.len())
                .num("interval_ns", self.sample_interval_ns)
                .num("capacity", self.capacity);
        });
        for bank in &self.per_bank {
            json::line(&mut out, |o| {
                o.num("bank", bank.bank)
                    .num("dropped", bank.dropped)
                    .num("points", bank.points.len());
            });
            for p in &bank.points {
                json::line(&mut out, |o| {
                    o.num("bank", bank.bank)
                        .num("tick", p.tick)
                        .num("t_ns", p.t_ns)
                        .num("reads", p.reads)
                        .num("writes", p.writes)
                        .num("scrubs", p.scrubs)
                        .num("corrected_symbols", p.corrected_symbols)
                        .num("corrections", p.corrections)
                        .num("uncorrectables", p.uncorrectables)
                        .num("remaps", p.remaps)
                        .num("busy_ns", p.busy_ns)
                        .num("p50_ns", p.p50_ns)
                        .num("p99_ns", p.p99_ns);
                });
            }
        }
        out
    }

    /// Prometheus-style text exposition of the latest state: one sample
    /// per bank per metric, stamped from each bank's most recent point.
    /// Point-in-time metrics are typed `gauge`; monotonic ones are
    /// typed `counter` and carry the conventional `_total` suffix.
    /// Deterministic: fixed metric order, banks ascending.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
        };
        let counter = |out: &mut String, name: &str, help: &str| {
            debug_assert!(name.ends_with("_total"), "counters use the _total suffix");
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        };
        gauge(
            &mut out,
            "pcm_bank_reads_per_interval",
            "Reads in the most recent sample interval",
        );
        for b in &self.per_bank {
            let v = b.points.last().map_or(0, |p| p.reads);
            out.push_str(&format!(
                "pcm_bank_reads_per_interval{{bank=\"{}\"}} {v}\n",
                b.bank
            ));
        }
        gauge(
            &mut out,
            "pcm_bank_writes_per_interval",
            "Writes in the most recent sample interval",
        );
        for b in &self.per_bank {
            let v = b.points.last().map_or(0, |p| p.writes);
            out.push_str(&format!(
                "pcm_bank_writes_per_interval{{bank=\"{}\"}} {v}\n",
                b.bank
            ));
        }
        gauge(
            &mut out,
            "pcm_bank_scrubs_per_interval",
            "Scrubs in the most recent sample interval",
        );
        for b in &self.per_bank {
            let v = b.points.last().map_or(0, |p| p.scrubs);
            out.push_str(&format!(
                "pcm_bank_scrubs_per_interval{{bank=\"{}\"}} {v}\n",
                b.bank
            ));
        }
        gauge(
            &mut out,
            "pcm_bank_utilization_permille",
            "Busy time in the most recent interval, permille",
        );
        for b in &self.per_bank {
            let v = b
                .points
                .last()
                .map_or(0, |p| p.utilization_permille(self.sample_interval_ns));
            out.push_str(&format!(
                "pcm_bank_utilization_permille{{bank=\"{}\"}} {v}\n",
                b.bank
            ));
        }
        gauge(
            &mut out,
            "pcm_bank_p99_latency_ns",
            "p99 modeled op latency floor, ns",
        );
        for b in &self.per_bank {
            let v = b.points.last().map_or(0, |p| p.p99_ns);
            out.push_str(&format!(
                "pcm_bank_p99_latency_ns{{bank=\"{}\"}} {v}\n",
                b.bank
            ));
        }
        counter(
            &mut out,
            "pcm_bank_samples_dropped_total",
            "Samples lost to ring wrap",
        );
        for b in &self.per_bank {
            out.push_str(&format!(
                "pcm_bank_samples_dropped_total{{bank=\"{}\"}} {}\n",
                b.bank, b.dropped
            ));
        }
        out
    }
}

/// Parse a document produced by [`TelemetrySnapshot::to_jsonl`].
pub fn parse(text: &str) -> Result<TelemetrySnapshot, DecodeError> {
    let mut lines = json::lines(text);
    let mut last_line = 0;
    let mut next = |what: &str| -> Result<Line, DecodeError> {
        let line = lines.next().unwrap_or_else(|| {
            Err(DecodeError {
                line: last_line + 1,
                reason: format!("missing {what}"),
            })
        })?;
        last_line = line.number;
        Ok(line)
    };
    let header = next("header line")?;
    let version = header.u64("telemetry")?;
    if version != 1 {
        return Err(header.error(format!("unsupported telemetry version {version}")));
    }
    let banks = header.u64("banks")?;
    let mut snap = TelemetrySnapshot {
        sample_interval_ns: header.u64("interval_ns")?,
        capacity: header.u64("capacity")? as usize,
        per_bank: Vec::new(),
    };
    for want_bank in 0..banks {
        let summary = next("summary line")?;
        let bank = summary.u32("bank")?;
        if u64::from(bank) != want_bank {
            return Err(summary.error(format!("expected bank {want_bank}, got {bank}")));
        }
        let mut series = BankSeriesSnapshot {
            bank,
            dropped: summary.u64("dropped")?,
            points: Vec::new(),
        };
        for _ in 0..summary.u64("points")? {
            let p = next("point line")?;
            let point_bank = p.u64("bank")?;
            if point_bank != u64::from(bank) {
                return Err(p.error(format!("point bank {point_bank} ≠ {bank}")));
            }
            series.points.push(SamplePoint {
                tick: p.u64("tick")?,
                t_ns: p.u64("t_ns")?,
                reads: p.u64("reads")?,
                writes: p.u64("writes")?,
                scrubs: p.u64("scrubs")?,
                corrected_symbols: p.u64("corrected_symbols")?,
                corrections: p.u64("corrections")?,
                uncorrectables: p.u64("uncorrectables")?,
                remaps: p.u64("remaps")?,
                busy_ns: p.u64("busy_ns")?,
                p50_ns: p.u64("p50_ns")?,
                p99_ns: p.u64("p99_ns")?,
            });
        }
        snap.per_bank.push(series);
    }
    if let Some(extra) = lines.next() {
        return Err(DecodeError {
            line: extra.map_or_else(|e| e.line, |l| l.number),
            reason: "trailing content after last bank".to_string(),
        });
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            sample_interval_ns: 1000,
            capacity: 8,
            per_bank: vec![
                BankSeriesSnapshot {
                    bank: 0,
                    dropped: 2,
                    points: vec![
                        SamplePoint {
                            tick: 3,
                            t_ns: 3000,
                            reads: 7,
                            writes: 1,
                            corrected_symbols: 4,
                            corrections: 2,
                            busy_ns: 2200,
                            p50_ns: 128,
                            p99_ns: 1024,
                            ..Default::default()
                        },
                        SamplePoint {
                            tick: 4,
                            t_ns: 4000,
                            scrubs: 2,
                            ..Default::default()
                        },
                    ],
                },
                BankSeriesSnapshot {
                    bank: 1,
                    dropped: 0,
                    points: vec![],
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let snap = sample_snapshot();
        let doc = snap.to_jsonl();
        assert!(
            doc.starts_with("{\"telemetry\":1,\"banks\":2,\"interval_ns\":1000,\"capacity\":8}\n")
        );
        assert!(doc.ends_with('\n'));
        assert_eq!(
            doc.lines().count(),
            1 + 2 + 2,
            "header + summaries + points"
        );
        let parsed = parse(&doc).expect("round trip");
        assert_eq!(parsed, snap);
        // Byte-stable: re-export of the parse equals the original.
        assert_eq!(parsed.to_jsonl(), doc);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("").is_err());
        assert!(parse("{\"telemetry\":2,\"banks\":0,\"interval_ns\":1,\"capacity\":1}\n").is_err());
        assert!(parse("{\"telemetry\":1,\"banks\":1,\"interval_ns\":1,\"capacity\":1}\n").is_err());
        let doc = sample_snapshot().to_jsonl();
        let truncated: String = doc.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(parse(&truncated).is_err(), "missing point lines");
        let garbled = doc.replace("\"scrubs\":2", "\"scrubs\":\"two\"");
        assert!(parse(&garbled).is_err());
    }

    #[test]
    fn parse_errors_are_typed_and_never_panic() {
        let doc = sample_snapshot().to_jsonl();

        // A line truncated mid-number: typed error naming the line, not
        // a panic from a slicing or parse unwrap.
        let cut = doc.find("\"reads\":").expect("sample has a point line") + "\"reads\":".len() + 1;
        let err = parse(&doc[..cut]).expect_err("truncated mid-line");
        assert_eq!(err.line, 3, "first point line of bank 0");
        assert!(err.reason.contains("unterminated") || err.reason.contains("bad integer"));

        // Wrong header: the document must open with `"telemetry":1`.
        let wrong_header = doc.replacen("{\"telemetry\":1,", "{\"telemetrie\":1,", 1);
        let err = parse(&wrong_header).expect_err("wrong header key");
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("telemetry"), "{}", err.reason);

        // Non-numeric field value: typed error quoting the bad token.
        let non_numeric = doc.replacen("\"interval_ns\":1000", "\"interval_ns\":fast", 1);
        let err = parse(&non_numeric).expect_err("non-numeric field");
        assert_eq!(err.line, 1);
        assert!(
            err.reason.contains("interval_ns") && err.reason.contains("fast"),
            "{}",
            err.reason
        );

        // Display carries the line number for report tooling.
        assert!(err.to_string().starts_with("line 1: "));

        // Every byte prefix of this and the trace and profile exports
        // is parsed in `tests/export_truncation.rs`.
    }

    #[test]
    fn prometheus_text_is_deterministic_and_labelled() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE pcm_bank_p99_latency_ns gauge"));
        assert!(text.contains("pcm_bank_p99_latency_ns{bank=\"1\"} 0"));
        // Monotonic metrics are counters with the `_total` suffix, never
        // gauges — Prometheus rate() needs the counter contract.
        assert!(text.contains("# TYPE pcm_bank_samples_dropped_total counter"));
        assert!(!text.contains("# TYPE pcm_bank_samples_dropped_total gauge"));
        assert!(text.contains("pcm_bank_samples_dropped_total{bank=\"0\"} 2"));
        // Latest-point gauges come from bank 0's tick-4 point.
        assert!(text.contains("pcm_bank_scrubs_per_interval{bank=\"0\"} 2"));
        assert!(text.contains("pcm_bank_reads_per_interval{bank=\"0\"} 0"));
        assert_eq!(text, snap.to_prometheus());
    }
}
