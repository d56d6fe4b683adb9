//! The `obs-report` analysis: digest a [`TelemetrySnapshot`] into
//! per-bank tables, sparklines of demand ops and corrected symbols per
//! interval, and scrub/demand interference windows.
//!
//! All analysis lives here (not in xtask) so library users and the
//! `telemetry_explorer` example get exactly the same numbers as the
//! CLI — the same split `trace-report` uses.

use crate::export::TelemetrySnapshot;
use pcm_trace::json::{self, DecodeError};

/// Eight-level sparkline alphabet, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Map a series of values onto the sparkline alphabet with an integer scale
/// (rounded to nearest level; an all-zero or empty series renders as
/// all-low).
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            let ix = (v.saturating_mul(7))
                .saturating_add(max / 2)
                .checked_div(max)
                .map_or(0, |q| q.min(7) as usize);
            SPARKS[ix]
        })
        .collect()
}

/// Digest of one bank's series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankReport {
    /// Bank id.
    pub bank: u32,
    /// Points retained in the ring.
    pub samples: usize,
    /// Points lost to ring wrap.
    pub dropped: u64,
    /// Reads summed over retained points.
    pub reads: u64,
    /// Writes summed over retained points.
    pub writes: u64,
    /// Scrubs summed over retained points.
    pub scrubs: u64,
    /// Corrected symbols summed over retained points.
    pub corrected_symbols: u64,
    /// Failures summed over retained points.
    pub uncorrectables: u64,
    /// Peak per-interval utilization, permille.
    pub peak_utilization_permille: u64,
    /// Sparkline of demand ops (reads + writes) per interval.
    pub ops_spark: String,
    /// Sparkline of corrected symbols per interval.
    pub corrected_spark: String,
}

/// Scrub/demand interference over the retained series.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interference {
    /// Intervals (bank × tick) where scrub and demand ops coincided.
    pub windows: u64,
    /// Intervals with any demand activity.
    pub demand_intervals: u64,
    /// Intervals with any scrub activity.
    pub scrub_intervals: u64,
    /// Bank with the most interference windows, if any occurred.
    pub worst_bank: Option<u32>,
    /// That bank's window count.
    pub worst_windows: u64,
}

/// The full analyzer output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReport {
    /// Banks in the snapshot.
    pub banks: usize,
    /// Sample cadence, model ns.
    pub interval_ns: u64,
    /// Ring capacity per bank.
    pub capacity: usize,
    /// Per-bank digests, bank order.
    pub per_bank: Vec<BankReport>,
    /// Scrub/demand interference summary.
    pub interference: Interference,
}

/// Analyze a snapshot.
pub fn analyze(snap: &TelemetrySnapshot) -> ObsReport {
    let mut per_bank = Vec::with_capacity(snap.per_bank.len());
    let mut interference = Interference::default();
    for b in &snap.per_bank {
        let ops: Vec<u64> = b.points.iter().map(|p| p.reads + p.writes).collect();
        let corrected: Vec<u64> = b.points.iter().map(|p| p.corrected_symbols).collect();
        let mut windows = 0u64;
        for p in &b.points {
            let demand = p.reads + p.writes > 0;
            if demand {
                interference.demand_intervals += 1;
            }
            if p.scrubs > 0 {
                interference.scrub_intervals += 1;
                if demand {
                    windows += 1;
                }
            }
        }
        interference.windows += windows;
        if windows > interference.worst_windows {
            interference.worst_windows = windows;
            interference.worst_bank = Some(b.bank);
        }
        per_bank.push(BankReport {
            bank: b.bank,
            samples: b.points.len(),
            dropped: b.dropped,
            reads: b.points.iter().map(|p| p.reads).sum(),
            writes: b.points.iter().map(|p| p.writes).sum(),
            scrubs: b.points.iter().map(|p| p.scrubs).sum(),
            corrected_symbols: corrected.iter().sum(),
            uncorrectables: b.points.iter().map(|p| p.uncorrectables).sum(),
            peak_utilization_permille: b
                .points
                .iter()
                .map(|p| p.utilization_permille(snap.sample_interval_ns))
                .max()
                .unwrap_or(0),
            ops_spark: sparkline(&ops),
            corrected_spark: sparkline(&corrected),
        });
    }
    ObsReport {
        banks: snap.per_bank.len(),
        interval_ns: snap.sample_interval_ns,
        capacity: snap.capacity,
        per_bank,
        interference,
    }
}

impl ObsReport {
    /// Render the report as human-readable tables.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "obs-report: {} banks, {} ns/sample, ring capacity {}\n\n",
            self.banks, self.interval_ns, self.capacity
        ));
        out.push_str("bank  samples  reads  writes  scrubs  corrected  uncorr  util‰\n");
        for b in &self.per_bank {
            out.push_str(&format!(
                "{:>4}  {:>7}  {:>5}  {:>6}  {:>6}  {:>9}  {:>6}  {:>5}\n",
                b.bank,
                b.samples,
                b.reads,
                b.writes,
                b.scrubs,
                b.corrected_symbols,
                b.uncorrectables,
                b.peak_utilization_permille
            ));
        }
        out.push_str("\nper-bank activity (ops | corrected symbols per interval):\n");
        for b in &self.per_bank {
            out.push_str(&format!(
                "  bank {:>3}  ops {} | ecc {}{}\n",
                b.bank,
                b.ops_spark,
                b.corrected_spark,
                if b.dropped > 0 {
                    format!("  ({} samples dropped)", b.dropped)
                } else {
                    String::new()
                }
            ));
        }
        let i = &self.interference;
        out.push_str(&format!(
            "\ninterference: {} scrub∧demand interval(s) \
             ({} demand, {} scrub intervals overall)",
            i.windows, i.demand_intervals, i.scrub_intervals
        ));
        match i.worst_bank {
            Some(bank) => out.push_str(&format!(
                "; worst: bank {} with {}\n",
                bank, i.worst_windows
            )),
            None => out.push('\n'),
        }
        out
    }

    /// The report as one stable-field-order JSON object (one line).
    pub fn to_json(&self) -> String {
        let i = &self.interference;
        json::object(|o| {
            o.num("banks", self.banks)
                .num("interval_ns", self.interval_ns)
                .num("capacity", self.capacity)
                .objects("per_bank", &self.per_bank, |o, b| {
                    o.num("bank", b.bank)
                        .num("samples", b.samples)
                        .num("dropped", b.dropped)
                        .num("reads", b.reads)
                        .num("writes", b.writes)
                        .num("scrubs", b.scrubs)
                        .num("corrected_symbols", b.corrected_symbols)
                        .num("uncorrectables", b.uncorrectables)
                        .num("peak_utilization_permille", b.peak_utilization_permille);
                })
                .object("interference", |o| {
                    o.num("windows", i.windows)
                        .num("demand_intervals", i.demand_intervals)
                        .num("scrub_intervals", i.scrub_intervals)
                        .num(
                            "worst_bank",
                            i.worst_bank
                                .map_or_else(|| "null".to_string(), |b| b.to_string()),
                        )
                        .num("worst_windows", i.worst_windows);
                });
        })
    }
}

/// Parse a telemetry JSONL document and analyze it in one step — the
/// `obs-report` CLI entry point.
pub fn analyze_str(doc: &str) -> Result<ObsReport, DecodeError> {
    Ok(analyze(&crate::export::parse(doc)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::BankSeriesSnapshot;
    use crate::series::SamplePoint;

    fn snap() -> TelemetrySnapshot {
        let p = |tick: u64, reads: u64, scrubs: u64, corrected: u64| SamplePoint {
            tick,
            t_ns: tick * 1000,
            reads,
            scrubs,
            corrected_symbols: corrected,
            busy_ns: reads * 200 + scrubs * 1200,
            ..Default::default()
        };
        TelemetrySnapshot {
            sample_interval_ns: 1000,
            capacity: 16,
            per_bank: vec![
                BankSeriesSnapshot {
                    bank: 0,
                    dropped: 0,
                    points: vec![p(1, 4, 0, 2), p(2, 3, 1, 6), p(3, 0, 2, 7)],
                },
                BankSeriesSnapshot {
                    bank: 1,
                    dropped: 1,
                    points: vec![p(1, 1, 0, 0), p(2, 0, 0, 0)],
                },
            ],
        }
    }

    #[test]
    fn sparkline_scales_to_eight_levels() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[0, 7]), "▁█");
        let s = sparkline(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(s.chars().count(), 8);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn analyze_digests_banks_and_interference() {
        let report = analyze(&snap());
        assert_eq!(report.banks, 2);
        let b0 = &report.per_bank[0];
        assert_eq!(b0.reads, 7);
        assert_eq!(b0.scrubs, 3);
        assert_eq!(b0.corrected_symbols, 15);
        assert_eq!(b0.corrected_spark.chars().count(), 3);
        // Interference: bank 0 tick 2 has both scrub and demand.
        assert_eq!(report.interference.windows, 1);
        assert_eq!(report.interference.worst_bank, Some(0));
        assert_eq!(report.interference.scrub_intervals, 2);
    }

    #[test]
    fn text_and_json_render_stably() {
        let report = analyze(&snap());
        let text = report.render_text();
        assert!(text.contains("obs-report: 2 banks"));
        assert!(text.contains("corrected symbols per interval"));
        assert!(text.contains("bank 0"));
        assert!(text.contains("(1 samples dropped)"));
        assert_eq!(text, report.render_text());
        let json = report.to_json();
        assert!(json.starts_with("{\"banks\":2,\"interval_ns\":1000,"));
        assert!(json.contains("\"per_bank\":[{\"bank\":0,"));
        assert!(json.contains("\"worst_bank\":0"));
        assert!(json.ends_with('}'));
        assert_eq!(json, report.to_json());
    }

    #[test]
    fn analyze_str_parses_then_analyzes() {
        let doc = snap().to_jsonl();
        let report = analyze_str(&doc).expect("parse");
        assert_eq!(report.banks, 2);
        assert!(analyze_str("garbage\n").is_err());
    }
}
