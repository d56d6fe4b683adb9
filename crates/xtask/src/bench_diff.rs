//! The `bench-diff` subcommand: compare two bench JSON documents
//! (e.g. `BENCH_store.json` from the base branch vs. this one) and
//! fail on a throughput regression.
//!
//! Both documents are flattened to `path → number` leaves
//! (`runs[1].kops_per_model_sec`, `ops.hits`, …) and every path present
//! in both is compared. A leaf is a **throughput** metric — where lower
//! is a regression — when its terminal key contains `kops` or ends in
//! `_per_sec`; such a leaf dropping more than [`TOLERANCE_PCT`] percent
//! fails the diff. Everything else (latencies, op counts, configs) is
//! reported for context but never gates: model-time latency percentiles
//! legitimately wobble with thread scheduling (see the
//! `store_throughput` bench docs), and op-total equality is already
//! CI-gated byte-for-byte elsewhere.

use pcm_trace::json::{self, Value};
use std::fmt;

/// Default allowed throughput drop, percent. One part in ten is far
/// outside the wobble the multi-threaded runs show (placement order
/// shifts wear-dependent write costs by a few percent at most).
/// Override per-invocation with `--max-drop-pct`.
pub const TOLERANCE_PCT: f64 = 10.0;

/// A rejected `--max-drop-pct` value.
#[derive(Debug, Clone, PartialEq)]
pub enum ToleranceError {
    /// The flag value did not parse as a number.
    NotANumber(String),
    /// The flag value parsed but is not a usable percentage
    /// (negative, NaN, infinite, or ≥ 100).
    OutOfRange(f64),
}

impl fmt::Display for ToleranceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToleranceError::NotANumber(raw) => {
                write!(f, "--max-drop-pct: `{raw}` is not a number")
            }
            ToleranceError::OutOfRange(v) => write!(
                f,
                "--max-drop-pct: {v} is out of range (want 0 <= pct < 100)"
            ),
        }
    }
}

/// Validate a `--max-drop-pct` flag value: a finite percentage in
/// `[0, 100)`. 0 means "any drop fails"; 100 would gate nothing.
pub fn parse_tolerance(raw: &str) -> Result<f64, ToleranceError> {
    let v: f64 = raw
        .parse()
        .map_err(|_| ToleranceError::NotANumber(raw.to_string()))?;
    if !v.is_finite() || !(0.0..100.0).contains(&v) {
        return Err(ToleranceError::OutOfRange(v));
    }
    Ok(v)
}

/// One compared numeric leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Flattened JSON path (`runs[0].kops_per_model_sec`).
    pub path: String,
    /// Value in the old document.
    pub old: f64,
    /// Value in the new document.
    pub new: f64,
    /// True when this leaf gates (throughput-named, lower is worse).
    pub gated: bool,
    /// True when this leaf regressed beyond tolerance.
    pub regressed: bool,
}

/// Outcome of one document comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// Every numeric leaf present in both documents, in path order.
    pub metrics: Vec<MetricDelta>,
    /// Paths present in exactly one document (shape drift — reported,
    /// not fatal, so adding a metric never breaks the gate).
    pub unmatched: Vec<String>,
    /// The tolerance this diff was gated at, percent.
    pub tolerance_pct: f64,
}

impl BenchDiff {
    /// Gated leaves that regressed beyond tolerance.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.metrics.iter().filter(|m| m.regressed).collect()
    }

    /// Render the comparison as a table plus a verdict line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "metric                                        old          new      delta%\n",
        );
        for m in &self.metrics {
            let delta = if m.old == 0.0 {
                0.0
            } else {
                (m.new - m.old) / m.old * 100.0
            };
            out.push_str(&format!(
                "{:<42} {:>12.3} {:>12.3} {:>+10.2}{}\n",
                m.path,
                m.old,
                m.new,
                delta,
                if m.regressed {
                    "  REGRESSION"
                } else if m.gated {
                    "  (gated)"
                } else {
                    ""
                }
            ));
        }
        for p in &self.unmatched {
            out.push_str(&format!("{p:<42}  (only in one document)\n"));
        }
        let bad = self.regressions();
        if bad.is_empty() {
            out.push_str(&format!(
                "bench-diff: OK — no gated metric dropped more than {}%\n",
                self.tolerance_pct
            ));
        } else {
            out.push_str(&format!(
                "bench-diff: FAIL — {} gated metric(s) regressed more than {}%\n",
                bad.len(),
                self.tolerance_pct
            ));
        }
        out
    }
}

/// True when `path`'s terminal key names a throughput metric.
fn is_throughput(path: &str) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    leaf.contains("kops") || leaf.ends_with("_per_sec")
}

/// Flatten every numeric leaf of `v` into `out` as `(path, value)`.
fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Obj(m) => {
            for (k, child) in m {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, child, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), child, out);
            }
        }
        _ => {
            if let Some(n) = v.as_f64() {
                out.push((prefix.to_string(), n));
            }
        }
    }
}

/// Compare two bench documents at the default [`TOLERANCE_PCT`].
/// Parse failures are errors; shape differences are not (they land in
/// `unmatched`).
pub fn diff_docs(old_doc: &str, new_doc: &str) -> Result<BenchDiff, String> {
    diff_docs_with(old_doc, new_doc, TOLERANCE_PCT)
}

/// [`diff_docs`] at an explicit tolerance (the `--max-drop-pct` path).
pub fn diff_docs_with(
    old_doc: &str,
    new_doc: &str,
    tolerance_pct: f64,
) -> Result<BenchDiff, String> {
    let old = json::parse(old_doc).map_err(|e| format!("old document: {e}"))?;
    let new = json::parse(new_doc).map_err(|e| format!("new document: {e}"))?;
    let mut old_leaves = Vec::new();
    let mut new_leaves = Vec::new();
    flatten("", &old, &mut old_leaves);
    flatten("", &new, &mut new_leaves);
    let new_map: std::collections::BTreeMap<&str, f64> =
        new_leaves.iter().map(|(p, v)| (p.as_str(), *v)).collect();
    let old_paths: std::collections::BTreeSet<&str> =
        old_leaves.iter().map(|(p, _)| p.as_str()).collect();
    let mut metrics = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for (path, old_val) in &old_leaves {
        match new_map.get(path.as_str()) {
            Some(&new_val) => {
                let gated = is_throughput(path);
                let regressed = gated && new_val < old_val * (1.0 - tolerance_pct / 100.0);
                metrics.push(MetricDelta {
                    path: path.clone(),
                    old: *old_val,
                    new: new_val,
                    gated,
                    regressed,
                });
            }
            None => unmatched.push(path.clone()),
        }
    }
    for (path, _) in &new_leaves {
        if !old_paths.contains(path.as_str()) {
            unmatched.push(path.clone());
        }
    }
    Ok(BenchDiff {
        metrics,
        unmatched,
        tolerance_pct,
    })
}

/// File-reading front end for `main`, at the default tolerance.
pub fn diff_files(old_path: &str, new_path: &str) -> Result<BenchDiff, String> {
    diff_files_with(old_path, new_path, TOLERANCE_PCT)
}

/// [`diff_files`] at an explicit tolerance (the `--max-drop-pct` path).
pub fn diff_files_with(
    old_path: &str,
    new_path: &str,
    tolerance_pct: f64,
) -> Result<BenchDiff, String> {
    let old =
        std::fs::read_to_string(old_path).map_err(|e| format!("cannot read {old_path}: {e}"))?;
    let new =
        std::fs::read_to_string(new_path).map_err(|e| format!("cannot read {new_path}: {e}"))?;
    diff_docs_with(&old, &new, tolerance_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(kops: &str, p99: u64) -> String {
        format!(
            "{{\"bench\":\"store_throughput\",\"ops\":{{\"hits\":100}},\
             \"runs\":[{{\"threads\":1,\"p99_ns\":{p99},\"kops_per_model_sec\":{kops}}}]}}"
        )
    }

    #[test]
    fn within_tolerance_passes() {
        let d = diff_docs(&doc("100.0", 1200), &doc("95.0", 2000)).unwrap();
        assert!(d.regressions().is_empty(), "{d:?}");
        // Latency doubled but p99 is not a gated metric.
        let p99 = d
            .metrics
            .iter()
            .find(|m| m.path.ends_with("p99_ns"))
            .unwrap();
        assert!(!p99.gated);
        assert!(d.render_text().contains("bench-diff: OK"));
    }

    #[test]
    fn throughput_drop_beyond_tolerance_fails() {
        let d = diff_docs(&doc("100.0", 1200), &doc("89.9", 1200)).unwrap();
        let bad = d.regressions();
        assert_eq!(bad.len(), 1, "{d:?}");
        assert!(bad[0].path.ends_with("kops_per_model_sec"));
        assert!(d.render_text().contains("bench-diff: FAIL"));
        // Improvements never gate.
        let up = diff_docs(&doc("100.0", 1200), &doc("250.0", 1200)).unwrap();
        assert!(up.regressions().is_empty());
    }

    #[test]
    fn shape_drift_is_reported_not_fatal() {
        let old = "{\"runs\":[{\"kops_per_model_sec\":10.0}]}";
        let new =
            "{\"runs\":[{\"kops_per_model_sec\":10.0,\"extra\":1}],\"telemetry\":{\"banks\":8}}";
        let d = diff_docs(old, new).unwrap();
        assert!(d.regressions().is_empty());
        assert_eq!(d.unmatched.len(), 2, "{:?}", d.unmatched);
    }

    #[test]
    fn parse_failures_are_errors() {
        assert!(diff_docs("not json", "{}").is_err());
        assert!(diff_files("/nonexistent/a.json", "/nonexistent/b.json").is_err());
    }

    #[test]
    fn explicit_tolerance_moves_the_gate() {
        // A 5% drop passes at the default 10% but fails at 2%.
        let old = doc("100.0", 1200);
        let new = doc("95.0", 1200);
        assert!(diff_docs(&old, &new).unwrap().regressions().is_empty());
        let tight = diff_docs_with(&old, &new, 2.0).unwrap();
        assert_eq!(tight.regressions().len(), 1, "{tight:?}");
        assert!(tight.render_text().contains("more than 2%"), "verdict line");
        // Zero tolerance gates any drop at all.
        let zero = diff_docs_with(&old, &new, 0.0).unwrap();
        assert_eq!(zero.regressions().len(), 1);
    }

    #[test]
    fn tolerance_parsing_is_validated() {
        assert_eq!(parse_tolerance("10"), Ok(10.0));
        assert_eq!(parse_tolerance("2.5"), Ok(2.5));
        assert_eq!(parse_tolerance("0"), Ok(0.0));
        assert_eq!(
            parse_tolerance("fast"),
            Err(ToleranceError::NotANumber("fast".into()))
        );
        assert_eq!(parse_tolerance("-3"), Err(ToleranceError::OutOfRange(-3.0)));
        assert_eq!(
            parse_tolerance("100"),
            Err(ToleranceError::OutOfRange(100.0))
        );
        assert!(matches!(
            parse_tolerance("NaN"),
            Err(ToleranceError::OutOfRange(_))
        ));
        assert!(matches!(
            parse_tolerance("inf"),
            Err(ToleranceError::OutOfRange(_))
        ));
        let msg = parse_tolerance("fast").unwrap_err().to_string();
        assert!(msg.contains("not a number"), "{msg}");
    }
}
