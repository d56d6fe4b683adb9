//! Deterministic model-time telemetry for the mlc-pcm stack.
//!
//! `pcm-device`'s metrics registry answers *how much* and `pcm-trace`
//! answers *when*, one event at a time — but the paper's drift argument
//! (§5–6) and ROADMAP item 4 (adaptive drift-aware scrub) need the
//! middle scale: counter *rates* over model time, per bank, cheap
//! enough to keep always-on and deterministic enough to gate CI on.
//! This crate is that layer:
//!
//! - [`TelemetryConfig`] / [`DriftRiskConfig`] — integer sampling
//!   cadence, ring capacity, and correction-budget thresholds.
//! - [`BankCounters`] — the cumulative per-bank counters the recorder
//!   samples (pcm-device's `BankMetrics::snapshot` returns them).
//! - [`TelemetryRecorder`] — claims integer sample ticks as the model
//!   clock advances (`k * sample_interval_ns`, mirroring
//!   `ScrubScheduler`'s integer-tick discipline) and turns counter
//!   deltas into ring-buffered [`SamplePoint`] series.
//! - [`DriftRisk`] / [`RiskState`] — a fixed-point integer EWMA of
//!   corrected symbols per interval, classified Healthy → Elevated →
//!   Critical against a configurable budget; transitions emit
//!   `OpKind::RiskTransition` instants into the shared trace stream.
//! - [`TelemetrySnapshot`] — JSONL and Prometheus-style exporters plus
//!   a strict parser, and the [`report`] module behind
//!   `cargo run -p xtask -- obs-report`.
//!
//! # Determinism contract
//!
//! Everything is integer arithmetic on monotone counters: no wall
//! clock, no floats in any tick computation, no iteration-order
//! dependence. Series are a pure function of the `(now_ns, counters)`
//! observation sequence, so an inline device run and runs at any
//! thread count — which advance the clock at the same quiesced points
//! with identical counters — export byte-identical
//! JSONL (`tests/telemetry_determinism.rs` gates exactly this). The
//! crate is covered by `pcm-lint`'s `no-ambient-nondeterminism`,
//! `no-float-tick`, `atomic-ordering`, and `lock-order` rules; its
//! single mutex is the innermost `telemetry` lock class.

#![warn(missing_docs)]

mod config;
pub mod export;
mod recorder;
pub mod report;
mod risk;
mod series;

pub use config::{DriftRiskConfig, TelemetryConfig, EWMA_SCALE};
pub use export::{parse, BankSeriesSnapshot, TelemetryDecodeError, TelemetrySnapshot};
pub use recorder::TelemetryRecorder;
pub use risk::{decode_transition, transition_payload, DriftRisk, RiskState};
pub use series::{bucket_floor, quantile_floor_permille, BankCounters, RingSeries, SamplePoint};

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::Recorder;

    #[test]
    fn end_to_end_sample_export_parse_analyze() {
        let config = TelemetryConfig::new(1000).with_capacity(32);
        let rec = TelemetryRecorder::new(2, config);
        let tracer = Recorder::disabled();
        let mut c0 = BankCounters::default();
        let mut c1 = BankCounters::default();
        for step in 1..=20u64 {
            c0.reads += 3;
            c0.busy_ns += 600;
            c0.corrected_symbols += step / 5;
            c1.writes += 1;
            c1.busy_ns += 1000;
            rec.sample_up_to(step * 1000, &[c0.clone(), c1.clone()], &tracer);
        }
        let snap = rec.snapshot();
        let doc = snap.to_jsonl();
        let parsed = parse(&doc).expect("round trip");
        assert_eq!(parsed, snap);
        let report = report::analyze(&parsed, 5);
        assert_eq!(report.banks, 2);
        assert_eq!(report.per_bank[0].reads, 60);
        assert_eq!(report.per_bank[1].writes, 20);
        assert!(!snap.to_prometheus().is_empty());
    }
}
