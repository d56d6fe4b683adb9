//! Adapter between the metrics registry and `pcm-telemetry`, plus the
//! polling helper the device engine calls from `advance_time`.
//!
//! Sampling only at quiesced `advance_time` calls keeps the series
//! thread-count invariant: every run observes the same counters (the
//! `DeviceMetrics` registry) at the same model instants, so the
//! telemetry series they produce are the same series.

use crate::metrics::DeviceMetrics;
use pcm_telemetry::{BankCounters, TelemetryRecorder};
use pcm_trace::{secs_to_ns, Recorder};
use std::sync::Arc;

/// Snapshot every bank's counters in `pcm-telemetry`'s vocabulary (one
/// [`BankCounters`] per bank, bank order). This is the same adaptation
/// `sample_up_to` consumes; it is public so embedders that drive a
/// [`TelemetryRecorder`] by hand (e.g. the performance simulator) can
/// reuse it.
pub fn telemetry_counters(metrics: &DeviceMetrics) -> Vec<BankCounters> {
    (0..metrics.banks())
        .map(|bank| {
            let s = metrics.bank(bank).snapshot();
            BankCounters {
                reads: s.reads,
                writes: s.writes,
                scrubs: s.scrubs,
                corrected_symbols: s.corrected_symbols,
                corrections: s.corrections,
                uncorrectables: s.uncorrectables,
                remaps: s.remaps,
                busy_ns: s.busy_ns,
                latency_buckets: s.latency_buckets,
            }
        })
        .collect()
}

/// Poll the telemetry recorder after the model clock moved to
/// `now_secs`. Gated on `due_before` so the counter gather only happens
/// when at least one sample tick will actually be claimed.
pub(crate) fn poll_telemetry(
    telemetry: Option<&Arc<TelemetryRecorder>>,
    now_secs: f64,
    metrics: &DeviceMetrics,
    tracer: &Recorder,
) {
    let Some(tel) = telemetry else {
        return;
    };
    let now_ns = secs_to_ns(now_secs);
    if tel.due_before(now_ns) {
        let counters = telemetry_counters(metrics);
        tel.sample_up_to(now_ns, &counters, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{READ_BUSY_NS, WRITE_BUSY_NS};
    use pcm_telemetry::TelemetryConfig;

    #[test]
    fn counters_mirror_the_registry() {
        let m = DeviceMetrics::new(2);
        m.bank(0).record_write(1, WRITE_BUSY_NS);
        m.bank(1).record_read(5, READ_BUSY_NS);
        m.bank(1).record_failure();
        let c = telemetry_counters(&m);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].writes, 1);
        assert_eq!(c[0].remaps, 1);
        assert_eq!(c[0].busy_ns, WRITE_BUSY_NS);
        assert_eq!(c[1].reads, 1);
        assert_eq!(c[1].corrected_symbols, 5);
        assert_eq!(c[1].corrections, 1);
        assert_eq!(c[1].uncorrectables, 1);
        let hist: u64 = c[1].latency_buckets.iter().sum();
        assert_eq!(hist, 1);
    }

    #[test]
    fn poll_claims_due_ticks_only() {
        let m = DeviceMetrics::new(1);
        let tel = Arc::new(TelemetryRecorder::new(1, TelemetryConfig::new(1_000)));
        let tracer = Recorder::disabled();
        m.bank(0).record_read(0, READ_BUSY_NS);
        // 500 ns: nothing due yet.
        poll_telemetry(Some(&tel), 5e-7, &m, &tracer);
        assert_eq!(tel.snapshot().per_bank[0].points.len(), 0);
        // 2.5 µs: ticks 1 and 2 claimed.
        poll_telemetry(Some(&tel), 2.5e-6, &m, &tracer);
        let points = tel.snapshot().per_bank[0].points.clone();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].reads, 1);
        // Disabled telemetry is a no-op.
        poll_telemetry(None, 1.0, &m, &tracer);
    }
}
