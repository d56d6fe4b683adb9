//! The sampling engine: [`TelemetryRecorder`] claims integer sample
//! ticks as model time advances and turns cumulative counters into
//! ring-buffered [`SamplePoint`] series plus a per-bank risk state.
//!
//! # Determinism contract
//!
//! Sample `k` (1-based) is due at exactly `k * sample_interval_ns` —
//! an integer product, never an accumulated float, mirroring
//! `ScrubScheduler`'s integer-tick discipline. `sample_up_to` claims
//! every due tick at or before `now_ns` under one mutex; all ticks
//! claimed in a single call observe the same cumulative counters, so
//! the first claimed tick absorbs the whole delta and later ones see
//! zero (with the EWMA decaying across them). Series are therefore a
//! pure function of the sequence of `(now_ns, counters)` observations:
//! any two runs that advance the clock at the same quiesced points
//! with the same counter values — an inline device run, the same ops
//! at any thread count — produce byte-identical series.

use crate::config::TelemetryConfig;
use crate::export::{BankSeriesSnapshot, TelemetrySnapshot};
use crate::risk::{transition_payload, DriftRisk};
use crate::series::{quantile_floor_permille, BankCounters, RingSeries, SamplePoint};
use pcm_trace::{OpKind, Recorder, NO_BLOCK};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-bank evolving state.
#[derive(Debug)]
struct BankState {
    /// Counters at the previous sample (all-zero before the first).
    prev: BankCounters,
    /// The drift-risk estimator.
    risk: DriftRisk,
    /// The retained series.
    series: RingSeries,
}

/// Everything the sampler mutates, under one lock.
#[derive(Debug)]
struct SeriesState {
    /// Next sample index to claim (1-based).
    next_tick: u64,
    banks: Vec<BankState>,
}

/// Acquire the telemetry series lock (lock class `telemetry`, the
/// innermost class in the declared order — never acquired while any
/// other telemetry guard is held, and safe to take under a bank guard).
/// A poisoned mutex yields the guard anyway: sampler state is plain
/// data, valid after any panic unwound through it.
fn lock_series(state: &Mutex<SeriesState>) -> MutexGuard<'_, SeriesState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The telemetry sampling engine. Shared via `Arc` by whatever engine
/// drives the model clock; see the module docs for the determinism
/// contract.
#[derive(Debug)]
pub struct TelemetryRecorder {
    config: TelemetryConfig,
    state: Mutex<SeriesState>,
}

impl TelemetryRecorder {
    /// A recorder for `banks` banks, first sample due at one interval.
    pub fn new(banks: usize, config: TelemetryConfig) -> Self {
        let capacity = config.ring_capacity();
        Self {
            config,
            state: Mutex::new(SeriesState {
                next_tick: 1,
                banks: (0..banks)
                    .map(|_| BankState {
                        prev: BankCounters::default(),
                        risk: DriftRisk::new(),
                        series: RingSeries::new(capacity),
                    })
                    .collect(),
            }),
        }
    }

    /// The configuration this recorder samples under.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        lock_series(&self.state).banks.len()
    }

    /// Is at least one sample due at or before `now_ns`? Callers use
    /// this as a cheap gate so cumulative counters are only gathered
    /// when a tick will actually be claimed.
    pub fn due_before(&self, now_ns: u64) -> bool {
        let state = lock_series(&self.state);
        state.next_tick.saturating_mul(self.config.interval_ns()) <= now_ns
    }

    /// Claim every sample tick due at or before `now_ns`, folding the
    /// supplied cumulative `counters` (one entry per bank) into the
    /// series and the risk estimators. Risk-state changes emit an
    /// [`OpKind::RiskTransition`] instant on `tracer` stamped at the
    /// sample deadline.
    pub fn sample_up_to(&self, now_ns: u64, counters: &[BankCounters], tracer: &Recorder) {
        let interval = self.config.interval_ns();
        let mut state = lock_series(&self.state);
        while state.next_tick.saturating_mul(interval) <= now_ns {
            let tick = state.next_tick;
            let t_ns = tick.saturating_mul(interval);
            for (bank, bs) in state.banks.iter_mut().enumerate() {
                let Some(cur) = counters.get(bank) else {
                    continue;
                };
                let delta = cur.delta_since(&bs.prev);
                let transition = bs.risk.observe(delta.corrected_symbols, &self.config.risk);
                let permille = bs.risk.permille(&self.config.risk);
                if let Some((from, to)) = transition {
                    tracer.instant(
                        OpKind::RiskTransition,
                        bank as u32,
                        NO_BLOCK,
                        t_ns,
                        transition_payload(permille, from, to),
                    );
                }
                bs.series.push(SamplePoint {
                    tick,
                    t_ns,
                    reads: delta.reads,
                    writes: delta.writes,
                    scrubs: delta.scrubs,
                    corrected_symbols: delta.corrected_symbols,
                    corrections: delta.corrections,
                    uncorrectables: delta.uncorrectables,
                    remaps: delta.remaps,
                    busy_ns: delta.busy_ns,
                    p50_ns: quantile_floor_permille(&cur.latency_buckets, 500),
                    p99_ns: quantile_floor_permille(&cur.latency_buckets, 990),
                    ewma_permille: permille,
                    risk: bs.risk.state(),
                });
                bs.prev = cur.clone();
            }
            state.next_tick = tick + 1;
        }
    }

    /// Point-in-time copy of every bank's series and risk state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let state = lock_series(&self.state);
        TelemetrySnapshot {
            sample_interval_ns: self.config.interval_ns(),
            capacity: self.config.ring_capacity(),
            per_bank: state
                .banks
                .iter()
                .enumerate()
                .map(|(bank, bs)| BankSeriesSnapshot {
                    bank: bank as u32,
                    dropped: bs.series.dropped(),
                    ewma_permille: bs.risk.permille(&self.config.risk),
                    risk: bs.risk.state(),
                    points: bs.series.to_vec(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftRiskConfig;
    use crate::risk::{decode_transition, RiskState};
    use pcm_trace::TraceConfig;

    fn counters(reads: u64, corrected: u64) -> BankCounters {
        BankCounters {
            reads,
            corrected_symbols: corrected,
            corrections: corrected.min(1),
            ..Default::default()
        }
    }

    #[test]
    fn ticks_are_claimed_on_integer_deadlines() {
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(100));
        let tracer = Recorder::disabled();
        assert!(!rec.due_before(99));
        assert!(rec.due_before(100));
        rec.sample_up_to(99, &[counters(5, 0)], &tracer);
        assert_eq!(rec.snapshot().per_bank[0].points.len(), 0);
        rec.sample_up_to(250, &[counters(5, 0)], &tracer);
        let points = rec.snapshot().per_bank[0].points.clone();
        assert_eq!(points.len(), 2);
        assert_eq!((points[0].tick, points[0].t_ns), (1, 100));
        assert_eq!((points[1].tick, points[1].t_ns), (2, 200));
        // The first claimed tick absorbed the whole delta.
        assert_eq!(points[0].reads, 5);
        assert_eq!(points[1].reads, 0);
        // Re-polling the same instant claims nothing new.
        rec.sample_up_to(250, &[counters(5, 0)], &tracer);
        assert_eq!(rec.snapshot().per_bank[0].points.len(), 2);
    }

    #[test]
    fn deltas_attribute_between_consecutive_samples() {
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(10));
        let tracer = Recorder::disabled();
        rec.sample_up_to(10, &[counters(3, 0)], &tracer);
        rec.sample_up_to(20, &[counters(10, 0)], &tracer);
        let points = rec.snapshot().per_bank[0].points.clone();
        assert_eq!(points[0].reads, 3);
        assert_eq!(points[1].reads, 7);
    }

    #[test]
    fn risk_transitions_emit_trace_instants() {
        let config = TelemetryConfig::new(10).with_risk(DriftRiskConfig {
            budget_per_interval: 4,
            ewma_shift: 1,
            elevated_permille: 400,
            critical_permille: 900,
        });
        let rec = TelemetryRecorder::new(2, config);
        let tracer = Recorder::buffered(2, &TraceConfig::new(64));
        // Bank 0 takes sustained corrections; bank 1 stays quiet.
        let mut cum = 0;
        for step in 1..=6u64 {
            cum += 4;
            rec.sample_up_to(
                step * 10,
                &[counters(step, cum), counters(step, 0)],
                &tracer,
            );
        }
        let snap = rec.snapshot();
        assert_eq!(snap.per_bank[0].risk, RiskState::Critical);
        assert_eq!(snap.per_bank[1].risk, RiskState::Healthy);
        let trace = tracer.buffer().map(|b| b.snapshot());
        let events = trace
            .map(|s| s.per_bank[0].events.clone())
            .unwrap_or_default();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![OpKind::RiskTransition, OpKind::RiskTransition],
            "one instant per state change"
        );
        let (_, from, to) = decode_transition(events[0].payload).expect("payload");
        assert_eq!((from, to), (RiskState::Healthy, RiskState::Elevated));
        let (_, from, to) = decode_transition(events[1].payload).expect("payload");
        assert_eq!((from, to), (RiskState::Elevated, RiskState::Critical));
        // Stamped at the sample deadline, block = NO_BLOCK.
        assert_eq!(events[0].t_ns % 10, 0);
        assert_eq!(events[0].block, NO_BLOCK);
    }

    #[test]
    fn snapshot_reports_ring_drops() {
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(1).with_capacity(4));
        let tracer = Recorder::disabled();
        rec.sample_up_to(10, &[counters(1, 0)], &tracer);
        let bank = &rec.snapshot().per_bank[0];
        assert_eq!(bank.points.len(), 4);
        assert_eq!(bank.dropped, 6);
        assert_eq!(bank.points.last().map(|p| p.tick), Some(10));
    }

    #[test]
    fn missing_counter_entries_are_skipped() {
        let rec = TelemetryRecorder::new(2, TelemetryConfig::new(10));
        rec.sample_up_to(10, &[counters(1, 0)], &Recorder::disabled());
        let snap = rec.snapshot();
        assert_eq!(snap.per_bank[0].points.len(), 1);
        assert_eq!(snap.per_bank[1].points.len(), 0, "no counters, no sample");
    }
}
