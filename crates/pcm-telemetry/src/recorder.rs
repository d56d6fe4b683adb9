//! The sampling engine: [`TelemetryRecorder`] claims integer sample
//! ticks as model time advances and turns cumulative counters into
//! ring-buffered [`SamplePoint`] series.
//!
//! # Determinism contract
//!
//! Sample `k` (1-based) is due at exactly `k * sample_interval_ns` —
//! an integer product, never an accumulated float, mirroring
//! `ScrubScheduler`'s integer-tick discipline. `sample_up_to` claims
//! every due tick at or before `now_ns` under one mutex; all ticks
//! claimed in a single call observe the same cumulative counters, so
//! the first claimed tick absorbs the whole delta and later ones are
//! zero-delta points with the same latency floors. Series are therefore a
//! pure function of the sequence of `(now_ns, counters)` observations:
//! any two runs that advance the clock at the same quiesced points
//! with the same counter values — an inline device run, the same ops
//! at any thread count — produce byte-identical series.

use crate::config::TelemetryConfig;
use crate::export::{BankSeriesSnapshot, TelemetrySnapshot};
use crate::series::{quantile_floor_permille, BankCounters, RingSeries, SamplePoint};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-bank evolving state.
#[derive(Debug)]
struct BankState {
    /// Counters at the previous sample (all-zero before the first).
    prev: BankCounters,
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

/// The last tick due at or before `now_ns`. Capped one below
/// `u64::MAX` so `next_tick` never overflows: once the clock saturates,
/// nothing further comes due.
fn last_due(now_ns: u64, interval: u64) -> u64 {
    (now_ns / interval).min(u64::MAX - 1)
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
        last_due(now_ns, self.config.interval_ns()) >= state.next_tick
    }

    /// Claim every sample tick due at or before `now_ns`, folding the
    /// supplied cumulative `counters` (one entry per bank; banks past
    /// the end of the slice are not sampled) into the series.
    ///
    /// The first claimed tick takes the whole delta since the previous
    /// call and the rest are zero-delta points, so only the points each
    /// ring keeps are built: a call costs O(min(ticks, capacity)) per
    /// bank however far the clock jumped.
    pub fn sample_up_to(&self, now_ns: u64, counters: &[BankCounters]) {
        let interval = self.config.interval_ns();
        let mut state = lock_series(&self.state);
        let first = state.next_tick;
        let last = last_due(now_ns, interval);
        if last < first {
            return;
        }
        for (bs, cur) in state.banks.iter_mut().zip(counters) {
            let delta = cur.delta_since(&bs.prev);
            let p50_ns = quantile_floor_permille(&cur.latency_buckets, 500);
            let p99_ns = quantile_floor_permille(&cur.latency_buckets, 990);
            bs.series.extend_with(last - first + 1, |i| {
                let tick = first + i;
                let idle = SamplePoint {
                    tick,
                    t_ns: tick * interval,
                    p50_ns,
                    p99_ns,
                    ..SamplePoint::default()
                };
                if i > 0 {
                    return idle;
                }
                SamplePoint {
                    reads: delta.reads,
                    writes: delta.writes,
                    scrubs: delta.scrubs,
                    corrected_symbols: delta.corrected_symbols,
                    corrections: delta.corrections,
                    uncorrectables: delta.uncorrectables,
                    remaps: delta.remaps,
                    busy_ns: delta.busy_ns,
                    ..idle
                }
            });
            bs.prev = cur.clone();
        }
        state.next_tick = last + 1;
    }

    /// Point-in-time copy of every bank's series.
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
                    points: bs.series.to_vec(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!rec.due_before(99));
        assert!(rec.due_before(100));
        rec.sample_up_to(99, &[counters(5, 0)]);
        assert_eq!(rec.snapshot().per_bank[0].points.len(), 0);
        rec.sample_up_to(250, &[counters(5, 0)]);
        let points = rec.snapshot().per_bank[0].points.clone();
        assert_eq!(points.len(), 2);
        assert_eq!((points[0].tick, points[0].t_ns), (1, 100));
        assert_eq!((points[1].tick, points[1].t_ns), (2, 200));
        // The first claimed tick absorbed the whole delta.
        assert_eq!(points[0].reads, 5);
        assert_eq!(points[1].reads, 0);
        // Re-polling the same instant claims nothing new.
        rec.sample_up_to(250, &[counters(5, 0)]);
        assert_eq!(rec.snapshot().per_bank[0].points.len(), 2);
    }

    #[test]
    fn deltas_attribute_between_consecutive_samples() {
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(10));
        rec.sample_up_to(10, &[counters(3, 0)]);
        rec.sample_up_to(20, &[counters(10, 0)]);
        let points = rec.snapshot().per_bank[0].points.clone();
        assert_eq!(points[0].reads, 3);
        assert_eq!(points[1].reads, 7);
    }

    #[test]
    fn snapshot_reports_ring_drops() {
        let rec = TelemetryRecorder::new(1, TelemetryConfig::new(1).with_capacity(4));
        rec.sample_up_to(10, &[counters(1, 0)]);
        let bank = &rec.snapshot().per_bank[0];
        assert_eq!(bank.points.len(), 4);
        assert_eq!(bank.dropped, 6);
        assert_eq!(bank.points.last().map(|p| p.tick), Some(10));
    }

    #[test]
    fn missing_counter_entries_are_skipped() {
        let rec = TelemetryRecorder::new(2, TelemetryConfig::new(10));
        rec.sample_up_to(10, &[counters(1, 0)]);
        let snap = rec.snapshot();
        assert_eq!(snap.per_bank[0].points.len(), 1);
        assert_eq!(snap.per_bank[1].points.len(), 0, "no counters, no sample");
    }

    /// The per-tick loop `sample_up_to` replaces: one push per due tick,
    /// the first taking the whole delta.
    fn per_tick_reference(
        banks: usize,
        capacity: usize,
        calls: &[(u64, Vec<BankCounters>)],
    ) -> Vec<(u64, Vec<SamplePoint>)> {
        let interval = 10;
        let mut rings: Vec<RingSeries> = (0..banks).map(|_| RingSeries::new(capacity)).collect();
        let mut prev = vec![BankCounters::default(); banks];
        let mut next_tick = 1u64;
        for (now_ns, counters) in calls {
            while next_tick * interval <= *now_ns {
                for (bank, ring) in rings.iter_mut().enumerate() {
                    let Some(cur) = counters.get(bank) else {
                        continue;
                    };
                    let d = cur.delta_since(&prev[bank]);
                    ring.push(SamplePoint {
                        tick: next_tick,
                        t_ns: next_tick * interval,
                        reads: d.reads,
                        writes: d.writes,
                        scrubs: d.scrubs,
                        corrected_symbols: d.corrected_symbols,
                        corrections: d.corrections,
                        uncorrectables: d.uncorrectables,
                        remaps: d.remaps,
                        busy_ns: d.busy_ns,
                        p50_ns: quantile_floor_permille(&cur.latency_buckets, 500),
                        p99_ns: quantile_floor_permille(&cur.latency_buckets, 990),
                    });
                    prev[bank] = cur.clone();
                }
                next_tick += 1;
            }
        }
        rings.iter().map(|r| (r.dropped(), r.to_vec())).collect()
    }

    #[test]
    fn batched_claim_matches_the_per_tick_loop() {
        // Random (ticks per call, capacity) pairs from a fixed LCG, with
        // some calls passing fewer counters than there are banks.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for _ in 0..200 {
            let banks = 1 + next(3) as usize;
            let capacity = 1 + next(8) as usize;
            let mut now_ns = 0;
            let mut cum = vec![BankCounters::default(); banks];
            let mut calls = Vec::new();
            for _ in 0..1 + next(6) {
                now_ns += next(4) * 10 + next(10);
                for c in cum.iter_mut() {
                    c.reads += next(5);
                    c.corrected_symbols += next(3);
                    c.busy_ns += next(1000);
                    c.latency_buckets = (0..1 + next(12)).map(|_| next(4)).collect();
                }
                let given = banks - next(banks as u64 + 1) as usize;
                calls.push((now_ns, cum[..given].to_vec()));
            }
            let rec =
                TelemetryRecorder::new(banks, TelemetryConfig::new(10).with_capacity(capacity));
            for (now_ns, counters) in &calls {
                rec.sample_up_to(*now_ns, counters);
            }
            let got: Vec<(u64, Vec<SamplePoint>)> = rec
                .snapshot()
                .per_bank
                .into_iter()
                .map(|b| (b.dropped, b.points))
                .collect();
            assert_eq!(
                got,
                per_tick_reference(banks, capacity, &calls),
                "{calls:?}"
            );
        }
    }

    #[test]
    fn a_saturated_clock_terminates() {
        let rec = TelemetryRecorder::new(2, TelemetryConfig::new(1).with_capacity(3));
        rec.sample_up_to(u64::MAX, &[counters(4, 1), counters(2, 0)]);
        let bank = &rec.snapshot().per_bank[0];
        assert_eq!(bank.points.len(), 3);
        assert_eq!(bank.dropped, u64::MAX - 4);
        assert_eq!(bank.points.last().map(|p| p.tick), Some(u64::MAX - 1));
        // Nothing further can come due, and re-polling claims nothing.
        assert!(!rec.due_before(u64::MAX));
        rec.sample_up_to(u64::MAX, &[counters(9, 9), counters(9, 9)]);
        assert_eq!(rec.snapshot().per_bank[0].dropped, u64::MAX - 4);
    }
}
