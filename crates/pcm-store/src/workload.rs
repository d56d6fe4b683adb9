//! Closed-loop, deterministic KV workload generation (YCSB-style).
//!
//! The determinism unit is the **actor**: a logical client with its own
//! RNG stream (`Xoshiro256pp::split(seed, actor)`) and a keyspace
//! disjoint from every other actor's. An actor's op sequence — and
//! therefore its hit/miss/put counts — is a pure function of the seed,
//! independent of how actors are multiplexed onto threads. Running `W`
//! actors on 1, 2, or 8 threads changes only physical interleaving;
//! the summed [`OpTotals`] are identical, which is exactly what the CI
//! determinism gate asserts on `BENCH_store.json`.
//!
//! Key popularity within an actor is zipfian (the Gray et al. sampler
//! YCSB uses, default theta 0.99), so a handful of hot keys absorb most
//! traffic. Mixes are read/update percentages: A = 50/50, B = 95/5,
//! C = 100/0.
//!
//! Latency is *model* latency: the device charges every block op its
//! paper-calibrated busy time into the shared [`DeviceMetrics`]
//! histograms, and the report reads its percentiles from there. No wall
//! clock is consulted anywhere in this crate (`pcm-store` is a
//! determinism crate under pcm-lint).

use crate::error::StoreError;
use crate::store::{pages_for_value, PcmStore, StoreConfig, MAX_VALUE_BYTES};
use pcm_core::rng::Xoshiro256pp;
use pcm_device::metrics::LogHistogram;
use pcm_device::{CtxClass, CtxCounter, DeviceMetrics, ShardedScrubber, NO_CTX};
use std::sync::mpsc;

/// A read/update mix, as a read percentage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent of ops that are reads (the rest are updates).
    pub read_pct: u8,
}

impl Mix {
    /// YCSB-A: update-heavy, 50% reads / 50% updates.
    pub const YCSB_A: Mix = Mix { read_pct: 50 };
    /// YCSB-B: read-mostly, 95% reads / 5% updates.
    pub const YCSB_B: Mix = Mix { read_pct: 95 };
    /// YCSB-C: read-only.
    pub const YCSB_C: Mix = Mix { read_pct: 100 };

    /// Parse a preset name (`a`/`b`/`c`, case-insensitive).
    pub fn preset(name: &str) -> Option<Mix> {
        match name.to_ascii_lowercase().as_str() {
            "a" | "ycsb-a" => Some(Mix::YCSB_A),
            "b" | "ycsb-b" => Some(Mix::YCSB_B),
            "c" | "ycsb-c" => Some(Mix::YCSB_C),
            _ => None,
        }
    }
}

/// Workload shape. `actors` is the concurrency-independent determinism
/// unit; `threads` is chosen per run, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Base seed; actor `i` draws from stream `split(seed, i)`.
    pub seed: u64,
    /// Logical clients with disjoint keyspaces.
    pub actors: usize,
    /// Keys per actor (actor `i` owns `i*keys_per_actor ..`).
    pub keys_per_actor: u64,
    /// Measured ops per actor (after preload).
    pub ops_per_actor: u64,
    /// Value size, bytes (uniform).
    pub value_bytes: usize,
    /// Read/update mix.
    pub mix: Mix,
    /// Zipfian skew (YCSB default 0.99; 0 = near-uniform).
    pub zipf_theta: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            actors: 8,
            keys_per_actor: 128,
            ops_per_actor: 1000,
            value_bytes: 100,
            mix: Mix::YCSB_A,
            zipf_theta: 0.99,
        }
    }
}

impl WorkloadConfig {
    /// Device blocks a store must have to run this workload without ever
    /// hitting `StoreFull` (which would make op totals interleaving-
    /// dependent): superblock + directory + every key's chain + one
    /// in-flight replacement chain per actor + worst-case overflow index
    /// pages + slack.
    pub fn required_blocks(&self, store_cfg: &StoreConfig) -> usize {
        let ppv = pages_for_value(self.value_bytes);
        let keys = self.actors * self.keys_per_actor as usize;
        let overflow = keys.div_ceil(crate::directory::ENTRIES_PER_PAGE);
        1 + store_cfg.dir_buckets as usize + (keys + self.actors) * ppv + overflow + 16
    }

    fn validate(&self) -> Result<(), StoreError> {
        if self.value_bytes > MAX_VALUE_BYTES {
            return Err(StoreError::ValueTooLarge {
                len: self.value_bytes,
                max: MAX_VALUE_BYTES,
            });
        }
        if !self.zipf_theta.is_finite() || !(0.0..1.0).contains(&self.zipf_theta) {
            return Err(WorkloadError::InvalidTheta {
                theta: self.zipf_theta,
            }
            .into());
        }
        Ok(())
    }
}

/// Summed op counts. For a fixed seed these are identical across runs
/// and thread counts — the determinism gate's byte-for-byte content.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTotals {
    /// Preload puts (one per key).
    pub preload_puts: u64,
    /// Measured-phase gets.
    pub gets: u64,
    /// Measured-phase puts (updates).
    pub puts: u64,
    /// Measured-phase deletes.
    pub deletes: u64,
    /// Gets that found the key with verified contents.
    pub hits: u64,
    /// Gets that missed.
    pub misses: u64,
    /// Gets that returned bytes differing from what was written (always
    /// 0 on a healthy device — counted rather than ignored so a codec
    /// regression cannot hide).
    pub mismatches: u64,
}

impl OpTotals {
    fn add(&mut self, other: &OpTotals) {
        self.preload_puts += other.preload_puts;
        self.gets += other.gets;
        self.puts += other.puts;
        self.deletes += other.deletes;
        self.hits += other.hits;
        self.misses += other.misses;
        self.mismatches += other.mismatches;
    }

    /// Measured-phase op count.
    pub fn measured_ops(&self) -> u64 {
        self.gets + self.puts + self.deletes
    }
}

/// One run's outcome: totals plus model-time latency/throughput derived
/// from the device's metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Threads the actors were multiplexed onto.
    pub threads: usize,
    /// Summed per-actor op counts (thread-count invariant).
    pub totals: OpTotals,
    /// Total modeled device busy time, ns (sum over banks).
    pub busy_ns: u64,
    /// Device-op latency percentiles from the merged per-bank
    /// histograms (bucket floors, ns).
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// Measured KV ops per modeled second of *aggregate* bank busy time
    /// (banks run in parallel, so this understates device throughput —
    /// it is a stable efficiency figure, not a wall-clock claim).
    pub kops_per_model_sec: f64,
}

/// A workload-configuration error, distinct from store/device failures.
#[derive(Debug, Clone, Copy)]
pub enum WorkloadError {
    /// Zipfian skew outside `[0, 1)`: `theta = 1` is a pole of the Gray
    /// et al. sampler and values above it need a different formula, so
    /// rather than silently clamping (the pre-fix behavior, which made a
    /// configured `zipf_theta = 1.2` quietly run a different
    /// distribution) the skew is rejected up front.
    InvalidTheta {
        /// The rejected skew value.
        theta: f64,
    },
    /// A phased-run model time that would panic the device clock (a
    /// negative or non-finite advance) or hang the scrubber (a
    /// non-positive interval), rejected before any device op runs.
    InvalidPhaseTime {
        /// Which [`PhasedConfig`] field was rejected.
        what: &'static str,
        /// The rejected value, seconds.
        secs: f64,
    },
}

// Manual (bit-wise) equality so the carried `f64` — possibly NaN, which
// is itself an invalid value — still satisfies `Eq` for error matching.
impl PartialEq for WorkloadError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                WorkloadError::InvalidTheta { theta: a },
                WorkloadError::InvalidTheta { theta: b },
            ) => a.to_bits() == b.to_bits(),
            (
                WorkloadError::InvalidPhaseTime { what: wa, secs: a },
                WorkloadError::InvalidPhaseTime { what: wb, secs: b },
            ) => wa == wb && a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for WorkloadError {}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::InvalidTheta { theta } => {
                write!(
                    f,
                    "zipfian skew theta = {theta} outside the supported [0, 1)"
                )
            }
            WorkloadError::InvalidPhaseTime { what, secs } => {
                write!(f, "phased-run {what} = {secs} is not a usable model time")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// The Gray et al. bounded zipfian sampler (as used by YCSB).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// A sampler over ranks `0..n` with skew `theta`, which must lie in
    /// `[0, 1)` (1.0 is a pole of the formula). Out-of-range or
    /// non-finite skews are rejected with
    /// [`WorkloadError::InvalidTheta`], never silently adjusted.
    pub fn new(n: u64, theta: f64) -> Result<Zipfian, WorkloadError> {
        if !theta.is_finite() || !(0.0..1.0).contains(&theta) {
            return Err(WorkloadError::InvalidTheta { theta });
        }
        let n = n.max(1);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Ok(Zipfian {
            n,
            theta,
            alpha,
            zetan,
            eta,
        })
    }

    /// Map a uniform `u` in `[0, 1)` to a rank in `0..n` (rank 0 is the
    /// hottest).
    pub fn sample(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

/// The deterministic value an actor stores under `key`: a key-derived
/// byte pattern, so reads verify end-to-end integrity for free.
pub fn value_for(key: u64, len: usize) -> Vec<u8> {
    let seed = crate::directory::mix64(key);
    (0..len)
        .map(|i| (seed >> ((i % 8) * 8)) as u8 ^ (i / 8) as u8)
        .collect()
}

/// Run `cfg` against `store` with actors multiplexed onto `threads`
/// OS threads (round-robin). Preloads every actor's keyspace, then runs
/// the measured mix. Returns the merged report; the first store error
/// (if any) aborts the run.
pub fn run(
    store: &PcmStore,
    cfg: &WorkloadConfig,
    threads: usize,
) -> Result<WorkloadReport, StoreError> {
    cfg.validate()?;
    let threads = threads.max(1);
    let mut states = ActorState::all(cfg)?;
    let mut totals = OpTotals::default();
    run_slice(
        store,
        cfg,
        &mut states,
        &mut totals,
        threads,
        true,
        cfg.ops_per_actor,
    )?;
    Ok(report_from(store.device().metrics(), threads, totals))
}

/// An actor's resumable position in its op stream: the RNG and sampler
/// persist across phased-run slices, so an actor's full sequence of ops
/// is identical whether it runs in one slice or many — the phased
/// runner's determinism invariant reduces to `run`'s.
struct ActorState {
    actor: usize,
    rng: Xoshiro256pp,
    zipf: Zipfian,
    /// The actor's correlation-id counter (KV class, stream `actor + 1`
    /// so stream 0 stays free for hand-driven sessions). Like the RNG it
    /// travels with the actor across slices and threads, so request ids
    /// are a pure function of (actor, op index) — never of scheduling.
    ctx: CtxCounter,
}

impl ActorState {
    fn new(cfg: &WorkloadConfig, actor: usize) -> Result<ActorState, StoreError> {
        Ok(ActorState {
            actor,
            rng: Xoshiro256pp::split(cfg.seed, actor as u64),
            zipf: Zipfian::new(cfg.keys_per_actor, cfg.zipf_theta)?,
            ctx: CtxCounter::new(CtxClass::Kv, actor as u64 + 1),
        })
    }

    /// Every actor's state at the start of its stream, in actor order.
    fn all(cfg: &WorkloadConfig) -> Result<Vec<Option<ActorState>>, StoreError> {
        (0..cfg.actors)
            .map(|actor| ActorState::new(cfg, actor).map(Some))
            .collect()
    }

    /// Next request ctx ([`NO_CTX`] while tracing is off, so the
    /// untraced hot path allocates no ids and emits no events).
    fn next_ctx(&mut self, store: &PcmStore) -> u64 {
        if store.device().tracer().is_enabled() {
            self.ctx.allocate()
        } else {
            NO_CTX
        }
    }
}

/// One slice of an actor's stream: optional preload, then `ops`
/// measured ops continuing from wherever the state left off.
fn run_actor_phase(
    store: &PcmStore,
    cfg: &WorkloadConfig,
    state: &mut ActorState,
    preload: bool,
    ops: u64,
) -> Result<OpTotals, StoreError> {
    let mut totals = OpTotals::default();
    let base = state.actor as u64 * cfg.keys_per_actor;
    if preload {
        for k in 0..cfg.keys_per_actor {
            let ctx = state.next_ctx(store);
            store.put_with_ctx(base + k, &value_for(base + k, cfg.value_bytes), ctx)?;
            totals.preload_puts += 1;
        }
    }
    for _ in 0..ops {
        let rank = state.zipf.sample(state.rng.next_f64());
        let key = base + rank;
        let ctx = state.next_ctx(store);
        if state.rng.next_bounded(100) < cfg.mix.read_pct as u64 {
            totals.gets += 1;
            match store.get_with_ctx(key, ctx)? {
                Some(v) if v == value_for(key, cfg.value_bytes) => totals.hits += 1,
                Some(_) => totals.mismatches += 1,
                None => totals.misses += 1,
            }
        } else {
            totals.puts += 1;
            store.put_with_ctx(key, &value_for(key, cfg.value_bytes), ctx)?;
        }
    }
    Ok(totals)
}

/// Quiesce actions a single driver performs between phased-run slices.
///
/// Model time in the closed-loop runner otherwise never moves: `run`
/// finishes with the device clock where it started, so drift, scrub,
/// and telemetry sampling all see one frozen instant. A phased run
/// splits each actor's measured ops into `phases` equal slices and has
/// exactly one thread — after every slice, with all actors quiesced —
/// advance the clock and run the scrub ticks that became due. The
/// interleaving of device ops and clock motion is thereby a pure
/// function of the configuration, never of thread scheduling.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedConfig {
    /// Equal slices to split `ops_per_actor` into (min 1).
    pub phases: usize,
    /// Model seconds the driver advances the clock after each slice
    /// (telemetry sample ticks are claimed inside the advance).
    pub advance_secs: f64,
    /// When set, a [`ShardedScrubber`] with this full-device interval
    /// runs every newly due scrub tick after each advance.
    pub scrub_interval_secs: Option<f64>,
}

impl Default for PhasedConfig {
    fn default() -> Self {
        PhasedConfig {
            phases: 4,
            advance_secs: 0.05,
            scrub_interval_secs: None,
        }
    }
}

fn check_phase_time(what: &'static str, secs: f64, allow_zero: bool) -> Result<(), StoreError> {
    let ok = secs.is_finite() && if allow_zero { secs >= 0.0 } else { secs > 0.0 };
    if ok {
        Ok(())
    } else {
        Err(WorkloadError::InvalidPhaseTime { what, secs }.into())
    }
}

/// Run `cfg` in [`PhasedConfig::phases`] quiesced slices, advancing the
/// device clock (and optionally scrubbing) between them. Op totals are
/// thread-count invariant exactly as for [`run`]; with telemetry
/// enabled on the device, the exported series are byte-identical across
/// thread counts too, because the clock only moves at quiesced points.
pub fn run_phased(
    store: &PcmStore,
    cfg: &WorkloadConfig,
    phased: &PhasedConfig,
    threads: usize,
) -> Result<WorkloadReport, StoreError> {
    cfg.validate()?;
    check_phase_time("advance_secs", phased.advance_secs, true)?;
    if let Some(secs) = phased.scrub_interval_secs {
        check_phase_time("scrub_interval_secs", secs, false)?;
    }
    let threads = threads.max(1);
    let phases = phased.phases.max(1) as u64;
    let mut totals = OpTotals::default();
    let mut states = ActorState::all(cfg)?;
    let mut scrubber = phased
        .scrub_interval_secs
        .map(|secs| ShardedScrubber::new(store.device(), secs));
    for phase in 0..phases {
        // Integer slice boundaries: slice sizes depend only on the
        // configuration, and the remainder spreads over late phases.
        let start = phase * cfg.ops_per_actor / phases;
        let end = (phase + 1) * cfg.ops_per_actor / phases;
        run_slice(
            store,
            cfg,
            &mut states,
            &mut totals,
            threads,
            phase == 0,
            end - start,
        )?;
        // All actors have returned: one driver moves the clock (the
        // telemetry recorder claims its due sample ticks inside) and
        // scrubs what the advance made due.
        let dev = store.device();
        dev.advance_time(phased.advance_secs);
        if let Some(s) = scrubber.as_mut() {
            s.run_until(dev, dev.now());
        }
    }
    Ok(report_from(store.device().metrics(), threads, totals))
}

/// Run one slice of every actor, multiplexed round-robin onto
/// `threads` OS threads (thread `t` runs actors `t, t + threads, …` in
/// order); [`run`] is this with one slice.
/// States travel into the worker threads and come back through the
/// result channel, so no lock guards them.
fn run_slice(
    store: &PcmStore,
    cfg: &WorkloadConfig,
    states: &mut [Option<ActorState>],
    totals: &mut OpTotals,
    threads: usize,
    preload: bool,
    ops: u64,
) -> Result<(), StoreError> {
    let (tx, rx) = mpsc::channel::<Result<(ActorState, OpTotals), StoreError>>();
    std::thread::scope(|s| {
        for t in 0..threads {
            let tx = tx.clone();
            let mine: Vec<ActorState> = states
                .iter_mut()
                .skip(t)
                .step_by(threads)
                .filter_map(Option::take)
                .collect();
            s.spawn(move || {
                for mut state in mine {
                    let r = run_actor_phase(store, cfg, &mut state, preload, ops);
                    let failed = r.is_err();
                    if tx.send(r.map(|tot| (state, tot))).is_err() || failed {
                        return;
                    }
                }
            });
        }
        drop(tx);
    });
    let mut first_err = None;
    for r in rx.iter() {
        match r {
            Ok((state, tot)) => {
                totals.add(&tot);
                let actor = state.actor;
                states[actor] = Some(state);
            }
            Err(e) => {
                first_err = first_err.or(Some(e));
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn report_from(metrics: &DeviceMetrics, threads: usize, totals: OpTotals) -> WorkloadReport {
    let snap = metrics.snapshot();
    let agg = snap.total();
    let merged = LogHistogram::new();
    merged.merge_counts(&agg.latency_buckets);
    let kops = if agg.busy_ns == 0 {
        0.0
    } else {
        totals.measured_ops() as f64 / (agg.busy_ns as f64 / 1e9) / 1e3
    };
    WorkloadReport {
        threads,
        totals,
        busy_ns: agg.busy_ns,
        p50_ns: merged.quantile_floor(0.50),
        p95_ns: merged.quantile_floor(0.95),
        p99_ns: merged.quantile_floor(0.99),
        kops_per_model_sec: kops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_device::DeviceBuilder;

    fn fresh_store(cfg: &WorkloadConfig) -> PcmStore {
        let store_cfg = StoreConfig {
            dir_buckets: 32,
            stripes: 8,
        };
        let banks = 8;
        let blocks = cfg.required_blocks(&store_cfg).div_ceil(banks) * banks;
        let dev = DeviceBuilder::new()
            .blocks(blocks)
            .banks(banks)
            .seed(cfg.seed)
            .build_sharded()
            .unwrap();
        PcmStore::format(dev, store_cfg).unwrap()
    }

    fn small_cfg() -> WorkloadConfig {
        WorkloadConfig {
            actors: 4,
            keys_per_actor: 16,
            ops_per_actor: 50,
            value_bytes: 60,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn zipfian_is_skewed_and_in_range() {
        let z = Zipfian::new(100, 0.99).unwrap();
        let mut rng = Xoshiro256pp::split(1, 0);
        let mut counts = [0u64; 100];
        for _ in 0..10_000 {
            let r = z.sample(rng.next_f64()) as usize;
            assert!(r < 100);
            counts[r] += 1;
        }
        assert!(counts[0] > counts[50].max(1) * 5, "{:?}", &counts[..5]);
    }

    #[test]
    fn invalid_theta_is_rejected_not_clamped() {
        // The pre-fix clamp silently ran theta 1.2 as 0.9999; now every
        // out-of-range or non-finite skew is a typed error.
        for bad in [1.0f64, 1.2, -0.1, f64::NAN, f64::INFINITY] {
            let err = Zipfian::new(100, bad).unwrap_err();
            assert_eq!(err, WorkloadError::InvalidTheta { theta: bad }, "{bad}");
        }
        // The whole supported range — including what the clamp used to
        // forbid above 0.9999 — still constructs.
        for good in [0.0f64, 0.5, 0.99, 0.99995] {
            assert!(Zipfian::new(100, good).is_ok(), "{good}");
        }
        // A misconfigured workload fails up front with the typed error,
        // before touching the device.
        let cfg = WorkloadConfig {
            zipf_theta: 1.2,
            ..small_cfg()
        };
        let store = fresh_store(&WorkloadConfig::default());
        match run(&store, &cfg, 2) {
            Err(StoreError::Workload(WorkloadError::InvalidTheta { theta })) => {
                assert_eq!(theta, 1.2);
            }
            other => panic!("expected InvalidTheta, got {other:?}"),
        }
    }

    #[test]
    fn op_totals_are_thread_count_invariant() {
        let cfg = small_cfg();
        let mut baseline = None;
        for threads in [1usize, 2, 8] {
            let store = fresh_store(&cfg);
            let report = run(&store, &cfg, threads).unwrap();
            assert_eq!(report.totals.mismatches, 0);
            assert_eq!(
                report.totals.measured_ops(),
                cfg.actors as u64 * cfg.ops_per_actor
            );
            match &baseline {
                None => baseline = Some(report.totals),
                Some(b) => assert_eq!(*b, report.totals, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn mixes_hit_their_read_fractions_roughly() {
        let cfg = WorkloadConfig {
            mix: Mix::YCSB_B,
            ..small_cfg()
        };
        let store = fresh_store(&cfg);
        let report = run(&store, &cfg, 2).unwrap();
        let total = report.totals.measured_ops();
        let reads = report.totals.gets;
        // 95% ± 5 points on 200 ops.
        assert!(
            reads * 100 >= total * 90 && reads * 100 <= total * 100,
            "reads {reads} of {total}"
        );
        assert!(report.p50_ns > 0);
        assert!(report.busy_ns > 0);
    }

    #[test]
    fn phased_totals_match_unphased_and_are_thread_invariant() {
        let cfg = small_cfg();
        let store = fresh_store(&cfg);
        let flat = run(&store, &cfg, 2).unwrap().totals;
        let phased = PhasedConfig {
            phases: 3, // 50 ops/actor split 16/17/17
            advance_secs: 0.01,
            scrub_interval_secs: None,
        };
        let mut baseline = None;
        for threads in [1usize, 2, 8] {
            let store = fresh_store(&cfg);
            let report = run_phased(&store, &cfg, &phased, threads).unwrap();
            assert_eq!(report.totals, flat, "phasing changed the op stream");
            assert!(store.device().now() > 0.0, "driver advanced the clock");
            match &baseline {
                None => baseline = Some(report.totals),
                Some(b) => assert_eq!(*b, report.totals, "{threads} threads diverged"),
            }
        }
    }

    #[test]
    fn phased_scrub_runs_between_slices() {
        let cfg = small_cfg();
        let store = fresh_store(&cfg);
        let phased = PhasedConfig {
            phases: 4,
            advance_secs: 0.5,
            // Full-device pass every second: two slices' advances make
            // a pass due.
            scrub_interval_secs: Some(1.0),
        };
        run_phased(&store, &cfg, &phased, 2).unwrap();
        let scrubs: u64 = store
            .device()
            .metrics()
            .snapshot()
            .per_bank
            .iter()
            .map(|b| b.scrubs)
            .sum();
        assert!(scrubs > 0, "no scrub ticks ran");
    }

    #[test]
    fn phased_rejects_bad_model_times() {
        let cfg = small_cfg();
        let store = fresh_store(&cfg);
        let bad_advance = PhasedConfig {
            advance_secs: -1.0,
            ..PhasedConfig::default()
        };
        match run_phased(&store, &cfg, &bad_advance, 1) {
            Err(StoreError::Workload(WorkloadError::InvalidPhaseTime { what, secs })) => {
                assert_eq!(what, "advance_secs");
                assert_eq!(secs, -1.0);
            }
            other => panic!("expected InvalidPhaseTime, got {other:?}"),
        }
        let bad_scrub = PhasedConfig {
            scrub_interval_secs: Some(0.0),
            ..PhasedConfig::default()
        };
        match run_phased(&store, &cfg, &bad_scrub, 1) {
            Err(StoreError::Workload(WorkloadError::InvalidPhaseTime { what, .. })) => {
                assert_eq!(what, "scrub_interval_secs");
            }
            other => panic!("expected InvalidPhaseTime, got {other:?}"),
        }
    }

    #[test]
    fn preset_names_parse() {
        assert_eq!(Mix::preset("a"), Some(Mix::YCSB_A));
        assert_eq!(Mix::preset("YCSB-B"), Some(Mix::YCSB_B));
        assert_eq!(Mix::preset("c"), Some(Mix::YCSB_C));
        assert_eq!(Mix::preset("z"), None);
    }
}
