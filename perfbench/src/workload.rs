//! The three workloads, their generated inputs, and one measured round.
//!
//! A run repeats one round. Every round rebuilds the store from scratch
//! (device build, format, preload, aging) and replays the same op
//! sequence, so all rounds do bit-identical simulated work and their
//! exact counts must agree.

use crate::rng::{SplitMix64, Zipfian};
use pcm_core::level::LevelDesign;
use pcm_device::{
    ctx_stream, CellOrganization, DeviceBuilder, ShardedPcmDevice, ShardedScrubber,
    TelemetryConfig, TraceConfig, NO_CTX,
};
use pcm_sim::profile::LatencyBuckets;
use pcm_store::{PcmStore, StoreConfig};
use pcm_trace::{OpKind, Phase};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Keys preloaded into the store. With 8 directory buckets of 3
/// entries per index page, a bucket chain is ~5 pages long, so a get
/// reads ~6 pages and a put ~9, as with the repository's default
/// 1024 keys over 64 buckets, on a device an eighth the size (less
/// exposed to other tenants' use of the shared last-level cache).
pub const KEYS: u64 = 128;
/// Banks, as in Table 5 of the paper.
pub const BANKS: usize = 8;
const STORE: StoreConfig = StoreConfig {
    dir_buckets: 8,
    stripes: 16,
};
const ZIPF_THETA: f64 = 0.99;
/// Correlation stream of the measured ops (the preload uses the
/// store's anonymous stream), so the profile can tell them apart.
const MEASURED_STREAM: u64 = 1;

/// Block organization of a workload's device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Org {
    /// 3LCo + 3-ON-2 + mark-and-spare + BCH-1.
    ThreeLevel,
    /// 4LCo + Gray + smart + BCH-10 + ECP-6.
    FourLevel,
}

impl Org {
    pub fn design(self) -> LevelDesign {
        match self {
            Org::ThreeLevel => pcm_core::optimize::three_level_optimal().clone(),
            Org::FourLevel => pcm_core::optimize::four_level_optimal().clone(),
        }
    }

    pub fn organization(self) -> CellOrganization {
        match self {
            Org::ThreeLevel => CellOrganization::ThreeLevel(self.design()),
            Org::FourLevel => CellOrganization::FourLevel {
                design: self.design(),
                smart: true,
            },
        }
    }
}

/// Model-time scrub schedule of a phased workload: the measured ops are
/// split into `slices`; after each, the clock advances `advance_secs`
/// and a scrubber with full-device period `interval_secs` runs every
/// block that came due.
#[derive(Debug, Clone, Copy)]
pub struct ScrubPlan {
    pub slices: usize,
    pub advance_secs: f64,
    pub interval_secs: f64,
}

/// One workload definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub org: Org,
    /// Percent of measured ops that are gets; the rest are puts.
    pub read_pct: u64,
    /// Value size, bytes (a page holds 44).
    pub value_bytes: usize,
    /// Model seconds the clock advances after the preload (set-up).
    pub aging_secs: f64,
    pub scrub: Option<ScrubPlan>,
    /// Measured ops per round: enough that gets and puts each have at
    /// least 10 samples beyond their p99 within one round.
    pub ops: usize,
}

/// The paper's 4LC refresh period (17 min), rounded to the power of two
/// the repository's experiments use.
const REFRESH_SECS: f64 = 1024.0;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "kv-a-3lc",
        org: Org::ThreeLevel,
        read_pct: 50,
        value_bytes: 100,
        aging_secs: 0.0,
        scrub: None,
        ops: 4_000,
    },
    Spec {
        name: "kv-b-4lc-aged",
        org: Org::FourLevel,
        read_pct: 95,
        value_bytes: 100,
        aging_secs: REFRESH_SECS,
        scrub: None,
        ops: 22_000,
    },
    Spec {
        name: "scrub-4lc",
        org: Org::FourLevel,
        read_pct: 95,
        // One-page values keep the KV side cheap, so a round (at least
        // 1000 puts, plus the scrub passes that must outweigh them)
        // stays short enough for several rounds per run.
        value_bytes: 40,
        aging_secs: 0.0,
        // A refresh rewrites a block at the current model time, so the
        // clock moves a quarter period per slice: demand reads then see
        // data between 0 and 1024 s old. 200 full passes per round make
        // scrub the larger share of the host time.
        scrub: Some(ScrubPlan {
            slices: 800,
            advance_secs: REFRESH_SECS / 4.0,
            interval_secs: REFRESH_SECS,
        }),
        ops: 22_000,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

/// One measured op of the generated sequence.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub key: u64,
    pub get: bool,
    /// Version the put writes, or the version a get must return
    /// (0 is the preloaded value).
    pub version: u32,
}

/// The deterministic op sequence of a seed: zipfian keys over the
/// preloaded keyspace, `read_pct` gets. Versions are tracked so every
/// get knows exactly which bytes the latest put stored.
pub fn plan(spec: &Spec, seed: u64, ops: usize) -> Vec<Op> {
    let zipf = Zipfian::new(KEYS, ZIPF_THETA);
    let mut rng = SplitMix64::new(seed ^ 0x6F70_735F_706C_616E);
    let mut versions = vec![0u32; KEYS as usize];
    (0..ops)
        .map(|_| {
            // Scatter ranks so the hot keys land in different buckets.
            let key = zipf.sample(rng.next_f64()).wrapping_mul(0x9E37_79B9) % KEYS;
            let get = rng.below(100) < spec.read_pct;
            let slot = &mut versions[key as usize];
            if !get {
                *slot += 1;
            }
            Op {
                key,
                get,
                version: *slot,
            }
        })
        .collect()
}

/// The `len` bytes stored under `key` at `version`: derived from the
/// seed, key and version only, so a stale or misplaced read cannot match.
pub fn value(seed: u64, key: u64, version: u32, len: usize) -> Vec<u8> {
    let mut g = SplitMix64::new(seed ^ key.rotate_left(20) ^ (u64::from(version) << 44));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&g.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Simulated statistics of one round. For a fixed seed and op count
/// they are identical in every round, traced or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub gets: u64,
    pub puts: u64,
    pub get_reads: u64,
    pub put_reads: u64,
    pub put_writes: u64,
    /// ECC-corrected symbols on demand reads.
    pub demand_corrected: u64,
    /// Modeled bank-busy ns of demand ops.
    pub demand_busy_ns: u64,
    pub scrub_blocks: u64,
    pub scrub_failures: u64,
    pub scrub_corrected: u64,
    pub scrub_busy_ns: u64,
    pub remaps: u64,
    pub uncorrectables: u64,
}

/// Facts only a traced round has: event volume, program-and-verify
/// attempts from the write spans, and the causal profile's split of
/// the measured KV requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceFacts {
    pub events: u64,
    pub dropped: u64,
    pub writes: u64,
    pub write_attempts: u64,
    pub kv_requests: u64,
    pub kv_duration_ns: u64,
    pub buckets: LatencyBuckets,
    /// Contents of [`SAMPLE_PAGES`] pages sampled evenly from the
    /// measured phase's device reads and writes (read back after the
    /// round): the inputs the layer timings feed each datapath.
    pub read_pages: Vec<Vec<u8>>,
    pub write_pages: Vec<Vec<u8>>,
}

/// Pages sampled for the layer timings.
pub const SAMPLE_PAGES: usize = 64;

/// What one round measured.
#[derive(Debug)]
pub struct Round {
    pub setup_s: f64,
    /// Host ns of each measured call, in op order.
    pub call_ns: Vec<u64>,
    /// Host ns of each clock-advance-plus-scrub step.
    pub scrub_ns: Vec<u64>,
    pub counts: Counts,
    /// Ops that returned an error, a miss, or wrong bytes.
    pub failed: u64,
    /// Gets that returned bytes other than the latest put's.
    pub wrong_bytes: u64,
    pub trace: Option<TraceFacts>,
}

/// Device-wide sums of a few per-bank counters.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    reads: u64,
    writes: u64,
    corrected: u64,
    busy_ns: u64,
    remaps: u64,
    uncorrectables: u64,
}

fn tally(dev: &ShardedPcmDevice) -> Tally {
    let m = dev.metrics();
    let mut t = Tally::default();
    for b in 0..m.banks() {
        let bank = m.bank(b);
        t.reads += bank.reads.load(Ordering::Relaxed);
        t.writes += bank.writes.load(Ordering::Relaxed);
        t.corrected += bank.corrected_symbols.load(Ordering::Relaxed);
        t.busy_ns += bank.busy_ns.load(Ordering::Relaxed);
        t.remaps += bank.remaps.load(Ordering::Relaxed);
        t.uncorrectables += bank.uncorrectables.load(Ordering::Relaxed);
    }
    t
}

/// Device blocks the store needs: superblock, directory, every key's
/// chain plus one replacement chain, worst-case overflow index pages
/// and slack — rounded up to a whole number of banks.
pub fn device_blocks(spec: &Spec) -> usize {
    let pages_per_value = spec.value_bytes.div_ceil(pcm_store::PAGE_PAYLOAD_BYTES);
    let overflow = (KEYS as usize).div_ceil(3);
    let blocks = 1 + STORE.dir_buckets as usize + (KEYS as usize + 1) * pages_per_value + overflow;
    (blocks + 16).div_ceil(BANKS) * BANKS
}

/// Per-bank trace ring large enough that a round drops nothing.
fn trace_capacity(spec: &Spec, ops: usize) -> usize {
    let scrub_blocks = spec.scrub.map_or(0, |s| {
        (s.slices as f64 * s.advance_secs / s.interval_secs).ceil() as usize * device_blocks(spec)
    });
    let events = 20 * ops + 30 * KEYS as usize + 6 * scrub_blocks;
    (2 * events / BANKS).next_power_of_two()
}

/// Build, format, preload and age a store: the timed set-up.
pub fn setup(spec: &Spec, seed: u64, traced: bool, ops: usize) -> Result<PcmStore, String> {
    let mut builder = DeviceBuilder::new()
        .organization(spec.org.organization())
        .blocks(device_blocks(spec))
        .banks(BANKS)
        .seed(seed);
    if traced {
        let interval = spec
            .scrub
            .map_or(spec.aging_secs.max(1.0), |s| s.advance_secs);
        builder = builder
            .trace(TraceConfig::new(trace_capacity(spec, ops)))
            .telemetry(TelemetryConfig::new((interval * 1e9) as u64));
    }
    let dev = builder.build_sharded().map_err(|e| e.to_string())?;
    let store = PcmStore::format(dev, STORE).map_err(|e| e.to_string())?;
    for key in 0..KEYS {
        store
            .put(key, &value(seed, key, 0, spec.value_bytes))
            .map_err(|e| format!("preload of key {key}: {e}"))?;
    }
    if spec.aging_secs > 0.0 {
        store.device().advance_time(spec.aging_secs);
    }
    Ok(store)
}

/// Set up a fresh store and replay `ops` on it, timing every call.
pub fn run_round(spec: &Spec, seed: u64, ops: &[Op], traced: bool) -> Result<Round, String> {
    let t0 = Instant::now();
    let store = setup(spec, seed, traced, ops.len()).map_err(|e| format!("set-up failed: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let dev = store.device();
    let events_before = recorded_events(dev);

    let mut session = store.session(MEASURED_STREAM);
    let mut scrubber = spec
        .scrub
        .map(|p| ShardedScrubber::new(dev, p.interval_secs));
    let slices = spec.scrub.map_or(1, |p| p.slices.max(1));
    let mut call_ns = Vec::with_capacity(ops.len());
    let mut scrub_ns = Vec::with_capacity(slices);
    let mut counts = Counts::default();
    let (mut failed, mut wrong_bytes) = (0u64, 0u64);
    let start = tally(dev);
    let mut scrub_tally = Tally::default();

    for slice in 0..slices {
        let range = slice * ops.len() / slices..(slice + 1) * ops.len() / slices;
        for op in &ops[range] {
            let before = tally(dev);
            if op.get {
                let t = Instant::now();
                let got = session.get(op.key);
                call_ns.push(t.elapsed().as_nanos() as u64);
                let after = tally(dev);
                counts.gets += 1;
                counts.get_reads += after.reads - before.reads;
                match got {
                    Ok(Some(bytes))
                        if bytes == value(seed, op.key, op.version, spec.value_bytes) => {}
                    Ok(Some(_)) => {
                        wrong_bytes += 1;
                        failed += 1;
                    }
                    Ok(None) | Err(_) => failed += 1,
                }
            } else {
                let bytes = value(seed, op.key, op.version, spec.value_bytes);
                let t = Instant::now();
                let put = session.put(op.key, &bytes);
                call_ns.push(t.elapsed().as_nanos() as u64);
                let after = tally(dev);
                counts.puts += 1;
                counts.put_reads += after.reads - before.reads;
                counts.put_writes += after.writes - before.writes;
                if put.is_err() {
                    failed += 1;
                }
            }
        }
        if let (Some(plan), Some(s)) = (spec.scrub, scrubber.as_mut()) {
            let before = tally(dev);
            let t = Instant::now();
            dev.advance_time(plan.advance_secs);
            let report = s.run_until(dev, dev.now());
            scrub_ns.push(t.elapsed().as_nanos() as u64);
            let after = tally(dev);
            counts.scrub_blocks += report.blocks_refreshed;
            counts.scrub_failures += report.failures;
            scrub_tally.corrected += after.corrected - before.corrected;
            scrub_tally.busy_ns += after.busy_ns - before.busy_ns;
        }
    }

    let end = tally(dev);
    counts.scrub_corrected = scrub_tally.corrected;
    counts.scrub_busy_ns = scrub_tally.busy_ns;
    counts.demand_corrected = end.corrected - start.corrected - scrub_tally.corrected;
    counts.demand_busy_ns = end.busy_ns - start.busy_ns - scrub_tally.busy_ns;
    counts.remaps = end.remaps - start.remaps;
    counts.uncorrectables = end.uncorrectables - start.uncorrectables;
    let trace = if traced {
        Some(trace_facts(dev, events_before)?)
    } else {
        None
    };
    Ok(Round {
        setup_s,
        call_ns,
        scrub_ns,
        counts,
        failed,
        wrong_bytes,
        trace,
    })
}

fn recorded_events(dev: &ShardedPcmDevice) -> u64 {
    dev.tracer().buffer().map_or(0, |b| {
        b.snapshot().per_bank.iter().map(|l| l.recorded).sum()
    })
}

fn is_measured(ctx: u64) -> bool {
    ctx != NO_CTX && ctx_stream(ctx) == MEASURED_STREAM
}

/// Current contents of [`SAMPLE_PAGES`] blocks taken evenly from
/// `blocks` (so hot pages appear as often as they were accessed).
fn sample_pages(dev: &ShardedPcmDevice, blocks: &[u32]) -> Result<Vec<Vec<u8>>, String> {
    if blocks.is_empty() {
        return Err("the traced round issued no device ops of a kind".to_string());
    }
    (0..SAMPLE_PAGES)
        .map(|i| {
            let block = blocks[i * blocks.len() / SAMPLE_PAGES] as usize;
            dev.read_block(block)
                .map(|r| r.data)
                .map_err(|e| format!("re-reading block {block}: {e}"))
        })
        .collect()
}

fn trace_facts(dev: &ShardedPcmDevice, events_before: u64) -> Result<TraceFacts, String> {
    let buffer = dev
        .tracer()
        .buffer()
        .ok_or("traced round has no trace buffer")?;
    let snap = buffer.snapshot();
    let mut facts = TraceFacts {
        events: snap.per_bank.iter().map(|l| l.recorded).sum::<u64>() - events_before,
        dropped: snap.total_dropped(),
        ..TraceFacts::default()
    };
    if let Some(tel) = dev.telemetry() {
        facts.dropped += tel
            .snapshot()
            .per_bank
            .iter()
            .map(|b| b.dropped)
            .sum::<u64>();
    }
    let (mut read_blocks, mut write_blocks) = (Vec::new(), Vec::new());
    for lane in &snap.per_bank {
        for ev in &lane.events {
            if ev.phase != Phase::Begin || !is_measured(ev.ctx) {
                continue;
            }
            match ev.kind {
                OpKind::Read => read_blocks.push(ev.block),
                OpKind::Write => {
                    write_blocks.push(ev.block);
                    facts.writes += 1;
                    facts.write_attempts += ev.payload;
                }
                _ => {}
            }
        }
    }
    facts.read_pages = sample_pages(dev, &read_blocks)?;
    facts.write_pages = sample_pages(dev, &write_blocks)?;
    let profile = pcm_sim::profile::build(&pcm_device::jsonl::export(&snap))
        .map_err(|e| format!("profile of the traced round failed: {e}"))?;
    for r in &profile.requests {
        if matches!(r.kind, OpKind::KvGet | OpKind::KvPut) && is_measured(r.ctx) {
            facts.kv_requests += 1;
            facts.kv_duration_ns += r.duration_ns;
            let b = &mut facts.buckets;
            b.media_ns += r.buckets.media_ns;
            b.ecc_ns += r.buckets.ecc_ns;
            b.alloc_index_ns += r.buckets.alloc_index_ns;
            b.scrub_wait_ns += r.buckets.scrub_wait_ns;
            b.queue_wait_ns += r.buckets.queue_wait_ns;
            b.overrun_ns += r.buckets.overrun_ns;
        }
    }
    Ok(facts)
}
