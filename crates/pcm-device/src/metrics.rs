//! Device observability: a registry of per-bank atomic counters and
//! log2-bucket histograms.
//!
//! The ROADMAP north-star asks for observability of the hot paths; this
//! module is the lightweight layer the device engine threads its
//! telemetry through. A [`DeviceMetrics`] holds one [`BankMetrics`] per
//! bank — plain `AtomicU64`s, so recording takes no lock of its own
//! (the engine records from each op's record step, under the bank lock
//! it already holds) and readers snapshot while ops run. Histograms bucket by `log2(value)` ([`LogHistogram`]),
//! which keeps them fixed-size and mergeable while still resolving the
//! order-of-magnitude structure of latency distributions.
//!
//! Every atomic here is a statistics counter: nothing reads one to
//! synchronize, so `Relaxed` is correct throughout and the whole
//! module opts in to the lint's counter class.
// pcm-lint: atomic-module(counters)
//!
//! Recorded latencies use the paper's timing model (§7 / Table 5): array
//! reads occupy their bank for 200 ns, each program-and-verify iteration
//! of a write costs 1 µs, and a scrub is a read plus a write. They are
//! *modeled* costs — the functional engine has no wall clock — but they
//! make per-bank busy time and the write-latency distribution (which
//! varies with verify-loop attempts) directly comparable to the timing
//! simulator's numbers.

use pcm_telemetry::BankCounters;
use std::sync::atomic::{AtomicU64, Ordering};

/// Modeled bank-busy time of one array read, ns (paper: 200 ns).
pub const READ_BUSY_NS: u64 = 200;
/// Modeled bank-busy time of one program-and-verify iteration, ns. A
/// whole-block write with `attempts` iterations across its cells is
/// charged `attempts × PROGRAM_PULSE_NS / cells` — see
/// [`write_busy_ns`].
pub const WRITE_BUSY_NS: u64 = 1000;

/// Modeled ECC-decode time per corrected symbol, ns. Decode work rides
/// *inside* the read busy window (the BCH pipeline overlaps the array
/// access), so profile attribution carves `corrected ×` this out of the
/// tail of the 200 ns read rather than extending it; the carve-out is
/// clamped to the window (see `ShardedPcmDevice`'s record step).
pub const ECC_DECODE_NS_PER_SYMBOL: u64 = 16;

/// Modeled busy time of a block write, ns: the paper's 1 µs, scaled by
/// how many extra verify iterations the write needed beyond one pass
/// over its cells.
pub fn write_busy_ns(attempts: u64, cells: u64) -> u64 {
    if cells == 0 {
        return WRITE_BUSY_NS;
    }
    // One pass (attempts == cells) is the nominal 1 µs; re-programmed
    // cells extend the pulse train proportionally.
    WRITE_BUSY_NS * attempts.max(cells) / cells
}

/// Number of buckets in a [`LogHistogram`]: bucket 0 holds zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-size log2-bucket histogram over `u64` samples.
///
/// Bucket 0 counts zero samples; bucket `i ≥ 1` counts samples whose
/// `ilog2` is `i - 1`. Recording is one relaxed atomic add, so the
/// histogram is safe to share across threads without locks.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        match value {
            0 => 0,
            v => v.ilog2() as usize + 1,
        }
    }

    /// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1); the
    /// telemetry layer's [`pcm_telemetry::bucket_floor`], so
    /// quantile floors agree across the two.
    pub fn bucket_floor(i: usize) -> u64 {
        pcm_telemetry::bucket_floor(i)
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Snapshot of all bucket counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Fold another histogram's counts into this one. Both sides use
    /// relaxed atomic ops, so merging is safe while either histogram is
    /// still being recorded into (the result is then a snapshot-quality
    /// sum, not an instantaneous one).
    pub fn merge(&self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Fold plain bucket counts (e.g. a snapshot's `latency_buckets`)
    /// into this histogram. Counts beyond [`HISTOGRAM_BUCKETS`] are
    /// ignored.
    pub fn merge_counts(&self, counts: &[u64]) {
        for (a, &n) in self.buckets.iter().zip(counts) {
            if n != 0 {
                a.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Lower bound of the bucket containing quantile `q` (0 for an empty
    /// histogram). `q` is clamped to `[0, 1]` (NaN reads as 0): `q = 0`
    /// selects the bucket of the minimum sample, `q = 1` the bucket of
    /// the maximum.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // 1-based rank of the selected sample. The clamp guards both
        // ends: q = 0 must still select rank 1, and float rounding for
        // huge totals must not push the rank past the last sample.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(HISTOGRAM_BUCKETS - 1)
    }
}

/// Atomic counters and histograms for one bank.
#[derive(Debug, Default)]
pub struct BankMetrics {
    /// Successful block reads.
    pub reads: AtomicU64,
    /// Successful block writes (demand only, not scrub rewrites).
    pub writes: AtomicU64,
    /// Completed scrubs (read + correct + rewrite).
    pub scrubs: AtomicU64,
    /// Symbols corrected by transient-error ECC across all reads.
    pub corrected_symbols: AtomicU64,
    /// Decodes that corrected at least one symbol (correction *events*,
    /// as opposed to the symbol total above — drift-risk estimation
    /// needs both frequency and severity).
    pub corrections: AtomicU64,
    /// Operations that failed (uncorrectable reads, unverifiable or
    /// wearout-exhausted writes, failed scrubs).
    pub uncorrectables: AtomicU64,
    /// Wearout faults newly remapped by write-and-verify (mark-and-spare
    /// / ECP entries consumed).
    pub remaps: AtomicU64,
    /// Cumulative modeled busy time, ns.
    pub busy_ns: AtomicU64,
    /// Per-op modeled latency distribution, ns.
    pub latency_ns: LogHistogram,
    /// Corrected-symbol count per correcting decode (magnitude
    /// distribution; zero-correction decodes are not recorded).
    pub correction_magnitude: LogHistogram,
}

impl BankMetrics {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a successful read.
    pub fn record_read(&self, corrected_symbols: u64, busy_ns: u64) {
        Self::add(&self.reads, 1);
        Self::add(&self.corrected_symbols, corrected_symbols);
        if corrected_symbols > 0 {
            Self::add(&self.corrections, 1);
            self.correction_magnitude.record(corrected_symbols);
        }
        Self::add(&self.busy_ns, busy_ns);
        self.latency_ns.record(busy_ns);
    }

    /// Record a successful write.
    pub fn record_write(&self, remaps: u64, busy_ns: u64) {
        Self::add(&self.writes, 1);
        Self::add(&self.remaps, remaps);
        Self::add(&self.busy_ns, busy_ns);
        self.latency_ns.record(busy_ns);
    }

    /// Record a completed scrub. Scrub reads feed the same correction
    /// accounting as demand reads: drift corrections mostly surface
    /// during scrub, and the telemetry drift-risk estimator must see
    /// them.
    pub fn record_scrub(&self, corrected_symbols: u64, busy_ns: u64) {
        Self::add(&self.scrubs, 1);
        Self::add(&self.corrected_symbols, corrected_symbols);
        if corrected_symbols > 0 {
            Self::add(&self.corrections, 1);
            self.correction_magnitude.record(corrected_symbols);
        }
        Self::add(&self.busy_ns, busy_ns);
        self.latency_ns.record(busy_ns);
    }

    /// Record a failed operation.
    pub fn record_failure(&self) {
        Self::add(&self.uncorrectables, 1);
    }

    /// Point-in-time copy of the counters, in the telemetry layer's
    /// vocabulary (the recorder samples exactly this).
    pub fn snapshot(&self) -> BankCounters {
        BankCounters {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            scrubs: self.scrubs.load(Ordering::Relaxed),
            corrected_symbols: self.corrected_symbols.load(Ordering::Relaxed),
            corrections: self.corrections.load(Ordering::Relaxed),
            uncorrectables: self.uncorrectables.load(Ordering::Relaxed),
            remaps: self.remaps.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            latency_buckets: self.latency_ns.bucket_counts(),
            correction_buckets: self.correction_magnitude.bucket_counts(),
        }
    }
}

/// The per-device registry: one [`BankMetrics`] per bank.
#[derive(Debug, Default)]
pub struct DeviceMetrics {
    banks: Vec<BankMetrics>,
}

impl DeviceMetrics {
    /// A registry for `banks` banks, all counters zero.
    pub fn new(banks: usize) -> Self {
        Self {
            banks: (0..banks).map(|_| BankMetrics::default()).collect(),
        }
    }

    /// Number of banks tracked.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// The counters for bank `bank`.
    pub fn bank(&self, bank: usize) -> &BankMetrics {
        &self.banks[bank]
    }

    /// Point-in-time copy of every bank's counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            per_bank: self.banks.iter().map(BankMetrics::snapshot).collect(),
        }
    }
}

/// A plain-data copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-bank snapshots, indexed by bank id.
    pub per_bank: Vec<BankCounters>,
}

impl MetricsSnapshot {
    /// Device-wide totals.
    pub fn total(&self) -> BankCounters {
        let mut total = BankCounters::default();
        for b in &self.per_bank {
            total.accumulate(b);
        }
        total
    }

    /// Per-bank busy fraction over `elapsed_ns` of device time (clamped
    /// to 1.0; all-zero if no time has elapsed).
    pub fn utilization(&self, elapsed_ns: f64) -> Vec<f64> {
        self.per_bank
            .iter()
            .map(|b| {
                if elapsed_ns > 0.0 {
                    (b.busy_ns as f64 / elapsed_ns).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The whole registry as JSON Lines: one `{"bank":i,...}` object per
    /// bank in bank order, then a final `{"bank":"total",...}` roll-up
    /// line. Field order is fixed; every line ends with `\n`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (bank, snap) in self.per_bank.iter().enumerate() {
            out.push_str(&format!("{{\"bank\":{},", bank));
            out.push_str(&snap.to_jsonl()[1..]);
            out.push('\n');
        }
        out.push_str("{\"bank\":\"total\",");
        out.push_str(&self.total().to_jsonl()[1..]);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        assert_eq!(LogHistogram::bucket_floor(0), 0);
        assert_eq!(LogHistogram::bucket_floor(2), 2);
        assert_eq!(LogHistogram::bucket_floor(11), 1024);
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = LogHistogram::new();
        for v in [200u64, 200, 200, 1000, 1000, 4000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        let counts = h.bucket_counts();
        assert_eq!(counts[LogHistogram::bucket_of(200)], 3);
        assert_eq!(counts[LogHistogram::bucket_of(1000)], 2);
        // Median lands in the 200 ns bucket, p99 in the 4000 ns bucket.
        assert_eq!(h.quantile_floor(0.5), LogHistogram::bucket_floor(8));
        assert_eq!(h.quantile_floor(0.99), LogHistogram::bucket_floor(12));
        assert_eq!(LogHistogram::new().quantile_floor(0.5), 0);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // Empty: every quantile is 0.
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile_floor(0.0), 0);
        assert_eq!(empty.quantile_floor(1.0), 0);
        // Single bucket: every quantile is that bucket's floor.
        let one = LogHistogram::new();
        one.record(300); // bucket 9, floor 256
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(one.quantile_floor(q), 256, "q={q}");
        }
        // q = 0 selects the minimum sample, q = 1 the maximum.
        let h = LogHistogram::new();
        h.record(0);
        h.record(200);
        h.record(5000);
        assert_eq!(h.quantile_floor(0.0), 0);
        assert_eq!(h.quantile_floor(1.0), LogHistogram::bucket_floor(13));
        // Out-of-range and NaN inputs clamp instead of panicking.
        assert_eq!(h.quantile_floor(-3.0), 0);
        assert_eq!(h.quantile_floor(7.0), LogHistogram::bucket_floor(13));
        assert_eq!(h.quantile_floor(f64::NAN), 0);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [200u64, 200, 1000] {
            a.record(v);
        }
        for v in [1000u64, 4000, 0] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        let counts = a.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[LogHistogram::bucket_of(200)], 2);
        assert_eq!(counts[LogHistogram::bucket_of(1000)], 2);
        assert_eq!(counts[LogHistogram::bucket_of(4000)], 1);
        // Merging from a snapshot's plain counts is equivalent.
        let c = LogHistogram::new();
        c.merge_counts(&b.bucket_counts());
        assert_eq!(c.bucket_counts(), b.bucket_counts());
        // `b` itself is untouched by being merged from.
        assert_eq!(b.count(), 3);
    }

    #[test]
    fn histogram_single_bucket_quantiles_and_merge() {
        // A series living entirely in one bucket: every quantile is that
        // bucket's floor, before and after merging in an identical
        // single-bucket series.
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for _ in 0..7 {
            a.record(900); // bucket 10, floor 512
            b.record(600); // same bucket
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(a.quantile_floor(q), 512, "q={q}");
        }
        a.merge(&b);
        assert_eq!(a.count(), 14);
        assert_eq!(a.bucket_counts()[10], 14);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(a.quantile_floor(q), 512, "q={q} after merge");
        }
    }

    #[test]
    fn histogram_saturated_top_bucket() {
        // u64::MAX saturates into the last bucket; quantiles walk off
        // the top correctly and merges keep the bucket count exact.
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(h.quantile_floor(0.0), LogHistogram::bucket_floor(1));
        assert_eq!(
            h.quantile_floor(1.0),
            LogHistogram::bucket_floor(HISTOGRAM_BUCKETS - 1)
        );
        assert_eq!(h.quantile_floor(1.0), 1u64 << 63);
        let other = LogHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.bucket_counts()[HISTOGRAM_BUCKETS - 1], 3);
        // Median of {1, MAX, MAX, MAX} sits in the saturated bucket too.
        assert_eq!(h.quantile_floor(0.5), 1u64 << 63);
    }

    #[test]
    fn write_busy_scales_with_attempts() {
        assert_eq!(write_busy_ns(364, 364), WRITE_BUSY_NS);
        assert_eq!(write_busy_ns(728, 364), 2 * WRITE_BUSY_NS);
        // Fewer attempts than cells never discounts below nominal.
        assert_eq!(write_busy_ns(100, 364), WRITE_BUSY_NS);
        assert_eq!(write_busy_ns(0, 0), WRITE_BUSY_NS);
    }

    #[test]
    fn registry_aggregates_across_banks() {
        let m = DeviceMetrics::new(4);
        m.bank(0).record_write(2, 1000);
        m.bank(0).record_read(5, 200);
        m.bank(3).record_scrub(0, 1200);
        m.bank(3).record_failure();
        let snap = m.snapshot();
        assert_eq!(snap.per_bank.len(), 4);
        assert_eq!(snap.per_bank[0].writes, 1);
        assert_eq!(snap.per_bank[0].remaps, 2);
        assert_eq!(snap.per_bank[3].scrubs, 1);
        assert_eq!(snap.per_bank[3].uncorrectables, 1);
        let total = snap.total();
        assert_eq!(total.reads, 1);
        assert_eq!(total.corrected_symbols, 5);
        assert_eq!(total.busy_ns, 1000 + 200 + 1200);
        let hist_total: u64 = total.latency_buckets.iter().sum();
        assert_eq!(hist_total, 3, "failures do not enter the histogram");
    }

    #[test]
    fn utilization_is_busy_over_elapsed() {
        let m = DeviceMetrics::new(2);
        m.bank(0).record_write(0, 1000);
        m.bank(1).record_read(0, 200);
        let u = m.snapshot().utilization(10_000.0);
        assert!((u[0] - 0.1).abs() < 1e-12);
        assert!((u[1] - 0.02).abs() < 1e-12);
        assert_eq!(m.snapshot().utilization(0.0), vec![0.0, 0.0]);
        // Clamped at 1.
        assert_eq!(m.snapshot().utilization(0.5)[0], 1.0);
    }

    #[test]
    fn utilization_saturates_and_guards_zero_elapsed() {
        let m = DeviceMetrics::new(3);
        m.bank(0).record_write(0, 5_000);
        m.bank(1).record_read(0, 200);
        let snap = m.snapshot();
        // Busy time greater than elapsed saturates at exactly 1.0.
        let u = snap.utilization(1_000.0);
        assert_eq!(u[0], 1.0);
        assert!((u[1] - 0.2).abs() < 1e-12);
        assert_eq!(u[2], 0.0, "idle bank");
        // Zero and negative elapsed both take the guard path.
        assert_eq!(snap.utilization(0.0), vec![0.0; 3]);
        assert_eq!(snap.utilization(-1.0), vec![0.0; 3]);
    }

    #[test]
    fn accumulate_then_total_equals_total_of_sums() {
        let m = DeviceMetrics::new(4);
        for bank in 0..4 {
            for k in 0..=bank {
                m.bank(bank).record_write(k as u64, 1000 + 100 * k as u64);
                m.bank(bank).record_read(1, 200);
            }
            m.bank(bank).record_scrub(0, 1200);
            if bank % 2 == 0 {
                m.bank(bank).record_failure();
            }
        }
        let snap = m.snapshot();
        // Folding the banks one by one must equal the built-in total.
        let mut folded = BankCounters::default();
        for b in &snap.per_bank {
            folded.accumulate(b);
        }
        assert_eq!(folded, snap.total());
        // Field-level spot checks against sums computed independently.
        assert_eq!(folded.writes, 1 + 2 + 3 + 4);
        assert_eq!(folded.reads, 10);
        assert_eq!(folded.scrubs, 4);
        assert_eq!(folded.uncorrectables, 2);
        assert_eq!(folded.remaps, 10, "sum of 0..=bank over 4 banks");
        let hist: u64 = folded.latency_buckets.iter().sum();
        assert_eq!(hist, folded.reads + folded.writes + folded.scrubs);
        // Accumulating into a fresh default grows the bucket vec.
        let mut empty = BankCounters::default();
        empty.accumulate(&snap.per_bank[3]);
        assert_eq!(empty, snap.per_bank[3]);
    }

    #[test]
    fn snapshots_export_stable_jsonl() {
        let m = DeviceMetrics::new(2);
        m.bank(0).record_write(2, 1000);
        m.bank(1).record_read(5, 200);
        let snap = m.snapshot();
        let line = snap.per_bank[0].to_jsonl();
        assert_eq!(
            line,
            "{\"reads\":0,\"writes\":1,\"scrubs\":0,\"corrected_symbols\":0,\
             \"corrections\":0,\"uncorrectables\":0,\"remaps\":2,\"busy_ns\":1000,\
             \"latency_buckets\":[0,0,0,0,0,0,0,0,0,0,1],\"correction_buckets\":[]}"
        );
        // Bank 1's read corrected 5 symbols: one correction event whose
        // magnitude lands in bucket 3 (values 4..8).
        assert_eq!(snap.per_bank[1].corrections, 1);
        assert_eq!(snap.per_bank[1].correction_buckets[3], 1);
        assert!(snap.per_bank[1]
            .to_jsonl()
            .contains("\"correction_buckets\":[0,0,0,1]"));
        let doc = snap.to_jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 3, "two banks + total");
        assert!(lines[0].starts_with("{\"bank\":0,\"reads\":0"));
        assert!(lines[1].starts_with("{\"bank\":1,\"reads\":1"));
        assert!(lines[2].starts_with("{\"bank\":\"total\","));
        assert!(doc.ends_with('\n'));
        // Byte-identical across repeated exports of the same snapshot.
        assert_eq!(doc, snap.to_jsonl());
    }
}
