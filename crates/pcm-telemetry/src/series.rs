//! The sampled data model: cumulative [`BankCounters`] in, fixed-size
//! [`SamplePoint`]s out, ring-buffered per bank.
//!
//! A sample point is the *delta* of every counter over one interval
//! plus latency quantile floors derived from the cumulative log2
//! histogram — all integers, so series from any engine and thread count
//! compare byte-for-byte.

use pcm_trace::json;

/// Cumulative per-bank counters at one instant, as supplied by the
/// embedding layer (pcm-device's `BankMetrics::snapshot` returns this
/// type, and the performance simulator shares that registry).
///
/// The recorder only ever *subtracts* consecutive readings, so any
/// monotone counter source works.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Successful block reads.
    pub reads: u64,
    /// Successful block writes.
    pub writes: u64,
    /// Completed scrubs.
    pub scrubs: u64,
    /// ECC-corrected symbols.
    pub corrected_symbols: u64,
    /// Decodes that corrected at least one symbol.
    pub corrections: u64,
    /// Failed operations.
    pub uncorrectables: u64,
    /// Newly remapped wearout faults.
    pub remaps: u64,
    /// Cumulative modeled busy time, ns.
    pub busy_ns: u64,
    /// Cumulative latency histogram bucket counts (log2 buckets, bucket
    /// 0 = zeros — the same shape as pcm-device's `LogHistogram`).
    pub latency_buckets: Vec<u64>,
    /// Cumulative correction-magnitude histogram bucket counts
    /// (corrected symbols per correcting decode, same log2 buckets).
    pub correction_buckets: Vec<u64>,
}

impl BankCounters {
    /// Fold another bank's counters into this one (device-wide
    /// aggregation).
    pub fn accumulate(&mut self, other: &BankCounters) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.scrubs += other.scrubs;
        self.corrected_symbols += other.corrected_symbols;
        self.corrections += other.corrections;
        self.uncorrectables += other.uncorrectables;
        self.remaps += other.remaps;
        self.busy_ns += other.busy_ns;
        add_buckets(&mut self.latency_buckets, &other.latency_buckets);
        add_buckets(&mut self.correction_buckets, &other.correction_buckets);
    }

    /// The counters as one JSON object with a fixed field order.
    /// Bucket arrays are emitted with trailing zero buckets trimmed,
    /// which keeps lines compact and is deterministic for a given
    /// reading.
    pub fn to_jsonl(&self) -> String {
        json::object(|o| self.json_fields(o))
    }

    /// Write the fields of [`BankCounters::to_jsonl`] into an object
    /// that may carry others before them.
    pub fn json_fields(&self, o: &mut json::Object<'_>) {
        o.num("reads", self.reads)
            .num("writes", self.writes)
            .num("scrubs", self.scrubs)
            .num("corrected_symbols", self.corrected_symbols)
            .num("corrections", self.corrections)
            .num("uncorrectables", self.uncorrectables)
            .num("remaps", self.remaps)
            .num("busy_ns", self.busy_ns)
            .nums("latency_buckets", trimmed(&self.latency_buckets))
            .nums("correction_buckets", trimmed(&self.correction_buckets));
    }

    /// Field-wise saturating difference `self - prev` (bucket counts
    /// are not differenced: quantiles come from the cumulative
    /// histogram).
    pub fn delta_since(&self, prev: &BankCounters) -> BankCounters {
        BankCounters {
            reads: self.reads.saturating_sub(prev.reads),
            writes: self.writes.saturating_sub(prev.writes),
            scrubs: self.scrubs.saturating_sub(prev.scrubs),
            corrected_symbols: self
                .corrected_symbols
                .saturating_sub(prev.corrected_symbols),
            corrections: self.corrections.saturating_sub(prev.corrections),
            uncorrectables: self.uncorrectables.saturating_sub(prev.uncorrectables),
            remaps: self.remaps.saturating_sub(prev.remaps),
            busy_ns: self.busy_ns.saturating_sub(prev.busy_ns),
            latency_buckets: Vec::new(),
            correction_buckets: Vec::new(),
        }
    }
}

/// Element-wise bucket sum, growing `into` to `from`'s length first so
/// no trailing counts are dropped when the lengths differ.
fn add_buckets(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// Bucket counts without their trailing zeros.
fn trimmed(buckets: &[u64]) -> &[u64] {
    let last = buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    &buckets[..last]
}

/// Inclusive lower bound of log2 bucket `i` (0 for buckets 0 and 1).
/// pcm-device's `LogHistogram::bucket_floor` calls this, so quantile
/// floors computed here agree with the metrics layer.
pub fn bucket_floor(i: usize) -> u64 {
    match i {
        0 | 1 => 0,
        i if i >= 65 => 1u64 << 63,
        i => 1u64 << (i - 1),
    }
}

/// Lower bound of the bucket containing the `permille`-quantile of the
/// bucketed samples, in pure integer arithmetic: the selected sample's
/// 1-based rank is `ceil(total * permille / 1000)`, clamped to
/// `[1, total]`. Returns 0 for an empty histogram.
pub fn quantile_floor_permille(buckets: &[u64], permille: u64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let p = permille.min(1000);
    let rank = total.saturating_mul(p).div_ceil(1000).clamp(1, total);
    let mut seen = 0u64;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_floor(i);
        }
    }
    bucket_floor(buckets.len().saturating_sub(1))
}

/// One sampled interval of one bank: counter deltas and latency
/// quantile floors at the sample deadline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SamplePoint {
    /// 1-based sample index (`t_ns = tick * sample_interval_ns`).
    pub tick: u64,
    /// Model-time deadline of this sample, integer ns.
    pub t_ns: u64,
    /// Reads completed in the interval.
    pub reads: u64,
    /// Writes completed in the interval.
    pub writes: u64,
    /// Scrubs completed in the interval.
    pub scrubs: u64,
    /// Symbols corrected in the interval.
    pub corrected_symbols: u64,
    /// Correcting decodes in the interval.
    pub corrections: u64,
    /// Failures in the interval.
    pub uncorrectables: u64,
    /// Remaps in the interval.
    pub remaps: u64,
    /// Modeled busy ns accumulated in the interval.
    pub busy_ns: u64,
    /// p50 latency floor (ns) of the *cumulative* latency histogram.
    pub p50_ns: u64,
    /// p99 latency floor (ns) of the cumulative latency histogram.
    pub p99_ns: u64,
}

impl SamplePoint {
    /// Per-mille bank utilization over the interval: busy ns as ‰ of
    /// `interval_ns`, saturated at 1000.
    pub fn utilization_permille(&self, interval_ns: u64) -> u64 {
        self.busy_ns
            .saturating_mul(1000)
            .checked_div(interval_ns.max(1))
            .unwrap_or(0)
            .min(1000)
    }
}

/// A fixed-capacity ring of [`SamplePoint`]s for one bank.
#[derive(Debug, Clone)]
pub struct RingSeries {
    points: Vec<SamplePoint>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    head: usize,
    /// Samples overwritten after the ring filled.
    dropped: u64,
}

impl RingSeries {
    /// An empty ring holding at most `capacity` points (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            points: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Append a point, overwriting the oldest once full.
    pub fn push(&mut self, point: SamplePoint) {
        if self.points.len() < self.capacity {
            self.points.push(point);
        } else if let Some(slot) = self.points.get_mut(self.head) {
            *slot = point;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Append `n` points, the `i`-th being `point(i)`, with the same
    /// result as `n` calls to [`RingSeries::push`] but building only the
    /// last `min(n, capacity)` of them.
    pub(crate) fn extend_with(&mut self, n: u64, point: impl Fn(u64) -> SamplePoint) {
        let skip = n.saturating_sub(self.capacity as u64);
        if skip > 0 {
            // The last `capacity` pushes overwrite every slot, so of the
            // earlier ones (and of the current contents) only their drop
            // count survives.
            self.dropped = self
                .dropped
                .saturating_add(self.points.len() as u64)
                .saturating_add(skip);
            self.points.clear();
            self.head = 0;
        }
        for i in skip..n {
            self.push(point(i));
        }
    }

    /// Points currently held.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// No points recorded yet?
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Samples lost to ring wrap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained points, oldest first.
    pub fn to_vec(&self) -> Vec<SamplePoint> {
        let mut out = Vec::with_capacity(self.points.len());
        out.extend_from_slice(&self.points[self.head..]);
        out.extend_from_slice(&self.points[..self.head]);
        out
    }

    /// The most recent point, if any.
    pub fn last(&self) -> Option<&SamplePoint> {
        if self.points.is_empty() {
            None
        } else {
            let ix = (self.head + self.points.len() - 1) % self.points.len();
            self.points.get(ix)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(tick: u64) -> SamplePoint {
        SamplePoint {
            tick,
            t_ns: tick * 10,
            ..Default::default()
        }
    }

    #[test]
    fn delta_is_fieldwise_and_saturating() {
        let prev = BankCounters {
            reads: 10,
            busy_ns: 500,
            ..Default::default()
        };
        let cur = BankCounters {
            reads: 15,
            writes: 3,
            busy_ns: 900,
            ..Default::default()
        };
        let d = cur.delta_since(&prev);
        assert_eq!(d.reads, 5);
        assert_eq!(d.writes, 3);
        assert_eq!(d.busy_ns, 400);
        // A (never-expected) backwards counter saturates to zero rather
        // than wrapping into a huge delta.
        assert_eq!(prev.delta_since(&cur).reads, 0);
    }

    #[test]
    fn accumulate_with_unequal_bucket_counts() {
        // A short (hand-built) bucket vec accumulating a longer one must
        // grow, and a longer one accumulating a shorter one must keep
        // its tail — in both orders, for both bucket arrays.
        let short = BankCounters {
            reads: 1,
            latency_buckets: vec![0, 2],
            correction_buckets: vec![5],
            ..Default::default()
        };
        let long = BankCounters {
            reads: 10,
            latency_buckets: vec![1, 1, 0, 7],
            correction_buckets: vec![0, 0, 0, 0, 0, 3],
            ..Default::default()
        };
        let mut a = short.clone();
        a.accumulate(&long);
        assert_eq!(a.reads, 11);
        assert_eq!(a.latency_buckets, vec![1, 3, 0, 7]);
        assert_eq!(a.correction_buckets, vec![5, 0, 0, 0, 0, 3]);
        let mut b = long.clone();
        b.accumulate(&short);
        assert_eq!(b.latency_buckets, vec![1, 3, 0, 7]);
        assert_eq!(b.correction_buckets, vec![5, 0, 0, 0, 0, 3]);
        // Totals are order-independent.
        assert_eq!(a.latency_buckets, b.latency_buckets);
        // Accumulating into an empty default adopts the other's vectors.
        let mut empty = BankCounters::default();
        empty.accumulate(&long);
        assert_eq!(empty, long);
    }

    #[test]
    fn quantiles_match_float_reference() {
        // Mirror the metrics-layer test: 3×200ns, 2×1000ns, 1×4000ns.
        let mut buckets = vec![0u64; 65];
        buckets[8] = 3; // 200 → bucket 8, floor 128
        buckets[10] = 2; // 1000 → bucket 10, floor 512
        buckets[12] = 1; // 4000 → bucket 12, floor 2048
        assert_eq!(quantile_floor_permille(&buckets, 500), bucket_floor(8));
        assert_eq!(quantile_floor_permille(&buckets, 990), bucket_floor(12));
        assert_eq!(quantile_floor_permille(&buckets, 0), bucket_floor(8));
        assert_eq!(quantile_floor_permille(&buckets, 1000), bucket_floor(12));
        assert_eq!(quantile_floor_permille(&[], 500), 0);
        assert_eq!(quantile_floor_permille(&[0; 65], 500), 0);
        // Saturated top bucket.
        let mut top = vec![0u64; 65];
        top[64] = 4;
        assert_eq!(quantile_floor_permille(&top, 500), 1u64 << 63);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = RingSeries::new(3);
        assert!(ring.is_empty());
        for t in 1..=5 {
            ring.push(pt(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ticks: Vec<u64> = ring.to_vec().iter().map(|p| p.tick).collect();
        assert_eq!(ticks, vec![3, 4, 5], "oldest first");
        assert_eq!(ring.last().map(|p| p.tick), Some(5));
    }

    #[test]
    fn utilization_permille_saturates() {
        let p = SamplePoint {
            busy_ns: 250,
            ..Default::default()
        };
        assert_eq!(p.utilization_permille(1000), 250);
        let p = SamplePoint {
            busy_ns: 5000,
            ..Default::default()
        };
        assert_eq!(p.utilization_permille(1000), 1000);
        assert_eq!(p.utilization_permille(0), 1000, "zero interval clamps");
    }
}
