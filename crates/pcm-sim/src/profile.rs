//! Causal request profiling: per-request latency attribution over a
//! JSONL trace (the model behind `cargo run -p xtask -- profile-report`).
//!
//! The trace layer stamps every event with a correlation id (`ctx`, see
//! `pcm_trace::ctx`): a top-level request — a `kv_get`/`kv_put`/
//! `kv_delete`, a demand `read`/`write`/`refresh`, or a whole scrub
//! pass — allocates one id, and every child event it causes (device
//! reads and writes, nested `ecc_decode` work, `scrub_stall` drains)
//! carries that id, with directory/allocator traffic additionally
//! marked by the ctx index flag. This module groups a trace by id base
//! and splits each request's duration into named latency buckets:
//!
//! * **media** — unflagged device busy windows (value data traffic);
//! * **ecc_decode** — BCH decode work carved out of read windows;
//! * **alloc_index** — index-flagged busy windows: directory slot and
//!   overflow-page writes (the store reads no index page at run time,
//!   so this is write time only);
//! * **scrub_wait** — accumulated scrub debt the request drained;
//! * **queue_wait** — the remainder of the request's span not covered
//!   by any child (scheduling slack; exactly 0 for KV requests, whose
//!   spans are defined as the sum of their children);
//! * **overrun** — child time exceeding the request span (0 on a
//!   well-formed trace; nonzero flags ring overwrite or a model bug).
//!
//! Buckets are integer nanoseconds and sum to `duration_ns` exactly
//! (`queue_wait` absorbs slack, `overrun` absorbs excess), so the
//! attribution is residual-free by construction — the property the
//! `profile_determinism` oracle asserts. Everything here is a pure
//! function of the input text: reports, folded stacks, and JSONL
//! exports are byte-stable for a given trace.

use pcm_trace::jsonl::{fail, str_field, u64_field};
use pcm_trace::{ctx_base, ctx_is_index, jsonl, OpKind, Phase, TraceDecodeError, NO_CTX};
use std::collections::BTreeMap;

/// Where a request's time went, integer ns. Invariant: the six buckets
/// sum to the request's `duration_ns` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBuckets {
    /// Unflagged device busy time (value/data media windows).
    pub media_ns: u64,
    /// ECC decode work (carved out of the read windows it overlaps).
    pub ecc_ns: u64,
    /// Index-flagged device busy time (directory page writes).
    pub alloc_index_ns: u64,
    /// Scrub debt drained ahead of the request's device ops.
    pub scrub_wait_ns: u64,
    /// Request-span time not covered by any child span.
    pub queue_wait_ns: u64,
    /// Child time beyond the request span (0 on a well-formed trace).
    pub overrun_ns: u64,
}

impl LatencyBuckets {
    /// Sum of all buckets (equals the request duration plus overrun).
    pub fn total_ns(&self) -> u64 {
        self.media_ns
            + self.ecc_ns
            + self.alloc_index_ns
            + self.scrub_wait_ns
            + self.queue_wait_ns
            + self.overrun_ns
    }

    /// `(name, value)` pairs in canonical order (folded-stack names).
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("media", self.media_ns),
            ("ecc_decode", self.ecc_ns),
            ("alloc_index", self.alloc_index_ns),
            ("scrub_wait", self.scrub_wait_ns),
            ("queue_wait", self.queue_wait_ns),
            ("overrun", self.overrun_ns),
        ]
    }
}

/// One child event attributed to a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildSpan {
    /// Child kind.
    pub kind: OpKind,
    /// Bank the child ran on.
    pub bank: u32,
    /// Block, or [`pcm_trace::NO_BLOCK`].
    pub block: u32,
    /// Start, model ns.
    pub start_ns: u64,
    /// Duration, ns (0 for instants).
    pub duration_ns: u64,
    /// Whether the child's ctx carried the index flag.
    pub index: bool,
}

/// One reconstructed request with its attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestProfile {
    /// The request's base correlation id (index flag cleared).
    pub ctx: u64,
    /// Root kind (`kv_*`, `read`, `write`, `refresh`, or `scrub_pass`).
    pub kind: OpKind,
    /// Bank the root span was recorded on.
    pub bank: u32,
    /// Block of the root span (directory page for KV ops).
    pub block: u32,
    /// Request start, model ns.
    pub start_ns: u64,
    /// Request duration, ns. For demand roots this includes the
    /// `scrub_stall` served at issue, so buckets always sum to it.
    pub duration_ns: u64,
    /// The six-way latency split (sums to `duration_ns` + overrun... no:
    /// media+ecc+index+scrub+queue = duration, overrun is the excess).
    pub buckets: LatencyBuckets,
    /// Child spans attributed to this request (persisted as a count).
    pub child_spans: u64,
    /// The children themselves (empty after [`parse`] — only [`build`]
    /// reconstructs them from the raw trace).
    pub children: Vec<ChildSpan>,
}

/// A whole trace's causal profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Banks in the traced device.
    pub banks: usize,
    /// Requests, sorted by ctx (class, stream, then sequence).
    pub requests: Vec<RequestProfile>,
    /// Span halves with no partner, plus ctx-carrying spans whose root
    /// never appeared (ring overwrite splits both ways).
    pub orphan_events: u64,
    /// Events recorded without a correlation id.
    pub unattributed_events: u64,
}

/// One span reconstructed from a Begin/End pair, ctx attached.
#[derive(Debug, Clone, Copy)]
struct CtxSpan {
    kind: OpKind,
    bank: u32,
    block: u32,
    start_ns: u64,
    duration_ns: u64,
    ctx: u64,
}

/// Root precedence: a group's request span is its highest-ranked
/// member. KV ops sit above the device ops they issue; a scrub pass
/// sits above its refreshes; a bare demand op is its own root.
fn root_rank(kind: OpKind) -> u8 {
    match kind {
        OpKind::KvGet | OpKind::KvPut | OpKind::KvDelete => 3,
        OpKind::ScrubPass => 2,
        OpKind::Read | OpKind::Write | OpKind::Refresh => 1,
        _ => 0,
    }
}

/// Build the causal profile of a JSONL trace document.
pub fn build(doc: &str) -> Result<Profile, TraceDecodeError> {
    let parsed = jsonl::parse(doc)?;
    let mut spans: Vec<CtxSpan> = Vec::new();
    let mut orphans = 0u64;
    let mut unattributed = 0u64;
    // Per-(bank, kind) sets of open Begin events. Both halves of a span
    // carry the same ctx and block, so an End is matched to the oldest
    // open Begin with its (ctx, block) — concurrent sessions interleave
    // freely in model time, which makes blind FIFO pairing swap
    // durations between requests (totals conserved, attribution wrong).
    let mut open: Vec<Vec<(u64, u32, u64)>> = vec![Vec::new(); parsed.banks * OpKind::ALL.len()];
    for ev in &parsed.events {
        if ev.ctx == NO_CTX {
            unattributed += 1;
        }
        let bank = ev.bank as usize;
        if bank >= parsed.banks {
            continue;
        }
        let kind_ix = kind_index(ev.kind);
        let lane = bank * OpKind::ALL.len() + kind_ix;
        match ev.phase {
            Phase::Begin => open[lane].push((ev.t_ns, ev.block, ev.ctx)),
            Phase::End => {
                let at = open[lane]
                    .iter()
                    .position(|&(_, b, c)| b == ev.block && c == ev.ctx);
                match at {
                    None => orphans += 1,
                    Some(i) => {
                        let (start, block, ctx) = open[lane].remove(i);
                        spans.push(CtxSpan {
                            kind: ev.kind,
                            bank: ev.bank,
                            block,
                            start_ns: start,
                            duration_ns: ev.t_ns.saturating_sub(start),
                            ctx,
                        });
                    }
                }
            }
            // Instants join their request as zero-duration children.
            Phase::Instant => spans.push(CtxSpan {
                kind: ev.kind,
                bank: ev.bank,
                block: ev.block,
                start_ns: ev.t_ns,
                duration_ns: 0,
                ctx: ev.ctx,
            }),
        }
    }
    orphans += open.iter().map(|s| s.len() as u64).sum::<u64>();

    // Group attributed spans by base id. BTreeMap gives the canonical
    // (class, stream, seq) request order for free.
    let mut groups: BTreeMap<u64, Vec<CtxSpan>> = BTreeMap::new();
    for s in spans {
        if s.ctx != NO_CTX {
            groups.entry(ctx_base(s.ctx)).or_default().push(s);
        }
    }

    let mut requests = Vec::with_capacity(groups.len());
    for (base, mut members) in groups {
        // Stable member order: by start, then kind code, then block, so
        // the profile is invariant to per-bank lane interleaving.
        members.sort_by_key(|s| (s.start_ns, kind_index(s.kind), s.bank, s.block));
        let root_at = members
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (root_rank(s.kind), usize::MAX - i))
            .map(|(i, _)| i);
        let root = match root_at {
            Some(i) if root_rank(members[i].kind) > 0 => members.remove(i),
            _ => {
                // A rootless group: its request span was lost (ring
                // overwrite) — count the strays rather than inventing
                // a request for them.
                orphans += members.len() as u64;
                continue;
            }
        };
        requests.push(attribute(base, root, members));
    }

    Ok(Profile {
        banks: parsed.banks,
        requests,
        orphan_events: orphans,
        unattributed_events: unattributed,
    })
}

/// Fold one request's children into its latency buckets.
fn attribute(base: u64, root: CtxSpan, members: Vec<CtxSpan>) -> RequestProfile {
    let mut media = 0u64;
    let mut ecc = 0u64;
    let mut ecc_media = 0u64; // decode time nested in unflagged reads
    let mut ecc_index = 0u64; // decode time nested in flagged reads
    let mut index = 0u64;
    let mut scrub = 0u64;
    let mut children = Vec::with_capacity(members.len());
    for s in &members {
        let flagged = ctx_is_index(s.ctx);
        match s.kind {
            OpKind::Read | OpKind::Write | OpKind::Refresh => {
                if flagged {
                    index += s.duration_ns;
                } else {
                    media += s.duration_ns;
                }
            }
            OpKind::EccDecode => {
                ecc += s.duration_ns;
                if flagged {
                    ecc_index += s.duration_ns;
                } else {
                    ecc_media += s.duration_ns;
                }
            }
            OpKind::ScrubStall => scrub += s.duration_ns,
            _ => {}
        }
        children.push(ChildSpan {
            kind: s.kind,
            bank: s.bank,
            block: s.block,
            start_ns: s.start_ns,
            duration_ns: s.duration_ns,
            index: flagged,
        });
    }
    // A demand root IS its own media window (its ECC children subtract
    // below); its stall precedes the busy span, so the request duration
    // covers both.
    let duration_ns = match root_rank(root.kind) {
        1 => {
            if ctx_is_index(root.ctx) {
                index += root.duration_ns;
            } else {
                media += root.duration_ns;
            }
            root.duration_ns + scrub
        }
        _ => root.duration_ns,
    };
    // Decode work is carved out of the read window it overlaps, so it
    // moves time between buckets rather than adding any.
    media = media.saturating_sub(ecc_media);
    index = index.saturating_sub(ecc_index);
    let used = media + ecc + index + scrub;
    let buckets = LatencyBuckets {
        media_ns: media,
        ecc_ns: ecc,
        alloc_index_ns: index,
        scrub_wait_ns: scrub,
        queue_wait_ns: duration_ns.saturating_sub(used),
        overrun_ns: used.saturating_sub(duration_ns),
    };
    RequestProfile {
        ctx: base,
        kind: root.kind,
        bank: root.bank,
        block: root.block,
        start_ns: root.start_ns,
        duration_ns,
        buckets,
        child_spans: children.len() as u64,
        children,
    }
}

fn kind_index(kind: OpKind) -> usize {
    OpKind::ALL.iter().position(|&k| k == kind).unwrap_or(0)
}

impl Profile {
    /// Collapsed-stack ("folded") export: one `root;bucket weight` line
    /// per nonzero bucket, weights in ns summed over all requests of
    /// that root kind, lexicographically sorted — ready for any
    /// flamegraph renderer that accepts folded stacks.
    pub fn to_folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for r in &self.requests {
            for (name, weight) in r.buckets.named() {
                if weight > 0 {
                    *stacks
                        .entry(format!("{};{}", r.kind.name(), name))
                        .or_insert(0) += weight;
                }
            }
        }
        let mut out = String::new();
        for (stack, weight) in stacks {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// JSONL export: one meta line, then one line per request in ctx
    /// order, fixed field order — byte-stable for a given trace.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"meta\",\"profile\":1,\"banks\":{},\"requests\":{},\
             \"orphan_events\":{},\"unattributed_events\":{}}}\n",
            self.banks,
            self.requests.len(),
            self.orphan_events,
            self.unattributed_events
        );
        for r in &self.requests {
            out.push_str(&format!(
                "{{\"type\":\"request\",\"ctx\":{},\"kind\":\"{}\",\"bank\":{},\"block\":{},\
                 \"t_ns\":{},\"duration_ns\":{},\"media_ns\":{},\"ecc_ns\":{},\
                 \"alloc_index_ns\":{},\"scrub_wait_ns\":{},\"queue_wait_ns\":{},\
                 \"overrun_ns\":{},\"children\":{}}}\n",
                r.ctx,
                r.kind.name(),
                r.bank,
                r.block,
                r.start_ns,
                r.duration_ns,
                r.buckets.media_ns,
                r.buckets.ecc_ns,
                r.buckets.alloc_index_ns,
                r.buckets.scrub_wait_ns,
                r.buckets.queue_wait_ns,
                r.buckets.overrun_ns,
                r.child_spans,
            ));
        }
        out
    }
}

/// Parse a profile JSONL export back into a [`Profile`] (children are
/// not persisted, so each request's `children` vec comes back empty;
/// `child_spans` keeps the count). `parse(p.to_jsonl())` reproduces `p`
/// up to that, and re-exporting is byte-identical.
pub fn parse(doc: &str) -> Result<Profile, TraceDecodeError> {
    let mut meta: Option<(usize, u64, u64)> = None;
    let mut requests = Vec::new();
    for (idx, raw) in doc.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        match str_field(line, "type").ok_or(fail(lineno, "missing \"type\" field"))? {
            "meta" => {
                if u64_field(line, "profile") != Some(1) {
                    return Err(fail(lineno, "not a profile:1 document"));
                }
                meta = Some((
                    u64_field(line, "banks").ok_or(fail(lineno, "meta missing banks"))? as usize,
                    u64_field(line, "orphan_events")
                        .ok_or(fail(lineno, "meta missing orphan_events"))?,
                    u64_field(line, "unattributed_events")
                        .ok_or(fail(lineno, "meta missing unattributed_events"))?,
                ));
            }
            "request" => {
                let kind = str_field(line, "kind")
                    .and_then(OpKind::from_name)
                    .ok_or(fail(lineno, "unknown op kind"))?;
                let need = |key: &'static str| u64_field(line, key).ok_or(fail(lineno, key));
                requests.push(RequestProfile {
                    ctx: need("ctx")?,
                    kind,
                    bank: need("bank")? as u32,
                    block: need("block")? as u32,
                    start_ns: need("t_ns")?,
                    duration_ns: need("duration_ns")?,
                    buckets: LatencyBuckets {
                        media_ns: need("media_ns")?,
                        ecc_ns: need("ecc_ns")?,
                        alloc_index_ns: need("alloc_index_ns")?,
                        scrub_wait_ns: need("scrub_wait_ns")?,
                        queue_wait_ns: need("queue_wait_ns")?,
                        overrun_ns: need("overrun_ns")?,
                    },
                    child_spans: need("children")?,
                    children: Vec::new(),
                });
            }
            _ => return Err(fail(lineno, "unknown record type")),
        }
    }
    let (banks, orphan_events, unattributed_events) = meta.ok_or(fail(1, "no meta line"))?;
    Ok(Profile {
        banks,
        requests,
        orphan_events,
        unattributed_events,
    })
}

/// Aggregate rows for the per-kind table (and the JSON export).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindAttribution {
    /// Root kind.
    pub kind: OpKind,
    /// Requests of this kind.
    pub count: u64,
    /// Summed request duration, ns.
    pub duration_ns: u64,
    /// Summed buckets.
    pub buckets: LatencyBuckets,
}

impl Profile {
    /// Per-root-kind bucket totals, in [`OpKind::ALL`] order.
    pub fn by_kind(&self) -> Vec<KindAttribution> {
        let mut rows: Vec<KindAttribution> = Vec::new();
        for &kind in OpKind::ALL.iter() {
            let mut row = KindAttribution {
                kind,
                count: 0,
                duration_ns: 0,
                buckets: LatencyBuckets::default(),
            };
            for r in self.requests.iter().filter(|r| r.kind == kind) {
                row.count += 1;
                row.duration_ns += r.duration_ns;
                row.buckets.media_ns += r.buckets.media_ns;
                row.buckets.ecc_ns += r.buckets.ecc_ns;
                row.buckets.alloc_index_ns += r.buckets.alloc_index_ns;
                row.buckets.scrub_wait_ns += r.buckets.scrub_wait_ns;
                row.buckets.queue_wait_ns += r.buckets.queue_wait_ns;
                row.buckets.overrun_ns += r.buckets.overrun_ns;
            }
            if row.count > 0 {
                rows.push(row);
            }
        }
        rows
    }

    /// `(requests stalled, total stall ns)` per bank — the scrub
    /// interference table.
    pub fn scrub_interference(&self) -> Vec<(u32, u64, u64)> {
        let mut per_bank: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for r in &self.requests {
            if r.buckets.scrub_wait_ns > 0 {
                let slot = per_bank.entry(r.bank).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += r.buckets.scrub_wait_ns;
            }
        }
        per_bank
            .into_iter()
            .map(|(bank, (n, ns))| (bank, n, ns))
            .collect()
    }

    /// Human-readable rendering with a top-`top` slowest-requests table
    /// (what `profile-report` prints by default).
    pub fn render_text(&self, top: usize) -> String {
        let mut out = format!(
            "profile: {} requests over {} banks ({} orphan, {} unattributed events)\n",
            self.requests.len(),
            self.banks,
            self.orphan_events,
            self.unattributed_events
        );
        out.push_str("latency attribution by request kind (ns):\n");
        out.push_str(&format!(
            "{:>10} {:>7} {:>12} {:>12} {:>10} {:>12} {:>11} {:>11} {:>8}\n",
            "kind",
            "count",
            "duration",
            "media",
            "ecc",
            "alloc_index",
            "scrub_wait",
            "queue_wait",
            "overrun"
        ));
        for row in self.by_kind() {
            out.push_str(&format!(
                "{:>10} {:>7} {:>12} {:>12} {:>10} {:>12} {:>11} {:>11} {:>8}\n",
                row.kind.name(),
                row.count,
                row.duration_ns,
                row.buckets.media_ns,
                row.buckets.ecc_ns,
                row.buckets.alloc_index_ns,
                row.buckets.scrub_wait_ns,
                row.buckets.queue_wait_ns,
                row.buckets.overrun_ns
            ));
        }
        let interference = self.scrub_interference();
        if interference.is_empty() {
            out.push_str("scrub interference: none\n");
        } else {
            out.push_str("scrub interference by bank:\n");
            out.push_str(&format!(
                "{:>4} {:>16} {:>14}\n",
                "bank", "stalled_requests", "stall_ns"
            ));
            for (bank, n, ns) in interference {
                out.push_str(&format!("{bank:>4} {n:>16} {ns:>14}\n"));
            }
        }
        let mut slowest: Vec<&RequestProfile> = self.requests.iter().collect();
        slowest.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.ctx.cmp(&b.ctx)));
        slowest.truncate(top);
        out.push_str(&format!("top {} slowest requests:\n", slowest.len()));
        out.push_str(&format!(
            "{:>3} {:>10} {:>20} {:>4} {:>12} {:>12} {:>11} {:>8}\n",
            "#", "kind", "ctx", "bank", "start_ns", "duration_ns", "scrub_wait", "children"
        ));
        for (i, r) in slowest.iter().enumerate() {
            out.push_str(&format!(
                "{:>3} {:>10} {:>20} {:>4} {:>12} {:>12} {:>11} {:>8}\n",
                i + 1,
                r.kind.name(),
                format!("{:#x}", r.ctx),
                r.bank,
                r.start_ns,
                r.duration_ns,
                r.buckets.scrub_wait_ns,
                r.child_spans
            ));
        }
        let overruns = self
            .requests
            .iter()
            .filter(|r| r.buckets.overrun_ns > 0)
            .count();
        if overruns > 0 || self.orphan_events > 0 {
            out.push_str(&format!(
                "warning: {} requests with overrun, {} orphan events \
                 (ring overwrite or attribution bug)\n",
                overruns, self.orphan_events
            ));
        }
        out
    }

    /// The aggregate report as one JSON object with a fixed field order
    /// (no external dependencies) — what `profile-report --json` emits.
    pub fn to_json(&self) -> String {
        let kinds: Vec<String> = self
            .by_kind()
            .iter()
            .map(|row| {
                format!(
                    "{{\"kind\":\"{}\",\"count\":{},\"duration_ns\":{},\"media_ns\":{},\
                     \"ecc_ns\":{},\"alloc_index_ns\":{},\"scrub_wait_ns\":{},\
                     \"queue_wait_ns\":{},\"overrun_ns\":{}}}",
                    row.kind.name(),
                    row.count,
                    row.duration_ns,
                    row.buckets.media_ns,
                    row.buckets.ecc_ns,
                    row.buckets.alloc_index_ns,
                    row.buckets.scrub_wait_ns,
                    row.buckets.queue_wait_ns,
                    row.buckets.overrun_ns
                )
            })
            .collect();
        let scrub: Vec<String> = self
            .scrub_interference()
            .iter()
            .map(|(bank, n, ns)| {
                format!("{{\"bank\":{bank},\"stalled_requests\":{n},\"stall_ns\":{ns}}}")
            })
            .collect();
        let overruns = self
            .requests
            .iter()
            .filter(|r| r.buckets.overrun_ns > 0)
            .count();
        format!(
            "{{\"banks\":{},\"requests\":{},\"orphan_events\":{},\"unattributed_events\":{},\
             \"overrun_requests\":{},\"kinds\":[{}],\"scrub_interference\":[{}]}}",
            self.banks,
            self.requests.len(),
            self.orphan_events,
            self.unattributed_events,
            overruns,
            kinds.join(","),
            scrub.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcm_trace::{jsonl, pack_ctx, CtxClass, Recorder, TraceConfig, CTX_INDEX_FLAG};

    /// A hand-built trace: one KV get (index read + data read with ECC +
    /// a scrub stall), one bare demand write, one scrub pass.
    fn sample_doc() -> String {
        let rec = Recorder::buffered(2, &TraceConfig::new(64));
        let kv = pack_ctx(CtxClass::Kv, 3, 0);
        // index read 200 ns
        rec.span_ctx(
            OpKind::Read,
            0,
            1,
            (1000, 1200),
            (0, 0),
            kv | CTX_INDEX_FLAG,
        );
        // data read 200 ns, 3 corrected symbols → 48 ns of decode
        rec.span_ctx(OpKind::Read, 0, 9, (1200, 1400), (0, 3), kv);
        rec.span_ctx(OpKind::EccDecode, 0, 9, (1352, 1400), (3, 3), kv);
        // 300 ns of drained scrub debt
        rec.span_ctx(OpKind::ScrubStall, 0, 9, (1000, 1300), (300, 300), kv);
        // the KV root: 200 + 200 + 300 = 700 ns
        rec.span_ctx(OpKind::KvGet, 0, 1, (1000, 1700), (7, 2), kv);

        let demand = pack_ctx(CtxClass::Demand, 1, 0);
        rec.span_ctx(OpKind::Write, 1, 5, (2000, 3000), (1, 0), demand);

        let scrub = pack_ctx(CtxClass::Scrub, 1, 9);
        rec.span_ctx(OpKind::Refresh, 1, 7, (4000, 5200), (0, 0), scrub);
        rec.span_ctx(
            OpKind::ScrubPass,
            1,
            pcm_trace::NO_BLOCK,
            (4000, 6000),
            (9, 1),
            scrub,
        );
        jsonl::export(&rec.buffer().unwrap().snapshot())
    }

    #[test]
    fn buckets_partition_each_request_exactly() {
        let p = build(&sample_doc()).unwrap();
        assert_eq!(p.requests.len(), 3);
        assert_eq!(p.orphan_events, 0);
        for r in &p.requests {
            assert_eq!(
                r.buckets.media_ns
                    + r.buckets.ecc_ns
                    + r.buckets.alloc_index_ns
                    + r.buckets.scrub_wait_ns
                    + r.buckets.queue_wait_ns,
                r.duration_ns,
                "{r:?}"
            );
            assert_eq!(r.buckets.overrun_ns, 0, "{r:?}");
        }
    }

    #[test]
    fn kv_request_attributes_all_buckets() {
        let p = build(&sample_doc()).unwrap();
        let kv = p.requests.iter().find(|r| r.kind == OpKind::KvGet).unwrap();
        assert_eq!(kv.duration_ns, 700);
        assert_eq!(kv.buckets.alloc_index_ns, 200);
        assert_eq!(kv.buckets.media_ns, 200 - 48);
        assert_eq!(kv.buckets.ecc_ns, 48);
        assert_eq!(kv.buckets.scrub_wait_ns, 300);
        assert_eq!(kv.buckets.queue_wait_ns, 0);
        assert_eq!(kv.child_spans, 4);
    }

    #[test]
    fn scrub_pass_slack_lands_in_queue_wait() {
        let p = build(&sample_doc()).unwrap();
        let pass = p
            .requests
            .iter()
            .find(|r| r.kind == OpKind::ScrubPass)
            .unwrap();
        assert_eq!(pass.duration_ns, 2000);
        assert_eq!(pass.buckets.media_ns, 1200);
        assert_eq!(pass.buckets.queue_wait_ns, 800);
    }

    #[test]
    fn folded_and_jsonl_round_trip_are_stable() {
        let doc = sample_doc();
        let p = build(&doc).unwrap();
        let folded = p.to_folded();
        assert!(folded.contains("kv_get;scrub_wait 300\n"), "{folded}");
        assert!(folded.contains("scrub_pass;queue_wait 800\n"), "{folded}");
        // Lines are sorted and every weight is nonzero.
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        let jsonl_doc = p.to_jsonl();
        let reparsed = parse(&jsonl_doc).unwrap();
        assert_eq!(reparsed.to_jsonl(), jsonl_doc);
        assert_eq!(reparsed.requests.len(), p.requests.len());
        for (a, b) in reparsed.requests.iter().zip(&p.requests) {
            assert_eq!(a.buckets, b.buckets);
            assert_eq!(a.child_spans, b.child_spans);
        }
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let doc = sample_doc();
        let a = build(&doc).unwrap();
        let b = build(&doc).unwrap();
        assert_eq!(a.render_text(5), b.render_text(5));
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.render_text(5).contains("scrub interference by bank:"));
        assert!(a.to_json().starts_with("{\"banks\":2,"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(build("not json\n").is_err());
        assert!(parse("{\"type\":\"meta\",\"profile\":2}\n").is_err());
        assert!(parse("").is_err());
    }
}
