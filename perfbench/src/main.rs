//! `perfbench` — host-time benchmark of the MLC-PCM stack, end to end
//! through `pcm-store` and layer by layer below it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the store in a closed loop: each call waits
//! for its reply before the next is issued. A run repeats one round
//! until `--seconds` have passed; each round sets the store up from
//! scratch and replays the same seeded op sequence, timing every call,
//! so all rounds do identical simulated work. Each call's latency is
//! its upper quartile over the rounds, never the slowest: the host's
//! speed wanders over seconds and stalls single calls, and this is the
//! per-call figure that moved least between runs (see `README.md`). The
//! percentiles are taken over those per-call figures, and throughput is
//! the op count over their sum plus the scrub steps' figures. With
//! `--trace 0` the last stdout line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run.
//! `README.md` in this directory records the design, the workloads and
//! the noise study that set the bounds.

mod layers;
mod rng;
mod sys;
mod workload;

use layers::LayerTimes;
use pcm_device::block::{FOUR_LEVEL_BLOCK_CELLS, THREE_LEVEL_BLOCK_CELLS};
use std::fmt::Write as _;
use std::time::Instant;
use workload::{Counts, Org, Round, Spec, TraceFacts};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-ups `setup_s` is taken over: a run with fewer rounds sets the
/// store up again, without a measured phase, until it has this many.
const MIN_SETUPS: usize = 15;

/// Samples a percentile needs beyond it before it is reported.
const TAIL_SAMPLES: usize = 10;

/// The op sequence of a run: the workload's op count, grown until both
/// gets and puts carry at least [`TAIL_SAMPLES`] samples beyond their
/// p99.
fn op_plan(spec: &Spec, seed: u64) -> Vec<workload::Op> {
    let mut ops = spec.ops;
    loop {
        let plan = workload::plan(spec, seed, ops);
        let gets = plan.iter().filter(|o| o.get).count();
        if gets >= 100 * TAIL_SAMPLES && plan.len() - gets >= 100 * TAIL_SAMPLES {
            return plan;
        }
        ops += ops / 16;
    }
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Host-time summary of a set of identical rounds: each call's and each
/// scrub step's typical time over the rounds.
struct Typical {
    get_ns: Vec<u64>,
    put_ns: Vec<u64>,
    call_total_ns: u64,
    scrub_total_ns: u64,
    ops: usize,
}

/// One position's typical time across rounds: the upper quartile
/// (nearest rank), but never the slowest round while there are two or
/// more. The host spends most of its time in a slow state with fast
/// spells of tens of seconds and rare stalls; the upper quartile stays
/// in the common state through a spell, and skipping the slowest repeat
/// drops a stall.
fn typical_at(rounds: &[&Round], pick: impl Fn(&Round) -> &[u64], i: usize) -> u64 {
    let mut v: Vec<u64> = rounds.iter().map(|r| pick(r)[i]).collect();
    v.sort_unstable();
    v.get(typical_index(v.len())).copied().unwrap_or(0)
}

/// Index, in ascending order, of the typical one of `n` repeats (see
/// [`typical_at`]).
fn typical_index(n: usize) -> usize {
    (3 * n).div_ceil(4).min(n.saturating_sub(1)).max(1) - 1
}

/// The typical one of several repeated timings (see [`typical_at`]);
/// NaN for none.
fn typical(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(typical_index(v.len())).copied().unwrap_or(f64::NAN)
}

impl Typical {
    fn of(rounds: &[&Round], plan: &[workload::Op]) -> Typical {
        let calls: Vec<u64> = (0..plan.len())
            .map(|i| typical_at(rounds, |r| &r.call_ns, i))
            .collect();
        let steps = rounds.first().map_or(0, |r| r.scrub_ns.len());
        let scrub_total_ns = (0..steps)
            .map(|i| typical_at(rounds, |r| &r.scrub_ns, i))
            .sum();
        let (mut get_ns, mut put_ns) = (Vec::new(), Vec::new());
        for (op, &ns) in plan.iter().zip(&calls) {
            if op.get {
                get_ns.push(ns);
            } else {
                put_ns.push(ns);
            }
        }
        get_ns.sort_unstable();
        put_ns.sort_unstable();
        Typical {
            get_ns,
            put_ns,
            call_total_ns: calls.iter().sum(),
            scrub_total_ns,
            ops: plan.len(),
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / ((self.call_total_ns + self.scrub_total_ns) as f64 / 1e9)
    }

    fn get_us(&self, q: f64) -> f64 {
        percentile(&self.get_ns, q) / 1e3
    }

    fn put_us(&self, q: f64) -> f64 {
        percentile(&self.put_ns, q) / 1e3
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Exact simulated counts of a round, as printed on every run.
fn counts_json(c: &Counts) -> String {
    format!(
        "{{\"gets\": {}, \"puts\": {}, \"get_reads\": {}, \"put_reads\": {}, \"put_writes\": {}, \
         \"demand_corrected\": {}, \"demand_busy_ns\": {}, \"scrub_blocks\": {}, \
         \"scrub_failures\": {}, \"scrub_corrected\": {}, \"scrub_busy_ns\": {}, \"remaps\": {}, \
         \"uncorrectables\": {}, \"store.dev_reads_per_get\": {}, \"store.dev_reads_per_put\": {}, \
         \"store.dev_writes_per_put\": {}, \"model.kv_busy_ns_per_op\": {}, \
         \"model.scrub_busy_share\": {}}}",
        c.gets,
        c.puts,
        c.get_reads,
        c.put_reads,
        c.put_writes,
        c.demand_corrected,
        c.demand_busy_ns,
        c.scrub_blocks,
        c.scrub_failures,
        c.scrub_corrected,
        c.scrub_busy_ns,
        c.remaps,
        c.uncorrectables,
        ratio(c.get_reads, c.gets),
        ratio(c.put_reads, c.puts),
        ratio(c.put_writes, c.puts),
        ratio(c.demand_busy_ns, c.gets + c.puts),
        ratio(c.scrub_busy_ns, c.scrub_busy_ns + c.demand_busy_ns),
    )
}

fn trace_json(t: &TraceFacts) -> String {
    format!(
        "{{\"events\": {}, \"dropped\": {}, \"writes\": {}, \"write_attempts\": {}, \
         \"kv_requests\": {}, \"kv_duration_ns\": {}, \"media_ns\": {}, \"ecc_ns\": {}, \
         \"alloc_index_ns\": {}, \"scrub_wait_ns\": {}, \"queue_wait_ns\": {}, \"overrun_ns\": {}}}",
        t.events,
        t.dropped,
        t.writes,
        t.write_attempts,
        t.kv_requests,
        t.kv_duration_ns,
        t.buckets.media_ns,
        t.buckets.ecc_ns,
        t.buckets.alloc_index_ns,
        t.buckets.scrub_wait_ns,
        t.buckets.queue_wait_ns,
        t.buckets.overrun_ns,
    )
}

/// Oldest data the workload reads: its aging, or one scrub period.
fn data_age_secs(spec: &Spec) -> f64 {
    match spec.scrub {
        Some(plan) => plan.interval_secs,
        None => spec.aging_secs,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark and prints its result; `Ok(false)` when an output
/// check failed.
fn run(args: &Args) -> Result<bool, String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload '{}' (known: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    // One-time lazy set-up (optimized level designs, GF tables) is paid
    // once per process; finish it before anything is timed.
    let _ = (
        Org::ThreeLevel.organization(),
        Org::FourLevel.organization(),
    );
    let _ = pcm_ecc::bch::Bch::new(10, 10);
    let _ = pcm_ecc::bch::Bch::new(10, 1);

    let plan = op_plan(&spec, args.seed);
    let calib_before = sys::calibrate();
    // Rounds until the next would end past `--seconds` (at least two).
    // A traced run alternates untraced and traced rounds, and times the
    // layers after each pair, so the layer timings sample the same host
    // states as the rounds they explain.
    let step = if args.trace { 2 } else { 1 };
    let budget = args.seconds as f64;
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut layer_reps = Vec::new();
    loop {
        let t = Instant::now();
        for i in 0..step {
            rounds.push(workload::run_round(&spec, args.seed, &plan, i == 1)?);
        }
        if let Some(facts) = rounds.last().and_then(|r| r.trace.as_ref()) {
            let c = &rounds[0].counts;
            layer_reps.push(layers::measure(
                spec.org,
                &facts.read_pages,
                &facts.write_pages,
                data_age_secs(&spec),
                ratio(c.demand_corrected, c.get_reads + c.put_reads),
                args.seed,
            )?);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if rounds.len() >= 2 && elapsed + t.elapsed().as_secs_f64() > budget {
            break;
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(workload::setup(&spec, args.seed, false, plan.len())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let calib_after = sys::calibrate();

    let attempted: u64 = rounds.iter().map(|r| r.call_ns.len() as u64).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let wrong_bytes: u64 = rounds.iter().map(|r| r.wrong_bytes).sum();
    let counts = rounds[0].counts.clone();
    let counts_repeat = rounds.iter().all(|r| r.counts == counts);
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_some()).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_none()).collect();
    let facts = traced.first().and_then(|r| r.trace.clone());
    let facts_repeat = traced.iter().all(|r| r.trace == facts);
    let dropped = facts.as_ref().map_or(0, |f| f.dropped);

    let host = Typical::of(&untraced, &plan);
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"rounds\": {}, \
         \"ops_per_round\": {}, \"get_samples\": {}, \"put_samples\": {}, \
         \"machine\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\"}}, \
         \"calibration_us\": {{\"before_min\": {:.1}, \"before_median\": {:.1}, \
         \"after_min\": {:.1}, \"after_median\": {:.1}}}, \
         \"round_ops_per_s\": [{}], \"setup_s\": [{}], \"counts\": {}, \"counts_repeat\": {}, \
         \"trace_facts\": {}, \"trace_repeat\": {}}}",
        spec.name,
        args.seed,
        args.seconds,
        args.trace,
        rounds.len(),
        plan.len(),
        host.get_ns.len(),
        host.put_ns.len(),
        sys::nproc(),
        sys::cpu_model(),
        sys::rustc(),
        calib_before.0,
        calib_before.1,
        calib_after.0,
        calib_after.1,
        rounds
            .iter()
            .map(|r| {
                let ns: u64 = r.call_ns.iter().sum::<u64>() + r.scrub_ns.iter().sum::<u64>();
                format!("{:.1}", plan.len() as f64 / (ns as f64 / 1e9))
            })
            .collect::<Vec<_>>()
            .join(", "),
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        counts_json(&counts),
        counts_repeat,
        facts.as_ref().map_or("null".to_string(), trace_json),
        facts_repeat,
    );
    println!("record {record}");

    let mut problems = Vec::new();
    if wrong_bytes > 0 {
        problems.push(format!("{wrong_bytes} get(s) returned wrong bytes"));
    }
    if failed > 0 {
        problems.push(format!("{failed} op(s) failed"));
    }
    if counts.scrub_failures > 0 {
        problems.push(format!(
            "scrub failed on {} block(s)",
            counts.scrub_failures
        ));
    }
    if !counts_repeat || !facts_repeat {
        problems.push("simulated counts differ between identical rounds".to_string());
    }
    if dropped > 0 {
        problems.push(format!("{dropped} trace/telemetry event(s) dropped"));
    }

    let metrics = if args.trace {
        let facts = facts.ok_or("the traced run recorded no trace")?;
        let times = LayerTimes::typical(&layer_reps);
        let traced_host = Typical::of(&traced, &plan);
        let (table, metrics) = layer_report(&spec, &counts, &facts, &host, &traced_host, &times);
        print!("{table}");
        metrics
    } else {
        vec![
            m("kv_ops_per_s", host.ops_per_s(), "1/s"),
            m("kv_get_p50_us", host.get_us(0.50), "us"),
            m("kv_get_p99_us", host.get_us(0.99), "us"),
            m("kv_put_p50_us", host.put_us(0.50), "us"),
            m("kv_put_p99_us", host.put_us(0.99), "us"),
            m("setup_s", typical(setups), "s"),
            m("peak_rss_mb", sys::peak_rss_mb()?, "MiB"),
        ]
    };
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// The per-layer metrics of a traced run, and the table that explains
/// each op's end-to-end time by layer.
fn layer_report(
    spec: &Spec,
    c: &Counts,
    f: &TraceFacts,
    host: &Typical,
    traced_host: &Typical,
    t: &LayerTimes,
) -> (String, Vec<Metric>) {
    let ops = c.gets + c.puts;
    let reads_per_get = ratio(c.get_reads, c.gets);
    let reads_per_put = ratio(c.put_reads, c.puts);
    let writes_per_put = ratio(c.put_writes, c.puts);
    let get_p50 = host.get_us(0.5);
    let put_p50 = host.put_us(0.5);
    let self_get = get_p50 - reads_per_get * t.device_read_block_us;
    let self_put =
        put_p50 - reads_per_put * t.device_read_block_us - writes_per_put * t.device_write_block_us;
    let scrub_us = host.scrub_total_ns as f64 / 1e3;
    let scrub_share =
        host.scrub_total_ns as f64 / (host.scrub_total_ns + host.call_total_ns) as f64;
    let untraced_ns = (host.call_total_ns + host.scrub_total_ns) as f64;
    let traced_ns = (traced_host.call_total_ns + traced_host.scrub_total_ns) as f64;

    // Per-block-op split of the datapath into the layers it calls.
    let (cells, ecc_read, ecc_write, codec) = match spec.org {
        Org::ThreeLevel => (
            THREE_LEVEL_BLOCK_CELLS as f64,
            t.tec_decode_us,
            0.0,
            t.three_on_two_us,
        ),
        Org::FourLevel => (
            FOUR_LEVEL_BLOCK_CELLS as f64,
            t.bch10_decode_fresh_us + t.aged_share * (t.bch10_decode_us - t.bch10_decode_fresh_us),
            t.bch10_encode_us,
            t.gray_smart_us,
        ),
    };
    let ecp = if spec.org == Org::FourLevel {
        t.ecp_apply_us
    } else {
        0.0
    };
    let sense = cells * t.cell_sense_ns / 1e3;
    let program = cells * t.cell_program_ns / 1e3;
    let read_rows = [
        ("cell sense (pcm-core)", sense),
        ("ecc decode (pcm-ecc)", ecc_read),
        ("symbol decode (pcm-codec)", codec / 2.0),
        ("ecp (pcm-wearout)", ecp),
        (
            "block, other",
            t.block_read_us - sense - ecc_read - codec / 2.0 - ecp,
        ),
        (
            "engine + hooks (device - block)",
            t.device_read_block_us - t.block_read_us,
        ),
    ];
    let write_rows = [
        ("cell program (pcm-core)", program),
        ("ecc encode (pcm-ecc)", ecc_write),
        ("symbol encode (pcm-codec)", codec / 2.0),
        (
            "block, other",
            t.block_write_us - program - ecc_write - codec / 2.0,
        ),
        (
            "engine + hooks (device - block)",
            t.device_write_block_us - t.block_write_us,
        ),
    ];

    let mut s = String::new();
    let _ = writeln!(
        s,
        "layer table: {} (host us per op, upper quartile of rounds; {:.1}% of reads at the aged error mix)",
        spec.name,
        100.0 * t.aged_share
    );
    let op_table = |s: &mut String, op: &str, e2e: f64, reads: f64, writes: f64| {
        let _ = writeln!(
            s,
            "  {op}: end to end p50 {e2e:.2} us = {reads:.2} reads + {writes:.2} writes + store"
        );
        let mut sum = 0.0;
        for (name, us) in read_rows {
            let v = reads * us;
            sum += v;
            let _ = writeln!(
                s,
                "    read  {name:<34} {v:>9.2}  {:>5.1}%",
                100.0 * v / e2e
            );
        }
        for (name, us) in write_rows.iter().filter(|_| writes > 0.0) {
            let v = writes * us;
            sum += v;
            let _ = writeln!(
                s,
                "    write {name:<34} {v:>9.2}  {:>5.1}%",
                100.0 * v / e2e
            );
        }
        let _ = writeln!(
            s,
            "    layer sum                                {sum:>9.2}  {:>5.1}%",
            100.0 * sum / e2e
        );
        let _ = writeln!(
            s,
            "    unexplained (store self time)            {:>9.2}  {:>5.1}%",
            e2e - sum,
            100.0 * (e2e - sum) / e2e
        );
    };
    op_table(&mut s, "get", get_p50, reads_per_get, 0.0);
    op_table(&mut s, "put", put_p50, reads_per_put, writes_per_put);
    let (top, share) = read_rows
        .iter()
        .map(|&(n, us)| (n, us / t.device_read_block_us))
        .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a });
    let _ = writeln!(
        s,
        "  largest share of a device read: {top} ({:.1}%)",
        100.0 * share
    );
    let put_program_share = writes_per_put * program / put_p50;
    let _ = writeln!(
        s,
        "  cell programming share of a put: {:.1}%",
        100.0 * put_program_share
    );
    let _ = writeln!(
        s,
        "  scrub share of the measured phase: {:.1}%",
        100.0 * scrub_share
    );

    let per_op = |ns: u64| ratio(ns, ops);
    let metrics = vec![
        m("store.dev_reads_per_get", reads_per_get, "count"),
        m("store.dev_reads_per_put", reads_per_put, "count"),
        m("store.dev_writes_per_put", writes_per_put, "count"),
        m("store.self_us_per_get", self_get, "us"),
        m("store.self_us_per_put", self_put, "us"),
        m("device.read_block_us", t.device_read_block_us, "us"),
        m("device.write_block_us", t.device_write_block_us, "us"),
        m("block.read_us", t.block_read_us, "us"),
        m("block.write_us", t.block_write_us, "us"),
        m(
            "device.write_attempts_per_write",
            ratio(f.write_attempts, f.writes),
            "count",
        ),
        m("cell.program_ns", t.cell_program_ns, "ns"),
        m("cell.sense_ns", t.cell_sense_ns, "ns"),
        m("ecc.tec_decode_us", t.tec_decode_us, "us"),
        m("ecc.bch10_encode_us", t.bch10_encode_us, "us"),
        m("ecc.bch10_decode_us", t.bch10_decode_us, "us"),
        m("ecc.bch10_decode_batch_us", t.bch10_decode_batch_us, "us"),
        m(
            "ecc.corrected_per_read",
            ratio(c.demand_corrected, c.get_reads + c.put_reads),
            "count",
        ),
        m("codec.three_on_two_us", t.three_on_two_us, "us"),
        m("codec.gray_smart_us", t.gray_smart_us, "us"),
        m("wearout.ecp_apply_us", t.ecp_apply_us, "us"),
        m("scrub.blocks", c.scrub_blocks as f64, "count"),
        m(
            "scrub.us_per_block",
            scrub_us / c.scrub_blocks.max(1) as f64,
            "us",
        ),
        m("scrub.host_share", scrub_share, "ratio"),
        m(
            "scrub.corrected_per_block",
            ratio(c.scrub_corrected, c.scrub_blocks),
            "count",
        ),
        m(
            "model.kv_busy_ns_per_op",
            ratio(c.demand_busy_ns, ops),
            "ns",
        ),
        m(
            "model.scrub_busy_share",
            ratio(c.scrub_busy_ns, c.scrub_busy_ns + c.demand_busy_ns),
            "ratio",
        ),
        m("model.media_ns_per_op", per_op(f.buckets.media_ns), "ns"),
        m("model.ecc_ns_per_op", per_op(f.buckets.ecc_ns), "ns"),
        m(
            "model.alloc_index_ns_per_op",
            per_op(f.buckets.alloc_index_ns),
            "ns",
        ),
        m(
            "model.scrub_wait_ns_per_op",
            per_op(f.buckets.scrub_wait_ns),
            "ns",
        ),
        m(
            "model.queue_wait_ns_per_op",
            per_op(f.buckets.queue_wait_ns),
            "ns",
        ),
        m(
            "instr.traced_slowdown_pct",
            100.0 * (traced_ns / untraced_ns - 1.0),
            "%",
        ),
        m("instr.events_per_op", ratio(f.events, ops), "count"),
        m("instr.dropped_events", f.dropped as f64, "count"),
    ];
    (s, metrics)
}
