//! `store_throughput` — the KV serving-layer benchmark and its
//! determinism gate.
//!
//! Runs the fixed-seed zipfian workload against a freshly formatted
//! `PcmStore` at each requested thread count, asserts the summed op
//! totals are identical across thread counts (the pcm-store determinism
//! contract), and writes `BENCH_store.json`: a shared `"ops"` object
//! (byte-identical across runs and thread counts) plus one `"runs"`
//! entry per thread count with model-time latency percentiles and
//! throughput. The `"runs"` metrics may wobble at >1 threads — physical
//! page placement follows allocation order, so wear-dependent write
//! costs vary with scheduling — but `"ops"` never does; it is the
//! determinism gate CI compares across back-to-back invocations.
//!
//! After the gate runs, a fourth pass replays the workload phase-by-
//! phase on a telemetry-enabled store (`run_phased`: slices of ops
//! interleaved with model-time advances and background scrub) on one
//! thread, so its exports repeat byte for byte from run to run, and its
//! per-bank series summary lands under a separate top-level
//! `"telemetry"` key — the CI gate's `"ops"`/`"runs"` comparison never
//! sees it. `--telemetry-out` additionally exports the full series as
//! the byte-stable JSONL `obs-report` consumes, and `--metrics-out`
//! dumps the telemetry pass's raw per-bank device counters.
//!
//! `--profile-out FILE` turns on event tracing for the phased pass and
//! writes the causal request profile (DESIGN.md §17): per-request
//! latency attribution as JSONL at `FILE`, plus collapsed flamegraph
//! stacks at `FILE.folded`. Correlation ids ride per-actor split
//! counters, so the profile is byte-identical at any thread count; the
//! traced pass's op totals are still gated against the untraced runs.
//!
//! ```text
//! store_throughput [--seed N] [--actors N] [--keys N] [--ops N]
//!                  [--value-bytes N] [--mix a|b|c] [--theta F]
//!                  [--threads 1,2,8] [--out BENCH_store.json]
//!                  [--metrics-out FILE] [--telemetry-out FILE]
//!                  [--profile-out FILE]
//! ```
//!
//! Exit status is nonzero if any run fails or if two thread counts
//! disagree on totals, so CI can gate on it directly.

use pcm_device::{jsonl, DeviceBuilder, TelemetryConfig, TelemetrySnapshot, TraceConfig};
use pcm_store::workload::{
    run, run_phased, Mix, OpTotals, PhasedConfig, WorkloadConfig, WorkloadReport,
};
use pcm_store::{PcmStore, StoreConfig};
use pcm_trace::json;

struct Args {
    cfg: WorkloadConfig,
    threads: Vec<usize>,
    out: String,
    metrics_out: Option<String>,
    telemetry_out: Option<String>,
    profile_out: Option<String>,
}

fn parse_args() -> Args {
    let mut cfg = WorkloadConfig::default();
    let mut threads = vec![1usize, 2, 8];
    let mut out = String::from("BENCH_store.json");
    let mut metrics_out = None;
    let mut telemetry_out = None;
    let mut profile_out = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| {
                eprintln!("missing value for {}", argv[*i - 1]);
                std::process::exit(2);
            })
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seed" => cfg.seed = value(&mut i).parse().expect("--seed"),
            "--actors" => cfg.actors = value(&mut i).parse().expect("--actors"),
            "--keys" => cfg.keys_per_actor = value(&mut i).parse().expect("--keys"),
            "--ops" => cfg.ops_per_actor = value(&mut i).parse().expect("--ops"),
            "--value-bytes" => cfg.value_bytes = value(&mut i).parse().expect("--value-bytes"),
            "--theta" => cfg.zipf_theta = value(&mut i).parse().expect("--theta"),
            "--mix" => {
                let name = value(&mut i);
                cfg.mix = Mix::preset(&name).unwrap_or_else(|| {
                    eprintln!("unknown mix '{name}' (want a, b, or c)");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                threads = value(&mut i)
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads"))
                    .collect();
            }
            "--out" => out = value(&mut i),
            "--metrics-out" => metrics_out = Some(value(&mut i)),
            "--telemetry-out" => telemetry_out = Some(value(&mut i)),
            "--profile-out" => profile_out = Some(value(&mut i)),
            other => {
                eprintln!("unknown flag '{other}'");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    Args {
        cfg,
        threads,
        out,
        metrics_out,
        telemetry_out,
        profile_out,
    }
}

fn fresh_store(
    cfg: &WorkloadConfig,
    telemetry: Option<TelemetryConfig>,
    trace: Option<TraceConfig>,
) -> PcmStore {
    let store_cfg = StoreConfig {
        dir_buckets: 64,
        stripes: 16,
    };
    let banks = 8;
    let blocks = cfg.required_blocks(&store_cfg).div_ceil(banks) * banks;
    let mut builder = DeviceBuilder::new()
        .blocks(blocks)
        .banks(banks)
        .seed(cfg.seed);
    if let Some(t) = telemetry {
        builder = builder.telemetry(t);
    }
    if let Some(t) = trace {
        builder = builder.trace(t);
    }
    let dev = builder.build_sharded().expect("device build");
    PcmStore::format(dev, store_cfg).expect("store format")
}

fn ops_json(t: &OpTotals) -> String {
    json::object(|o| {
        o.num("preload_puts", t.preload_puts)
            .num("gets", t.gets)
            .num("puts", t.puts)
            .num("deletes", t.deletes)
            .num("hits", t.hits)
            .num("misses", t.misses)
            .num("mismatches", t.mismatches)
            .num("measured_ops", t.measured_ops());
    })
}

/// The phased-replay cadence: eight op slices, each followed by a 25 ms
/// model-time advance with scrub running behind it. One telemetry
/// sample per advance (interval = advance), so every bank retains eight
/// points.
const TELEMETRY_PHASES: usize = 8;
const TELEMETRY_ADVANCE_SECS: f64 = 0.025;
const TELEMETRY_INTERVAL_NS: u64 = 25_000_000;
const TELEMETRY_SCRUB_SECS: f64 = 0.005;

/// Per-bank trace ring for the `--profile-out` pass. Sized so the
/// default workload records loss-free; a bigger workload that wraps is
/// reported via the profile's orphan/drop counts, not an error.
const PROFILE_TRACE_CAPACITY: usize = 1 << 16;

fn telemetry_json(snap: &TelemetrySnapshot) -> String {
    let points: usize = snap.per_bank.iter().map(|b| b.points.len()).sum();
    let dropped: u64 = snap.per_bank.iter().map(|b| b.dropped).sum();
    json::object(|o| {
        o.num("interval_ns", snap.sample_interval_ns)
            .num("banks", snap.per_bank.len())
            .num("points", points)
            .num("dropped", dropped);
    })
}

fn run_json(r: &WorkloadReport) -> String {
    json::object(|o| {
        o.num("threads", r.threads)
            .num("busy_ns", r.busy_ns)
            .num("p50_ns", r.p50_ns)
            .num("p95_ns", r.p95_ns)
            .num("p99_ns", r.p99_ns)
            .num(
                "kops_per_model_sec",
                format_args!("{:.3}", r.kops_per_model_sec),
            );
    })
}

fn main() {
    let args = parse_args();
    let cfg = &args.cfg;
    println!(
        "store_throughput: seed {} | {} actors x {} keys x {} ops | {}B values | {}% reads | theta {}",
        cfg.seed,
        cfg.actors,
        cfg.keys_per_actor,
        cfg.ops_per_actor,
        cfg.value_bytes,
        cfg.mix.read_pct,
        cfg.zipf_theta
    );

    let mut reports = Vec::new();
    for &threads in &args.threads {
        let store = fresh_store(cfg, None, None);
        let report = run(&store, cfg, threads).unwrap_or_else(|e| {
            eprintln!("workload failed at {threads} threads: {e}");
            std::process::exit(1);
        });
        println!(
            "  {:>2} threads: {} ops | busy {} ms | p50/p95/p99 {}/{}/{} ns | {:.1} kops/model-s",
            threads,
            report.totals.measured_ops(),
            report.busy_ns / 1_000_000,
            report.p50_ns,
            report.p95_ns,
            report.p99_ns,
            report.kops_per_model_sec
        );
        reports.push(report);
    }

    let baseline = reports[0].totals;
    for r in &reports[1..] {
        if r.totals != baseline {
            eprintln!(
                "DETERMINISM VIOLATION: totals at {} threads differ from {} threads",
                r.threads, reports[0].threads
            );
            std::process::exit(1);
        }
    }
    if baseline.mismatches != 0 {
        eprintln!(
            "INTEGRITY VIOLATION: {} read mismatches",
            baseline.mismatches
        );
        std::process::exit(1);
    }

    // The observability pass: same workload, phased, on a fresh
    // telemetry-enabled store. Its totals must still match the gate
    // runs (the phased runner preserves each actor's op stream); its
    // series summary rides under a separate top-level key so the CI
    // `"ops"`/`"runs"` comparison is untouched.
    // One thread: per-interval bank figures (busy time, queueing) follow
    // how sessions interleave on a bank, so only a single-threaded pass
    // makes `--telemetry-out` and `--metrics-out` repeat byte for byte.
    let tel_threads = 1;
    let trace_cfg = args
        .profile_out
        .as_ref()
        .map(|_| TraceConfig::new(PROFILE_TRACE_CAPACITY));
    let store = fresh_store(
        cfg,
        Some(TelemetryConfig::new(TELEMETRY_INTERVAL_NS)),
        trace_cfg,
    );
    let phased = PhasedConfig {
        phases: TELEMETRY_PHASES,
        advance_secs: TELEMETRY_ADVANCE_SECS,
        scrub_interval_secs: Some(TELEMETRY_SCRUB_SECS),
    };
    let tel_report = run_phased(&store, cfg, &phased, tel_threads).unwrap_or_else(|e| {
        eprintln!("telemetry pass failed: {e}");
        std::process::exit(1);
    });
    if tel_report.totals != baseline {
        eprintln!("DETERMINISM VIOLATION: phased telemetry pass totals diverged");
        std::process::exit(1);
    }
    let snap = store
        .device()
        .telemetry()
        .expect("telemetry enabled on this store")
        .snapshot();
    println!(
        "  telemetry: {} banks x {} points",
        snap.per_bank.len(),
        snap.per_bank.first().map_or(0, |b| b.points.len())
    );
    if let Some(path) = &args.telemetry_out {
        std::fs::write(path, snap.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path} (telemetry series JSONL for obs-report)");
    }
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, store.device().metrics().snapshot().to_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path} (per-bank device counters of the telemetry pass)");
    }
    if let Some(path) = &args.profile_out {
        let trace_doc = jsonl::export(
            &store
                .device()
                .tracer()
                .buffer()
                .expect("tracing enabled for --profile-out")
                .snapshot(),
        );
        let profile = pcm_sim::profile::build(&trace_doc).unwrap_or_else(|e| {
            eprintln!("profile attribution failed: {e}");
            std::process::exit(1);
        });
        std::fs::write(path, profile.to_jsonl()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        let folded_path = format!("{path}.folded");
        std::fs::write(&folded_path, profile.to_folded()).unwrap_or_else(|e| {
            eprintln!("cannot write {folded_path}: {e}");
            std::process::exit(1);
        });
        let stalled: u64 = profile
            .scrub_interference()
            .iter()
            .map(|(_, stalled, _)| stalled)
            .sum();
        println!(
            "  profile: {} requests attributed | {} stalled behind scrub | {} orphan event(s)",
            profile.requests.len(),
            stalled,
            profile.orphan_events
        );
        println!("wrote {path} (request profile JSONL) and {folded_path} (flamegraph folded)");
    }

    let runs: Vec<String> = reports.iter().map(run_json).collect();
    let config = json::object(|o| {
        o.num("seed", cfg.seed)
            .num("actors", cfg.actors)
            .num("keys_per_actor", cfg.keys_per_actor)
            .num("ops_per_actor", cfg.ops_per_actor)
            .num("value_bytes", cfg.value_bytes)
            .num("read_pct", cfg.mix.read_pct)
            .num("zipf_theta", cfg.zipf_theta);
    });
    // The layout (one top-level key per line) is this file's own; every
    // object in it comes from the shared writer.
    let doc = format!(
        "{{\n  \"bench\": \"store_throughput\",\n  \"config\": {config},\n  \"ops\": {},\n  \
         \"runs\": [\n    {}\n  ],\n  \"telemetry\": {}\n}}\n",
        ops_json(&baseline),
        runs.join(",\n    "),
        telemetry_json(&snap)
    );
    std::fs::write(&args.out, &doc).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!(
        "wrote {} (totals identical across {:?} threads)",
        args.out, args.threads
    );
}
