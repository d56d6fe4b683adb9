//! Workspace automation driver. Five subcommands:
//!
//! ```text
//! cargo run -p xtask -- lint [--json] [--audit-allows] [FILE…]
//! cargo run -p xtask -- trace-report [--json] [--top N] [--strict] <file.jsonl>
//! cargo run -p xtask -- obs-report [--json] [--strict] <telemetry.jsonl>
//! cargo run -p xtask -- profile-report [--json] [--top N] [--folded] <file.jsonl>
//! cargo run -p xtask -- bench-diff [--max-drop-pct F] <old.json> <new.json>
//! ```
//!
//! `lint` with no files runs the per-file rules plus the workspace
//! lock-order analysis over every workspace crate's `src/` and exits
//! non-zero when any diagnostic is produced; `--audit-allows` instead
//! re-runs every rule with suppression off and fails on any
//! `// pcm-lint: allow(…)` comment whose rule no longer fires there.
//! `trace-report` summarizes a `pcm-trace` JSONL file: per-bank op
//! counts, span-duration histograms, scrub/demand interleaving, and
//! the longest spans. `obs-report` summarizes a `pcm-telemetry` JSONL
//! export: per-bank sample tables, sparklines of demand ops and
//! corrected symbols per interval, and scrub/demand interference
//! windows; on both, `--strict` fails the run when the source ring
//! dropped anything.
//! `profile-report` reconstructs causal per-request latency
//! attribution from correlation ids in a trace (DESIGN.md §17);
//! `--folded` emits collapsed flamegraph stacks instead.
//! `bench-diff` compares two bench JSON documents and fails when a
//! throughput leaf drops more than `--max-drop-pct` percent (default
//! 10). Where supported, `--json` switches to the stable
//! machine-readable schema documented in DESIGN.md §15.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("trace-report") => trace_report(&args[1..]),
        Some("obs-report") => obs_report(&args[1..]),
        Some("profile-report") => profile_report(&args[1..]),
        Some("bench-diff") => bench_diff(&args[1..]),
        Some(other) => {
            eprintln!("unknown xtask subcommand `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!("usage: cargo run -p xtask -- lint [--json] [--audit-allows] [FILE…]");
    eprintln!(
        "       cargo run -p xtask -- trace-report [--json] [--top N] [--strict] <file.jsonl>"
    );
    eprintln!("       cargo run -p xtask -- obs-report [--json] [--strict] <telemetry.jsonl>");
    eprintln!(
        "       cargo run -p xtask -- profile-report [--json] [--top N] [--folded] <file.jsonl>"
    );
    eprintln!("       cargo run -p xtask -- bench-diff [--max-drop-pct F] <old.json> <new.json>");
    eprintln!();
    eprintln!("rules:");
    for rule in xtask::rules::all() {
        eprintln!("  {:<26} {}", rule.id(), rule.describe());
    }
    eprintln!(
        "  {:<26} workspace lock graph vs. declared order {}",
        xtask::lock_order::RULE,
        xtask::lock_order::DECLARED_ORDER.join(" -> ")
    );
    eprintln!();
    eprintln!("suppress with `// pcm-lint: allow(<rule>)` plus a justification;");
    eprintln!("`--audit-allows` fails on suppressions whose rule no longer fires");
}

/// The workspace root: xtask lives at `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn trace_report(args: &[String]) -> ExitCode {
    let mut opts = xtask::trace_report::Options::default();
    let mut file: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--top" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.top = n,
                _ => {
                    eprintln!("trace-report: --top needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if file.is_none() => file = Some(other),
            other => {
                eprintln!("trace-report: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = file else {
        eprintln!("trace-report: no trace file given");
        usage();
        return ExitCode::from(2);
    };
    match xtask::trace_report::report_file(path, &opts) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn obs_report(args: &[String]) -> ExitCode {
    let mut opts = xtask::obs_report::Options::default();
    let mut file: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--json" => opts.json = true,
            "--strict" => opts.strict = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if file.is_none() => file = Some(other),
            other => {
                eprintln!("obs-report: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = file else {
        eprintln!("obs-report: no telemetry file given");
        usage();
        return ExitCode::from(2);
    };
    match xtask::obs_report::report_file(path, &opts) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs-report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn profile_report(args: &[String]) -> ExitCode {
    let mut opts = xtask::profile_report::Options::default();
    let mut file: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--folded" => opts.folded = true,
            "--top" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => opts.top = n,
                _ => {
                    eprintln!("profile-report: --top needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if file.is_none() => file = Some(other),
            other => {
                eprintln!("profile-report: unexpected argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = file else {
        eprintln!("profile-report: no trace file given");
        usage();
        return ExitCode::from(2);
    };
    match xtask::profile_report::report_file(path, &opts) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("profile-report: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench_diff(args: &[String]) -> ExitCode {
    let mut files: Vec<&str> = Vec::new();
    let mut tolerance = xtask::bench_diff::TOLERANCE_PCT;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "--max-drop-pct" => {
                let Some(raw) = it.next() else {
                    eprintln!("bench-diff: --max-drop-pct needs a value");
                    return ExitCode::from(2);
                };
                match xtask::bench_diff::parse_tolerance(raw) {
                    Ok(pct) => tolerance = pct,
                    Err(e) => {
                        eprintln!("bench-diff: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            other => files.push(other),
        }
    }
    let [old, new] = files[..] else {
        eprintln!("bench-diff: want exactly two files (old.json new.json)");
        usage();
        return ExitCode::from(2);
    };
    match xtask::bench_diff::diff_files_with(old, new, tolerance) {
        Ok(diff) => {
            print!("{}", diff.render_text());
            if diff.regressions().is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut audit = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--audit-allows" => audit = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    let root = workspace_root();
    if audit {
        if !files.is_empty() {
            eprintln!("pcm-lint: --audit-allows takes no file arguments");
            return ExitCode::from(2);
        }
        return audit_allows(&root, json);
    }
    let diags = if files.is_empty() {
        match xtask::lint_workspace(&root) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("pcm-lint: workspace walk failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let mut out = Vec::new();
        for path in &files {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pcm-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let rel = path.to_string_lossy().replace('\\', "/");
            // Explicit files get the strictest scope: treat them as
            // library+determinism+locking code so every rule can fire.
            out.extend(xtask::lint_source(&rel, "pcm-device", &src));
        }
        out
    };

    if json {
        println!("{}", xtask::json_document(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!("pcm-lint: clean");
        ExitCode::SUCCESS
    } else {
        let files: std::collections::BTreeSet<&str> =
            diags.iter().map(|d| d.file.as_str()).collect();
        eprintln!(
            "pcm-lint: {} diagnostic(s) across {} file(s)",
            diags.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// `cargo lint --audit-allows`: fail (exit 1) when any suppression is
/// stale, so CI keeps the allow list shrinking monotonically.
fn audit_allows(root: &Path, json: bool) -> ExitCode {
    let (total, stale) = match xtask::audit_allows(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pcm-lint: workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", xtask::audit_json_document(total, &stale));
    } else {
        for s in &stale {
            println!("{s}");
        }
    }
    if stale.is_empty() {
        eprintln!("pcm-lint: all {total} allow suppression(s) are live");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pcm-lint: {} of {total} allow suppression(s) are stale",
            stale.len()
        );
        ExitCode::FAILURE
    }
}
