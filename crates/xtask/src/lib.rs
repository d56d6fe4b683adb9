//! `pcm-lint` — the workspace's in-repo static-analysis pass.
//!
//! Earlier PRs made hard correctness promises: bit-identical sharded
//! vs. sequential execution, integer-tick scrub scheduling, per-bank
//! RNG streams, and library paths that return typed errors instead of
//! panicking. Nothing in `rustc`/`clippy` enforces those — they hold
//! only until an edit reintroduces a float tick, an ad-hoc second
//! lock, or an `unwrap()` in a hot path. This crate machine-checks
//! them:
//!
//! * [`rules`] — the per-file invariant catalogue (`no-panic-lib`,
//!   `no-float-tick`, `no-ambient-nondeterminism`, `atomic-ordering`,
//!   `no-deprecated-internal`);
//! * [`lock_order`] — the workspace-level inter-procedural lock-order
//!   analysis (declared order `stripe → allocator → bank →
//!   bch-registry → gf-registry`, cycle detection, sanctioned pair
//!   helper);
//! * [`model`] — the item/call-graph model the inter-procedural pass
//!   runs on;
//! * [`lexer`] — a hand-rolled, dependency-free Rust lexer (the
//!   hermetic build cannot fetch `syn`);
//! * [`source`] — test-region / fn-span / allow-comment structure;
//!
//! Run it as `cargo lint` (alias for `cargo run -p xtask -- lint`).
//! Suppress a finding with `// pcm-lint: allow(<rule>)` on the same or
//! the preceding line, plus a one-line justification; `cargo lint
//! --audit-allows` re-checks every suppression and fails on stale
//! ones, so the allow list can only shrink.

pub mod bench_diff;
pub mod lexer;
pub mod lock_order;
pub mod model;
pub mod obs_report;
pub mod profile_report;
pub mod rules;
pub mod source;
pub mod trace_report;

use model::Workspace;
use pcm_trace::json;
use source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The `--json` document schema version. Bump on any breaking change
/// to the field set (documented in DESIGN.md §15).
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id (also the allow-comment key).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}\n    help: {}",
            self.file, self.line, self.col, self.rule, self.message, self.suggestion
        )
    }
}

impl Diagnostic {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        json::object(|o| self.json_fields(o))
    }

    fn json_fields(&self, o: &mut json::Object<'_>) {
        o.str("rule", self.rule)
            .str("file", &self.file)
            .num("line", self.line)
            .num("col", self.col)
            .str("message", &self.message)
            .str("suggestion", &self.suggestion);
    }
}

/// A stale (or malformed) `// pcm-lint: allow(…)` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleAllow {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the allow comment.
    pub line: u32,
    /// The rule id the comment names.
    pub rule: String,
    /// Why the suppression is stale.
    pub reason: String,
}

impl fmt::Display for StaleAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: stale allow({}) — {}",
            self.file, self.line, self.rule, self.reason
        )
    }
}

/// The stable `--json` lint document (schema in DESIGN.md §15):
/// `{"schema_version", "tool", "mode": "lint", "count", "diagnostics"}`.
pub fn json_document(diags: &[Diagnostic]) -> String {
    json::object(|o| {
        o.num("schema_version", JSON_SCHEMA_VERSION)
            .str("tool", "pcm-lint")
            .str("mode", "lint")
            .num("count", diags.len())
            .objects("diagnostics", diags, |o, d| d.json_fields(o));
    })
}

/// The stable `--json` audit document:
/// `{"schema_version", "tool", "mode": "audit-allows", "allow_count",
/// "stale_count", "stale"}`.
pub fn audit_json_document(total_allows: usize, stale: &[StaleAllow]) -> String {
    json::object(|o| {
        o.num("schema_version", JSON_SCHEMA_VERSION)
            .str("tool", "pcm-lint")
            .str("mode", "audit-allows")
            .num("allow_count", total_allows)
            .num("stale_count", stale.len())
            .objects("stale", stale, |o, s| {
                o.str("file", &s.file)
                    .num("line", s.line)
                    .str("rule", &s.rule)
                    .str("reason", &s.reason);
            });
    })
}

/// Run every per-file rule on `f` without allow filtering.
fn raw_file_diagnostics(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules::all() {
        rule.check(f, &mut out);
    }
    out
}

/// Lint one source string: per-file rules plus the lock-order analysis
/// on a single-file workspace. `rel` is the path reported in
/// diagnostics; `crate_name` selects which rules apply.
pub fn lint_source(rel: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
    let ws = Workspace::single(SourceFile::parse(rel, crate_name, src));
    let f = &ws.files[0];
    let mut out = raw_file_diagnostics(f);
    lock_order::check(&ws, &mut out);
    out.retain(|d| !f.is_allowed(d.rule, d.line));
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Expected-diagnostic markers in fixture files: a trailing
/// `//~ <rule-id>` comment asserts one diagnostic of that rule on its
/// line. Returns `(line, rule)` pairs in line order.
pub fn expected_markers(src: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for tok in lexer::lex(src) {
        if tok.kind != lexer::TokKind::LineComment {
            continue;
        }
        if let Some(rest) = tok.text.strip_prefix("//~") {
            out.push((tok.line, rest.trim().to_string()));
        }
    }
    out
}

/// A workspace crate to lint.
#[derive(Debug, Clone)]
pub struct CrateDir {
    /// Package name from its `Cargo.toml`.
    pub name: String,
    /// Path to the crate root (directory containing `Cargo.toml`).
    pub dir: PathBuf,
}

/// Crates the lint never walks: shims mimic external crate APIs, and
/// xtask's own fixture corpus is deliberate violations.
const SKIPPED_MEMBER_PREFIXES: &[&str] = &["crates/shim", "crates/xtask"];

/// Discover the workspace's lintable crates from the root `Cargo.toml`
/// (hand-parsed: the hermetic build has no toml crate). Includes the
/// root `mlc-pcm` package itself.
pub fn workspace_crates(root: &Path) -> io::Result<Vec<CrateDir>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut members: Vec<String> = Vec::new();
    let mut in_members = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                members.push(piece.to_string());
            }
            if line.contains(']') {
                break;
            }
        }
    }
    let mut crates = Vec::new();
    for member in members {
        if SKIPPED_MEMBER_PREFIXES
            .iter()
            .any(|p| member.starts_with(p))
        {
            continue;
        }
        let dir = root.join(&member);
        if let Some(name) = package_name(&dir.join("Cargo.toml"))? {
            crates.push(CrateDir { name, dir });
        }
    }
    // The root package (`mlc-pcm`) has its own src/.
    if let Some(name) = package_name(&root.join("Cargo.toml"))? {
        crates.push(CrateDir {
            name,
            dir: root.to_path_buf(),
        });
    }
    Ok(crates)
}

/// The `name = "…"` of a manifest's `[package]` section, if present.
fn package_name(manifest: &Path) -> io::Result<Option<String>> {
    let text = match fs::read_to_string(manifest) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package && line.starts_with("name") {
            if let Some(name) = line.split('"').nth(1) {
                return Ok(Some(name.to_string()));
            }
        }
    }
    Ok(None)
}

/// A crate's direct `[dependencies]` entries from its manifest
/// (`pcm-core.workspace = true` / `pcm-core = { … }` forms).
fn direct_deps(manifest: &Path) -> io::Result<BTreeSet<String>> {
    let text = match fs::read_to_string(manifest) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    let mut deps = BTreeSet::new();
    let mut in_deps = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if !name.is_empty() {
            deps.insert(name);
        }
    }
    Ok(deps)
}

/// Parse every lintable file of the workspace into the item model the
/// inter-procedural analyses run on.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for krate in workspace_crates(root)? {
        deps.insert(
            krate.name.clone(),
            direct_deps(&krate.dir.join("Cargo.toml"))?,
        );
        let src_dir = krate.dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs_files(&src_dir, &mut paths)?;
        paths.sort();
        for path in paths {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = fs::read_to_string(&path)?;
            files.push(SourceFile::parse(&rel, &krate.name, &src));
        }
    }
    Ok(Workspace::new(files, &deps))
}

/// All diagnostics for a loaded workspace, *before* allow filtering:
/// per-file rules on every file plus one lock-order pass over the
/// whole item model.
fn raw_workspace_diagnostics(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in &ws.files {
        out.extend(raw_file_diagnostics(f));
    }
    lock_order::check(ws, &mut out);
    out
}

/// Lint every `src/**/*.rs` of every workspace crate — per-file rules
/// plus the workspace-wide lock-order analysis. Diagnostics come back
/// allow-filtered and sorted by file, then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let ws = load_workspace(root)?;
    let by_rel: BTreeMap<&str, &SourceFile> =
        ws.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut out = raw_workspace_diagnostics(&ws);
    out.retain(|d| {
        by_rel
            .get(d.file.as_str())
            .is_none_or(|f| !f.is_allowed(d.rule, d.line))
    });
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(out)
}

/// The suppression audit: re-run every rule with filtering off and
/// report each `// pcm-lint: allow(<rule>)` whose rule no longer fires
/// on the line it covers (its own or the one below), plus allows
/// naming unknown rule ids. Returns `(total_allow_sites, stale)`.
pub fn audit_allows(root: &Path) -> io::Result<(usize, Vec<StaleAllow>)> {
    let ws = load_workspace(root)?;
    let raw = raw_workspace_diagnostics(&ws);
    let mut fired: BTreeSet<(&str, &str, u32)> = BTreeSet::new();
    for d in &raw {
        fired.insert((d.file.as_str(), d.rule, d.line));
    }
    let known = rules::known_rule_ids();
    let mut total = 0usize;
    let mut stale = Vec::new();
    for f in &ws.files {
        for (line, rule) in f.allow_sites() {
            total += 1;
            if !known.contains(&rule.as_str()) {
                stale.push(StaleAllow {
                    file: f.rel.clone(),
                    line,
                    rule,
                    reason: format!("no rule by that id (known: {})", known.join(", ")),
                });
                continue;
            }
            // An allow covers its own line and the next one.
            let live = fired.contains(&(f.rel.as_str(), rule.as_str(), line))
                || fired.contains(&(f.rel.as_str(), rule.as_str(), line + 1));
            if !live {
                stale.push(StaleAllow {
                    file: f.rel.clone(),
                    line,
                    rule,
                    reason: "the suppressed rule no longer fires here; delete the comment"
                        .to_string(),
                });
            }
        }
    }
    stale.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok((total, stale))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_comment_suppresses_the_diagnostic() {
        let src =
            "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // pcm-lint: allow(no-panic-lib)\n}\n";
        assert!(lint_source("lib.rs", "pcm-core", src).is_empty());
        let src_no_allow = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let diags = lint_source("lib.rs", "pcm-core", src_no_allow);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "no-panic-lib");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn rules_scope_by_crate() {
        // unwrap in a non-library crate (bench) is fine.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(lint_source("lib.rs", "pcm-bench", src).is_empty());
        assert_eq!(lint_source("lib.rs", "pcm-ecc", src).len(), 1);
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let d = Diagnostic {
            rule: "no-panic-lib",
            file: "a\\b.rs".into(),
            line: 1,
            col: 2,
            message: "say \"hi\"".into(),
            suggestion: "line\nbreak".into(),
        };
        let j = d.to_json();
        assert!(j.contains(r#""file":"a\\b.rs""#));
        assert!(j.contains(r#"say \"hi\""#));
        assert!(j.contains(r#"line\nbreak"#));
    }

    #[test]
    fn expected_markers_parse() {
        let src = "fn f() {\n    x.unwrap(); //~ no-panic-lib\n}\n";
        assert_eq!(expected_markers(src), vec![(2, "no-panic-lib".into())]);
    }

    #[test]
    fn json_documents_parse_and_carry_the_schema_fields() {
        let diags = vec![Diagnostic {
            rule: "no-panic-lib",
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            col: 7,
            message: "m".into(),
            suggestion: "s".into(),
        }];
        let doc = json::parse(&json_document(&diags)).expect("valid json");
        assert_eq!(
            doc.get("schema_version").and_then(json::Value::as_u64),
            Some(u64::from(JSON_SCHEMA_VERSION))
        );
        assert_eq!(doc.get("mode").and_then(json::Value::as_str), Some("lint"));
        assert_eq!(doc.get("count").and_then(json::Value::as_u64), Some(1));

        let stale = vec![StaleAllow {
            file: "a.rs".into(),
            line: 9,
            rule: "no-float-tick".into(),
            reason: "r".into(),
        }];
        let doc = json::parse(&audit_json_document(4, &stale)).expect("valid json");
        assert_eq!(
            doc.get("mode").and_then(json::Value::as_str),
            Some("audit-allows")
        );
        assert_eq!(
            doc.get("allow_count").and_then(json::Value::as_u64),
            Some(4)
        );
        assert_eq!(
            doc.get("stale_count").and_then(json::Value::as_u64),
            Some(1)
        );
    }
}
