//! The lint's self-test corpus: every rule ships an expected-pass /
//! expected-fail fixture pair under `fixtures/`. Fail fixtures carry
//! trailing `//~ <rule-id>` markers; the lint must produce exactly one
//! diagnostic of that rule on each marked line, and nothing else.
//! Alongside the fixture pairs: the injected-regression tests (a bare
//! `Relaxed` spliced into the real `pcm-device::concurrent` source, a
//! stale allow spliced into a clean file), the `--json` schema
//! round-trip, and the `workspace_tree_is_clean` gate.

use std::path::{Path, PathBuf};

/// (fixture stem, crate name the fixture pretends to live in).
const CASES: &[(&str, &str)] = &[
    ("no_panic_lib", "pcm-core"),
    ("float_tick", "pcm-device"),
    ("ambient", "pcm-sim"),
    ("ambient_trace", "pcm-trace"),
    ("lock_order", "pcm-device"),
    ("atomic_ordering", "pcm-device"),
    ("deprecated_internal", "pcm-bench"),
    ("telemetry_tick", "pcm-telemetry"),
];

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn fail_fixtures_flag_exactly_the_marked_lines() {
    for (case, krate) in CASES {
        let name = format!("{case}_fail.rs");
        let src = fixture(&name);
        let got: Vec<(u32, String)> = xtask::lint_source(&name, krate, &src)
            .into_iter()
            .map(|d| (d.line, d.rule.to_string()))
            .collect();
        let want = xtask::expected_markers(&src);
        assert!(!want.is_empty(), "fixture {name} has no //~ markers");
        assert_eq!(got, want, "fixture {name}: wrong diagnostics");
    }
}

#[test]
fn pass_fixtures_are_clean() {
    for (case, krate) in CASES {
        let name = format!("{case}_pass.rs");
        let src = fixture(&name);
        let diags = xtask::lint_source(&name, krate, &src);
        assert!(
            diags.is_empty(),
            "fixture {name} expected clean, got:\n{}",
            diags
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn fail_fixtures_report_nonzero_via_every_rule() {
    // Sanity: collectively, the fail corpus exercises every per-file
    // rule plus the workspace-level lock-order analysis.
    let mut seen: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (case, krate) in CASES {
        let name = format!("{case}_fail.rs");
        for d in xtask::lint_source(&name, krate, &fixture(&name)) {
            seen.insert(d.rule.to_string());
        }
    }
    let all: std::collections::BTreeSet<String> = xtask::rules::known_rule_ids()
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(seen, all, "some rule has no failing fixture coverage");
}

#[test]
fn workspace_tree_is_clean() {
    // The real tree must stay lint-clean: every invariant violation is
    // either fixed or carries a justified allow. This is the same check
    // CI runs via `cargo lint`.
    let diags = xtask::lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace has {} lint diagnostic(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_allows_are_all_live() {
    // The companion CI gate: `cargo lint --audit-allows` must find no
    // stale suppression in the real tree.
    let (total, stale) = xtask::audit_allows(&workspace_root()).expect("workspace walk");
    assert!(total > 0, "expected some allow sites in the tree");
    assert!(
        stale.is_empty(),
        "{} stale allow(s):\n{}",
        stale.len(),
        stale
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn injected_bare_relaxed_in_concurrent_is_caught() {
    // The acceptance-criteria regression: splice a bare `Relaxed`
    // cross-bank flag into the real pcm-device::concurrent source and
    // the atomic-ordering rule must fire on exactly the injected line.
    let path = workspace_root().join("crates/pcm-device/src/concurrent.rs");
    let src = std::fs::read_to_string(&path).expect("read concurrent.rs");
    assert!(
        xtask::lint_source("crates/pcm-device/src/concurrent.rs", "pcm-device", &src).is_empty(),
        "pristine concurrent.rs must lint clean"
    );
    let marker = "pub struct";
    let at = src.find(marker).expect("an item to inject before");
    let injected = format!(
        "{}pub fn racy_flag(f: &std::sync::atomic::AtomicU64) -> u64 {{\n    \
         f.fetch_add(1, std::sync::atomic::Ordering::Relaxed)\n}}\n\n{}",
        &src[..at],
        &src[at..]
    );
    let inject_line = injected
        .lines()
        .position(|l| l.contains("fetch_add(1, std::sync::atomic::Ordering::Relaxed)"))
        .expect("injected line present") as u32
        + 1;
    let diags = xtask::lint_source(
        "crates/pcm-device/src/concurrent.rs",
        "pcm-device",
        &injected,
    );
    assert_eq!(
        diags.len(),
        1,
        "want exactly the injected finding:\n{diags:?}"
    );
    assert_eq!(diags[0].rule, "atomic-ordering");
    assert_eq!(diags[0].line, inject_line);
    assert!(diags[0].message.contains("bare `Ordering::Relaxed`"));
}

#[test]
fn injected_out_of_order_acquisition_in_store_is_caught() {
    // Same shape for the lock graph: add a helper to the real
    // pcm-store::store source that takes a bank guard and then the
    // stripe lock — an edge that inverts the declared order.
    let path = workspace_root().join("crates/pcm-store/src/store.rs");
    let src = std::fs::read_to_string(&path).expect("read store.rs");
    // `lock_bank` is the declared bank wrapper (it lives in
    // pcm-device); the analysis keys wrapper calls on the name, so the
    // injected helper inverts the order without defining anything new.
    let bad = "\n\
        fn upside_down(stripe: &std::sync::Mutex<()>, bank: &std::sync::Mutex<u64>) {\n    \
            let _b = lock_bank(bank);\n    \
            let _s = lock_stripe(stripe);\n\
        }\n";
    let injected = format!("{src}{bad}");
    let diags = xtask::lint_source("crates/pcm-store/src/store.rs", "pcm-store", &injected);
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "lock-order" && d.message.contains("holding `bank`")),
        "want an out-of-order finding:\n{diags:?}"
    );
}

#[test]
fn no_panic_lib_flags_only_the_option_and_result_signatures() {
    // `.expect(msg)` and `.unwrap()` are flagged; a method spelled
    // `expect` that takes two arguments, or `unwrap` that takes one, is not.
    let src = "\
        fn f(x: Option<u32>, p: &mut P) -> u32 {\n            x.expect(\"m\");\n            x.unwrap();\n            p.expect(b':', \"x\");\n            p.unwrap(7);\n            0\n        }\n";
    let lines: Vec<u32> = xtask::lint_source("lib.rs", "pcm-core", src)
        .into_iter()
        .map(|d| {
            assert_eq!(d.rule, "no-panic-lib");
            d.line
        })
        .collect();
    assert_eq!(lines, vec![2, 3]);
}

#[test]
fn stale_allow_is_reported_with_file_and_line() {
    // Unit-level audit check (the workspace-level one is
    // `workspace_allows_are_all_live`): an allow whose rule cannot fire
    // on its lines is stale, and unknown rule ids are always stale.
    let src = "\
        // pcm-lint: allow(no-panic-lib) — nothing panics here\n\
        fn quiet() -> u32 {\n    7\n}\n\
        // pcm-lint: allow(lock-discipline) — rule retired in PR 7\n\
        fn also_quiet() {}\n";
    let f = xtask::source::SourceFile::parse("s.rs", "pcm-core", src);
    let sites = f.allow_sites();
    assert_eq!(sites.len(), 2);
    assert_eq!(sites[0], (1, "no-panic-lib".to_string()));
    assert_eq!(sites[1], (5, "lock-discipline".to_string()));
    // No diagnostics fire anywhere in this file…
    assert!(xtask::lint_source("s.rs", "pcm-core", src).is_empty());
    // …and `lock-discipline` is no longer a known rule id.
    assert!(!xtask::rules::known_rule_ids().contains(&"lock-discipline"));
}

#[test]
fn lint_json_document_round_trips_through_the_schema() {
    // `--json` promises schema_version 1 with a fixed field set; parse
    // the document the binary would print and check every field.
    let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let diags = xtask::lint_source("lib.rs", "pcm-core", src);
    assert_eq!(diags.len(), 1);
    let doc = pcm_trace::json::parse(&xtask::json_document(&diags)).expect("valid JSON");
    assert_eq!(
        doc.get("schema_version")
            .and_then(pcm_trace::json::Value::as_u64),
        Some(u64::from(xtask::JSON_SCHEMA_VERSION))
    );
    assert_eq!(
        doc.get("tool").and_then(pcm_trace::json::Value::as_str),
        Some("pcm-lint")
    );
    assert_eq!(
        doc.get("mode").and_then(pcm_trace::json::Value::as_str),
        Some("lint")
    );
    assert_eq!(
        doc.get("count").and_then(pcm_trace::json::Value::as_u64),
        Some(1)
    );
    let items = doc
        .get("diagnostics")
        .and_then(pcm_trace::json::Value::as_arr)
        .expect("diagnostics array");
    assert_eq!(items.len(), 1);
    let d = &items[0];
    assert_eq!(
        d.get("rule").and_then(pcm_trace::json::Value::as_str),
        Some("no-panic-lib")
    );
    assert_eq!(
        d.get("file").and_then(pcm_trace::json::Value::as_str),
        Some("lib.rs")
    );
    assert_eq!(
        d.get("line").and_then(pcm_trace::json::Value::as_u64),
        Some(2)
    );
    for key in ["col", "message", "suggestion"] {
        assert!(d.get(key).is_some(), "diagnostic field `{key}` missing");
    }

    // The audit document carries its own mode and counts.
    let stale = vec![xtask::StaleAllow {
        file: "a.rs".into(),
        line: 3,
        rule: "no-float-tick".into(),
        reason: "gone".into(),
    }];
    let doc = pcm_trace::json::parse(&xtask::audit_json_document(9, &stale)).expect("valid JSON");
    assert_eq!(
        doc.get("mode").and_then(pcm_trace::json::Value::as_str),
        Some("audit-allows")
    );
    assert_eq!(
        doc.get("allow_count")
            .and_then(pcm_trace::json::Value::as_u64),
        Some(9)
    );
    assert_eq!(
        doc.get("stale_count")
            .and_then(pcm_trace::json::Value::as_u64),
        Some(1)
    );
    let arr = doc
        .get("stale")
        .and_then(pcm_trace::json::Value::as_arr)
        .expect("stale array");
    assert_eq!(
        arr[0].get("rule").and_then(pcm_trace::json::Value::as_str),
        Some("no-float-tick")
    );
}
