//! `atomic-ordering`: every `Ordering::*` site is classified and
//! checked — the gate ROADMAP item 2 (lock-free banks) requires before
//! any per-bank `Mutex` becomes CAS/seqlock state.
//!
//! The workspace's atomics fall into three roles:
//!
//! * **counters** — metrics registries where `Relaxed` is correct
//!   because nobody reads a counter to synchronize. A whole module
//!   opts in with a `// pcm-lint: atomic-module(counters)` comment.
//! * **job claims** — `fetch_add` tickets handing out disjoint work
//!   (the trace ring's sequence ticket).
//!   `Relaxed` is correct because a join/scope barrier publishes the
//!   results. Annotated per site: `// pcm-lint: atomic(job-claim)` or
//!   `// pcm-lint: atomic(counter)`.
//! * **seqlock words** — the trace ring's `version`/payload protocol.
//!   Writes must publish with `Release`, reads must observe with
//!   `Acquire`; one `Relaxed` on either path silently breaks the
//!   protocol on weakly-ordered hardware while passing every x86 test.
//!   Seqlock fields are *inferred*: any field Release-stored and
//!   Acquire-loaded in the same file is held to the pairing, and may
//!   also be pinned explicitly with `// pcm-lint: atomic(seqlock)`.
//!
//! Everything else is general synchronization: bare `Relaxed` is
//! banned (classify the site or strengthen the ordering), and
//! nonsensical combinations (`store(…, Acquire)`, `load(Release)` —
//! which panic at runtime) are flagged statically.

use super::{Rule, DETERMINISM_CRATES};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

pub struct AtomicOrdering;

/// The `std::sync::atomic::Ordering` variants (distinguishes the type
/// from `std::cmp::Ordering`, whose variants never overlap).
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic access methods, split by direction.
const LOAD_METHODS: &[&str] = &["load"];
const STORE_METHODS: &[&str] = &["store"];
const RMW_METHODS: &[&str] = &[
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "swap",
];

/// Valid per-site annotation classes.
const CLASSES: &[&str] = &["counter", "job-claim", "seqlock"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Load,
    Store,
    Rmw,
    Unknown,
}

struct Site {
    /// Token index of the `Ordering` ident.
    tok: usize,
    /// The ordering variant.
    ordering: String,
    /// Access direction of the enclosing call.
    dir: Dir,
    /// Receiver field (or binding) name, best effort.
    field: String,
}

impl Rule for AtomicOrdering {
    fn id(&self) -> &'static str {
        "atomic-ordering"
    }

    fn describe(&self) -> &'static str {
        "classify every Ordering::* site; ban bare Relaxed outside annotated counter/job-claim \
         sites and enforce Acquire/Release pairing on seqlock words"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !DETERMINISM_CRATES.contains(&f.crate_name.as_str()) {
            return;
        }
        let module_counters = f
            .comments
            .iter()
            .any(|c| c.text.contains("pcm-lint: atomic-module(counters)"));
        let site_classes = collect_site_annotations(f);

        let sites = find_sites(f);
        // Infer seqlock words: fields both Release-published and
        // Acquire-observed in this file.
        let mut released: BTreeSet<&str> = BTreeSet::new();
        let mut acquired: BTreeSet<&str> = BTreeSet::new();
        for s in &sites {
            let strong = matches!(s.ordering.as_str(), "Release" | "AcqRel" | "SeqCst");
            match s.dir {
                Dir::Store | Dir::Rmw if strong => {
                    released.insert(&s.field);
                }
                Dir::Load if matches!(s.ordering.as_str(), "Acquire" | "AcqRel" | "SeqCst") => {
                    acquired.insert(&s.field);
                }
                _ => {}
            }
        }
        let seqlock_fields: BTreeSet<&str> = released.intersection(&acquired).copied().collect();

        for s in &sites {
            let t = &f.code[s.tok];
            if f.in_test.get(s.tok).copied().unwrap_or(false) {
                continue;
            }
            // Statically impossible combinations panic at runtime.
            let nonsense = matches!(
                (s.dir, s.ordering.as_str()),
                (Dir::Store, "Acquire" | "AcqRel") | (Dir::Load, "Release" | "AcqRel")
            );
            if nonsense {
                out.push(diag(
                    f,
                    t.line,
                    t.col,
                    format!(
                        "`{}` with `Ordering::{}` on `{}` panics at runtime",
                        dir_name(s.dir),
                        s.ordering,
                        s.field
                    ),
                    "stores release (Release/Relaxed/SeqCst), loads acquire \
                     (Acquire/Relaxed/SeqCst); pick a legal ordering"
                        .to_string(),
                ));
                continue;
            }
            let annotated = site_classes
                .get(&t.line)
                .or_else(|| site_classes.get(&t.line.saturating_sub(1)));
            let class: Option<&str> = match annotated {
                Some(c) if CLASSES.contains(&c.as_str()) => Some(c.as_str()),
                Some(c) => {
                    out.push(diag(
                        f,
                        t.line,
                        t.col,
                        format!("unknown atomic class `{c}` in annotation"),
                        format!("valid classes: {}", CLASSES.join(", ")),
                    ));
                    continue;
                }
                None if module_counters => Some("counter"),
                None if seqlock_fields.contains(s.field.as_str()) => Some("seqlock"),
                None => None,
            };
            match class {
                Some("counter") | Some("job-claim") => {} // Relaxed is the point
                Some("seqlock") => {
                    let ok = match s.dir {
                        Dir::Load => matches!(s.ordering.as_str(), "Acquire" | "SeqCst"),
                        Dir::Store => matches!(s.ordering.as_str(), "Release" | "SeqCst"),
                        Dir::Rmw | Dir::Unknown => s.ordering != "Relaxed",
                    };
                    if !ok {
                        out.push(diag(
                            f,
                            t.line,
                            t.col,
                            format!(
                                "seqlock word `{}` {} with `Ordering::{}` breaks the \
                                 Acquire/Release pairing",
                                s.field,
                                dir_name(s.dir),
                                s.ordering
                            ),
                            "seqlock writes publish with Release, reads observe with Acquire; \
                             a Relaxed access reorders the payload around the version word"
                                .to_string(),
                        ));
                    }
                }
                Some(_) => unreachable!("classes are filtered above"),
                None => {
                    if s.ordering == "Relaxed" {
                        out.push(diag(
                            f,
                            t.line,
                            t.col,
                            format!(
                                "bare `Ordering::Relaxed` on `{}` outside an annotated counter \
                                 module",
                                s.field
                            ),
                            "classify the site (`// pcm-lint: atomic(counter)`, \
                             `atomic(job-claim)`, `atomic(seqlock)`), mark the module \
                             `// pcm-lint: atomic-module(counters)`, or use Acquire/Release"
                                .to_string(),
                        ));
                    }
                }
            }
        }
    }
}

fn dir_name(d: Dir) -> &'static str {
    match d {
        Dir::Load => "load",
        Dir::Store => "store",
        Dir::Rmw => "read-modify-write",
        Dir::Unknown => "access",
    }
}

/// `// pcm-lint: atomic(<class>)` comments, by line.
fn collect_site_annotations(f: &SourceFile) -> BTreeMap<u32, String> {
    let mut map = BTreeMap::new();
    for c in &f.comments {
        let Some(at) = c.text.find("pcm-lint: atomic(") else {
            continue;
        };
        let rest = &c.text[at + "pcm-lint: atomic(".len()..];
        if let Some(close) = rest.find(')') {
            map.insert(c.line, rest[..close].trim().to_string());
        }
    }
    map
}

/// Locate every `Ordering::<variant>` site with its access direction
/// and receiver field.
fn find_sites(f: &SourceFile) -> Vec<Site> {
    let mut out = Vec::new();
    for i in 0..f.code.len() {
        if !f.is_ident(i, "Ordering") || !f.is_punct(i + 1, "::") {
            continue;
        }
        let Some(var) = f.tok(i + 2) else { continue };
        if var.kind != TokKind::Ident || !ORDERINGS.contains(&var.text.as_str()) {
            continue;
        }
        let (dir, field) = enclosing_access(f, i);
        out.push(Site {
            tok: i,
            ordering: var.text.clone(),
            dir,
            field,
        });
    }
    out
}

/// Walk back from an `Ordering` token to the nearest atomic access
/// method call, returning its direction and receiver field name.
fn enclosing_access(f: &SourceFile, ord_tok: usize) -> (Dir, String) {
    let lo = ord_tok.saturating_sub(60);
    for j in (lo..ord_tok).rev() {
        let Some(t) = f.tok(j) else { continue };
        if t.kind != TokKind::Ident
            || !f.is_punct(j + 1, "(")
            || !f.is_punct(j.wrapping_sub(1), ".")
        {
            continue;
        }
        let name = t.text.as_str();
        let dir = if LOAD_METHODS.contains(&name) {
            Dir::Load
        } else if STORE_METHODS.contains(&name) {
            Dir::Store
        } else if RMW_METHODS.contains(&name) {
            Dir::Rmw
        } else {
            continue;
        };
        return (dir, receiver_field(f, j));
    }
    (Dir::Unknown, "_".to_string())
}

/// The field (or binding) an atomic method was called on:
/// `self.buckets[i].fetch_add(…)` → `buckets`, `slot.version.load(…)`
/// → `version`.
fn receiver_field(f: &SourceFile, method_tok: usize) -> String {
    // method_tok - 1 is the `.`; walk left over an optional `[…]` index.
    let mut k = method_tok.wrapping_sub(2);
    if f.is_punct(k, "]") {
        let mut depth = 0isize;
        while k > 0 {
            match f.tok(k).map(|t| t.text.as_str()) {
                Some("]") => depth += 1,
                Some("[") => {
                    depth -= 1;
                    if depth == 0 {
                        k = k.wrapping_sub(1);
                        break;
                    }
                }
                _ => {}
            }
            k = k.wrapping_sub(1);
        }
    }
    match f.tok(k) {
        Some(t) if t.kind == TokKind::Ident => t.text.clone(),
        _ => "_".to_string(),
    }
}

fn diag(f: &SourceFile, line: u32, col: u32, message: String, suggestion: String) -> Diagnostic {
    Diagnostic {
        rule: "atomic-ordering",
        file: f.rel.clone(),
        line,
        col,
        message,
        suggestion,
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_source;

    #[test]
    fn bare_relaxed_is_flagged_and_annotations_clear_it() {
        let bad = "fn f(n: &AtomicU64) -> u64 {\n    n.fetch_add(1, Ordering::Relaxed)\n}\n";
        let diags = lint_source("a.rs", "pcm-sim", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "atomic-ordering");
        assert_eq!(diags[0].line, 2);

        let good = "fn f(n: &AtomicU64) -> u64 {\n    // pcm-lint: atomic(job-claim)\n    n.fetch_add(1, Ordering::Relaxed)\n}\n";
        assert!(lint_source("a.rs", "pcm-sim", good).is_empty());
    }

    #[test]
    fn counters_module_annotation_permits_relaxed() {
        let src = "//! Counters.\n// pcm-lint: atomic-module(counters)\nfn f(n: &AtomicU64) {\n    n.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("m.rs", "pcm-device", src).is_empty());
    }

    #[test]
    fn inferred_seqlock_word_rejects_relaxed_on_either_path() {
        let src = "\
            fn publish(s: &Slot) {\n\
                s.version.store(1, Ordering::Release);\n\
            }\n\
            fn read_ok(s: &Slot) -> u64 {\n\
                s.version.load(Ordering::Acquire)\n\
            }\n\
            fn read_bad(s: &Slot) -> u64 {\n\
                s.version.load(Ordering::Relaxed)\n\
            }\n";
        let diags = lint_source("b.rs", "pcm-trace", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("seqlock word `version`"));
        assert_eq!(diags[0].line, 8);
    }

    #[test]
    fn runtime_panicking_orderings_are_flagged() {
        let src = "fn f(n: &AtomicU64) {\n    n.store(1, Ordering::Acquire);\n}\n";
        let diags = lint_source("c.rs", "pcm-core", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("panics at runtime"));
    }

    #[test]
    fn cmp_ordering_is_not_confused_with_atomic_ordering() {
        let src = "fn f(a: u32, b: u32) -> Ordering {\n    a.cmp(&b)\n}\nfn g() -> Ordering { Ordering::Less }\n";
        assert!(lint_source("d.rs", "pcm-core", src).is_empty());
    }

    #[test]
    fn unknown_class_annotation_is_flagged() {
        let src = "fn f(n: &AtomicU64) {\n    // pcm-lint: atomic(mystery)\n    n.store(1, Ordering::Relaxed);\n}\n";
        let diags = lint_source("e.rs", "pcm-core", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("unknown atomic class `mystery`"));
    }

    #[test]
    fn indexed_receivers_resolve_to_the_field() {
        let src =
            "fn f(s: &S, i: usize) {\n    s.buckets[i * 2].fetch_add(1, Ordering::Relaxed);\n}\n";
        let diags = lint_source("f.rs", "pcm-device", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`buckets`"), "{diags:?}");
    }
}
