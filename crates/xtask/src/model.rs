//! Workspace-level item model on top of the per-file token stream.
//!
//! PR 3's rules were token-local: each looked at one file's tokens and
//! nothing else. The concurrency contracts this crate now checks —
//! the `stripe → allocator → bank` lock order, the atomic-ordering
//! gate ROADMAP item 2 needs before the per-bank `Mutex` becomes
//! CAS/seqlock state — are *inter-procedural*: whether `PcmStore::put`
//! may acquire a bank lock while it holds the allocator lock depends on
//! what `Allocator::allocate_chain` calls (nothing on the device, so it
//! may not). This module recovers just enough structure for that,
//! without a real parser:
//!
//! * [`impl_spans`] — which `impl` block (and so which type) a
//!   function belongs to, so `Gf::shared(…)` resolves to the right
//!   item;
//! * [`CallEvent`]s — every `name(…)` call in a function body, split
//!   into free / method / `self.` / `Type::` forms, plus raw
//!   `.lock(…)` acquisition sites, in token order;
//! * [`Workspace`] — all lintable files at once, with the crate
//!   dependency closure (hand-parsed from the manifests) so name
//!   resolution never crosses an edge the build graph doesn't have.
//!
//! Resolution is deliberately over-approximate — an unqualified
//! `x.get(…)` resolves to every visible method named `get` — because
//! the lock-order analysis only needs a *may-acquire* relation;
//! over-approximation can cost a spurious edge but never misses one.
//! Under-approximation is confined to cases the workspace style avoids
//! (turbofish calls, function pointers passed as values).

use crate::lexer::TokKind;
use crate::source::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(…)` — a bare path call.
    Free,
    /// `expr.name(…)` — a method call on a non-`self` receiver.
    Method,
    /// `self.name(…)` or `Self::name(…)`.
    SelfMethod,
    /// `Type::name(…)` — the qualifier is the path segment before `::`.
    Qualified(String),
}

/// One call (or raw lock acquisition) inside a function body.
#[derive(Debug, Clone)]
pub struct CallEvent {
    /// Index of the callee-name token in the file's code stream.
    pub tok: usize,
    /// The callee name.
    pub name: String,
    /// How the callee was named.
    pub kind: CallKind,
    /// True for `.lock(` — a raw mutex acquisition site.
    pub raw_lock: bool,
}

/// A function with its workspace context and body events.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The `impl` type the function belongs to, if any.
    pub impl_type: Option<String>,
    /// True for test-only code (skipped as an analysis *source* and
    /// excluded from the resolution table as a *target*).
    pub in_test: bool,
    /// Index of the `fn` keyword token, for span-accurate diagnostics
    /// about the definition itself.
    pub decl_tok: usize,
    /// Calls and raw lock sites, in token order, nested fns excluded.
    pub events: Vec<CallEvent>,
}

/// Every lintable file of the workspace plus the structure the
/// inter-procedural analyses need.
pub struct Workspace {
    /// Parsed files, in walk order.
    pub files: Vec<SourceFile>,
    /// All functions across all files.
    pub fns: Vec<FnInfo>,
    /// crate → crates visible to it (itself plus its transitive
    /// workspace dependencies).
    visible: BTreeMap<String, BTreeSet<String>>,
}

/// Idents that look like calls (`if (cond)…` styles) but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "move", "as",
    "mut", "ref", "break", "continue", "where", "impl", "dyn", "unsafe", "box", "await",
];

impl Workspace {
    /// Build the model from parsed files and the crates' *direct*
    /// dependency lists (the closure is computed here).
    pub fn new(files: Vec<SourceFile>, direct_deps: &BTreeMap<String, BTreeSet<String>>) -> Self {
        let mut visible: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let crates: BTreeSet<String> = files.iter().map(|f| f.crate_name.clone()).collect();
        for krate in &crates {
            let mut seen = BTreeSet::new();
            let mut stack = vec![krate.clone()];
            while let Some(c) = stack.pop() {
                if !seen.insert(c.clone()) {
                    continue;
                }
                if let Some(deps) = direct_deps.get(&c) {
                    stack.extend(deps.iter().cloned());
                }
            }
            visible.insert(krate.clone(), seen);
        }
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            let impls = impl_spans(f);
            let nested: Vec<(usize, usize)> = f.fns.iter().map(|s| (s.start, s.end)).collect();
            for span in &f.fns {
                let impl_type = impls
                    .iter()
                    .filter(|(s, e, _)| *s <= span.start && span.end <= *e)
                    .min_by_key(|(s, e, _)| e - s)
                    .map(|(_, _, name)| name.clone());
                // Token ranges of fns nested strictly inside this one —
                // their events belong to them, not to us.
                let inner: Vec<(usize, usize)> = nested
                    .iter()
                    .filter(|(s, e)| *s > span.start && *e <= span.end)
                    .copied()
                    .collect();
                fns.push(FnInfo {
                    file: fi,
                    name: span.name.clone(),
                    impl_type,
                    in_test: span.in_test,
                    decl_tok: span.start,
                    events: body_events(f, span.body_start, span.end, &inner),
                });
            }
        }
        Workspace {
            files,
            fns,
            visible,
        }
    }

    /// A one-file workspace (fixtures, explicit `cargo lint FILE` runs).
    pub fn single(file: SourceFile) -> Self {
        let deps = BTreeMap::new();
        Self::new(vec![file], &deps)
    }

    /// May code in `from` name an item of crate `to`?
    pub fn crate_visible(&self, from: &str, to: &str) -> bool {
        from == to || self.visible.get(from).is_some_and(|set| set.contains(to))
    }

    /// The crate a function belongs to.
    pub fn crate_of(&self, f: &FnInfo) -> &str {
        &self.files[f.file].crate_name
    }
}

/// `(start, end, type_name)` token ranges of the file's `impl` blocks.
/// The type name is the last path segment of the implemented-for type
/// (`impl fmt::Display for Diagnostic` → `Diagnostic`).
pub fn impl_spans(f: &SourceFile) -> Vec<(usize, usize, String)> {
    let code = &f.code;
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(code[i].kind == TokKind::Ident && code[i].text == "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic-parameter list `impl<…>`.
        if f.is_punct(j, "<") {
            let mut depth = 0isize;
            while j < code.len() {
                match code[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "<<" => depth += 2,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        // Collect path segments up to the body `{`; a `for` resets the
        // collection (the tokens before it were the trait).
        let mut segs: Vec<String> = Vec::new();
        let mut collecting = true;
        let mut angle = 0isize;
        let mut body = None;
        while j < code.len() {
            let t = &code[j];
            match (t.kind, t.text.as_str()) {
                (TokKind::Ident, "for") => {
                    segs.clear();
                    collecting = true;
                }
                (TokKind::Ident, "where") => collecting = false,
                (TokKind::Punct, "<") => angle += 1,
                (TokKind::Punct, ">") => angle -= 1,
                (TokKind::Punct, "<<") => angle += 2,
                (TokKind::Punct, ">>") => angle -= 2,
                (TokKind::Punct, "{") if angle <= 0 => {
                    body = Some(j);
                    break;
                }
                (TokKind::Punct, ";") if angle <= 0 => break,
                (TokKind::Ident, s) if collecting && angle <= 0 => segs.push(s.to_string()),
                _ => {}
            }
            j += 1;
        }
        let Some(body) = body else {
            i = j + 1;
            continue;
        };
        let end = brace_block_end(f, body);
        if let Some(name) = segs.last() {
            out.push((i, end, name.clone()));
        }
        i = body + 1; // nested impls (rare) still get scanned
    }
    out
}

/// One past the matching `}` of the `{` at `open`.
fn brace_block_end(f: &SourceFile, open: usize) -> usize {
    let mut depth = 0isize;
    let mut j = open;
    while j < f.code.len() {
        match f.code[j].text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    f.code.len()
}

/// Extract call events from a body token range, skipping `inner`
/// (nested fn) ranges.
fn body_events(
    f: &SourceFile,
    start: usize,
    end: usize,
    inner: &[(usize, usize)],
) -> Vec<CallEvent> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end.min(f.code.len()) {
        if let Some(&(_, skip_to)) = inner.iter().find(|(s, _)| *s == i) {
            i = skip_to;
            continue;
        }
        let t = &f.code[i];
        let is_call = t.kind == TokKind::Ident
            && f.is_punct(i + 1, "(")
            && !NON_CALL_KEYWORDS.contains(&t.text.as_str());
        if !is_call {
            i += 1;
            continue;
        }
        let kind = if i >= 1 && f.is_punct(i - 1, "::") {
            match f.tok(i.wrapping_sub(2)) {
                Some(q) if q.kind == TokKind::Ident && q.text == "Self" => CallKind::SelfMethod,
                Some(q) if q.kind == TokKind::Ident => CallKind::Qualified(q.text.clone()),
                // `<T as Trait>::f(…)` and friends — unresolvable.
                _ => CallKind::Qualified(String::new()),
            }
        } else if i >= 1 && f.is_punct(i - 1, ".") {
            let self_recv =
                f.is_ident(i.wrapping_sub(2), "self") && !(i >= 3 && f.is_punct(i - 3, "."));
            if self_recv {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            }
        } else {
            CallKind::Free
        };
        let raw_lock = t.text == "lock" && kind == CallKind::Method
            || t.text == "lock" && kind == CallKind::SelfMethod && f.is_punct(i - 1, ".");
        out.push(CallEvent {
            tok: i,
            name: t.text.clone(),
            kind,
            raw_lock,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::single(SourceFile::parse("m.rs", "pcm-device", src))
    }

    #[test]
    fn impl_types_resolve_including_trait_impls() {
        let w = ws("impl Foo { fn a(&self) {} }\n\
                    impl fmt::Display for Bar { fn fmt(&self) {} }\n\
                    impl<T: Clone> Baz<T> { fn c(&self) {} }\n\
                    fn free() {}\n");
        let types: Vec<(String, Option<String>)> = w
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.impl_type.clone()))
            .collect();
        assert_eq!(
            types,
            vec![
                ("a".into(), Some("Foo".into())),
                ("fmt".into(), Some("Bar".into())),
                ("c".into(), Some("Baz".into())),
                ("free".into(), None),
            ]
        );
    }

    #[test]
    fn call_kinds_are_classified() {
        let w = ws("impl S {\n\
             fn f(&self) {\n\
                 helper();\n\
                 self.own();\n\
                 Self::assoc();\n\
                 other.method();\n\
                 Gf::shared(4);\n\
                 self.inner.deep();\n\
                 guard.lock();\n\
             }\n\
             }\n");
        let ev = &w.fns[0].events;
        let got: Vec<(&str, &CallKind, bool)> = ev
            .iter()
            .map(|e| (e.name.as_str(), &e.kind, e.raw_lock))
            .collect();
        assert_eq!(
            got,
            vec![
                ("helper", &CallKind::Free, false),
                ("own", &CallKind::SelfMethod, false),
                ("assoc", &CallKind::SelfMethod, false),
                ("method", &CallKind::Method, false),
                ("shared", &CallKind::Qualified("Gf".into()), false),
                ("deep", &CallKind::Method, false),
                ("lock", &CallKind::Method, true),
            ]
        );
    }

    #[test]
    fn nested_fn_events_stay_with_the_inner_fn() {
        let w = ws("fn outer() {\n    fn inner() { deep_call(); }\n    shallow_call();\n}\n");
        let outer = w.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = w.fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_names: Vec<&str> = outer.events.iter().map(|e| e.name.as_str()).collect();
        let inner_names: Vec<&str> = inner.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(outer_names, vec!["shallow_call"]);
        assert_eq!(inner_names, vec!["deep_call"]);
    }

    #[test]
    fn macro_invocations_and_keywords_are_not_calls() {
        let w = ws("fn f(x: u32) {\n    if (x > 0) {}\n    format!(\"{x}\");\n    vec![1];\n}\n");
        assert!(w.fns[0].events.is_empty());
    }

    #[test]
    fn visibility_follows_the_dependency_closure() {
        let mut deps = BTreeMap::new();
        deps.insert(
            "pcm-store".to_string(),
            ["pcm-device".to_string()].into_iter().collect(),
        );
        deps.insert(
            "pcm-device".to_string(),
            ["pcm-core".to_string()].into_iter().collect(),
        );
        let files = vec![
            SourceFile::parse("a.rs", "pcm-store", "fn a() {}"),
            SourceFile::parse("b.rs", "pcm-device", "fn b() {}"),
            SourceFile::parse("c.rs", "pcm-core", "fn c() {}"),
        ];
        let w = Workspace::new(files, &deps);
        assert!(w.crate_visible("pcm-store", "pcm-core"));
        assert!(w.crate_visible("pcm-store", "pcm-device"));
        assert!(!w.crate_visible("pcm-device", "pcm-store"));
        assert!(!w.crate_visible("pcm-core", "pcm-device"));
    }
}
