//! `lock-order`: the workspace's inter-procedural lock-acquisition
//! contract.
//!
//! Replaces the token-local `lock-discipline` heuristic of PR 3. That
//! rule could only count `.lock(` calls inside one function; it could
//! not see that `PcmStore::put` holds a directory stripe while
//! `Allocator::allocate_chain` — a call away — takes the allocator
//! lock, or that the page writes under the same stripe take bank
//! locks. This analysis can, and checks the whole workspace against
//! one declared order:
//!
//! ```text
//! stripe  →  allocator  →  bank  →  bch-registry  →  gf-registry  →  telemetry
//! ```
//!
//! (`pcm-store` directory stripes outermost, then the page allocator —
//! a leaf that does no device I/O, so no path takes a bank lock under
//! it — then the per-bank device locks; the ECC table
//! registries are inner leaves — `Bch::new` builds tables while
//! holding the BCH registry, which may populate the GF registry.
//! The telemetry series mutex is innermost: `advance_time` takes it
//! with nothing else held, and while held it only pushes into the
//! lock-free trace ring.)
//!
//! ## The contract
//!
//! 1. **Every raw `.lock(` site lives inside a declared wrapper fn**
//!    ([`WRAPPERS`]). Locking through one named site per layer is what
//!    makes the graph analyzable — and greppable for humans.
//! 2. **No path acquires against the declared order.** For every
//!    function, every lock class reachable *while another is held*
//!    (directly, or transitively through calls) must rank strictly
//!    higher than the held class. Witness chains are reported at the
//!    offending call/acquisition token, so diagnostics stay
//!    span-accurate.
//! 3. **Two same-class guards only via `lock_pair_ordered`** — the
//!    sorted two-bank helper from PR 3. This is the migrated
//!    `lock-discipline` check, now class-aware: a stripe guard next to
//!    a bank guard is fine (that's the declared order working), two ad
//!    hoc bank guards are not.
//!
//! The analysis over-approximates "held" as *from acquisition to end
//! of function* and resolves unqualified method calls to every visible
//! same-named function; both err toward spurious edges, never missed
//! ones. Same-class nesting through calls is deliberately **not**
//! flagged (an `expr.stats()` on a locked guard would resolve to the
//! engine's own `stats` and drown the signal); the pair rule covers
//! the case that matters.

use crate::model::{CallEvent, CallKind, FnInfo, Workspace};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// The rule id (also the allow-comment key).
pub const RULE: &str = "lock-order";

/// Lock classes in their declared acquisition order, outermost first.
/// Rank = index; every edge in the observed lock graph must strictly
/// increase rank.
pub const DECLARED_ORDER: &[&str] = &[
    "stripe",
    "allocator",
    "bank",
    "bch-registry",
    "gf-registry",
    "telemetry",
];

/// A declared lock-acquisition wrapper function.
pub struct Wrapper {
    /// The wrapper's (workspace-unique) function name.
    pub fn_name: &'static str,
    /// The lock class it acquires.
    pub class: &'static str,
    /// True when the wrapper *returns* its guard (the caller holds the
    /// lock after the call); false for self-contained wrappers that
    /// release internally (the table registries).
    pub returns_guard: bool,
    /// True for the sanctioned sorted two-bank helper.
    pub sanctioned_pair: bool,
}

/// Every declared wrapper. Raw `.lock(` is legal only inside these.
pub const WRAPPERS: &[Wrapper] = &[
    Wrapper {
        fn_name: "lock_stripe",
        class: "stripe",
        returns_guard: true,
        sanctioned_pair: false,
    },
    Wrapper {
        fn_name: "lock_state",
        class: "allocator",
        returns_guard: true,
        sanctioned_pair: false,
    },
    Wrapper {
        fn_name: "lock_bank",
        class: "bank",
        returns_guard: true,
        sanctioned_pair: false,
    },
    Wrapper {
        fn_name: "lock_pair_ordered",
        class: "bank",
        returns_guard: true,
        sanctioned_pair: true,
    },
    Wrapper {
        fn_name: "bch_registry",
        class: "bch-registry",
        returns_guard: false,
        sanctioned_pair: false,
    },
    Wrapper {
        fn_name: "gf_registry",
        class: "gf-registry",
        returns_guard: false,
        sanctioned_pair: false,
    },
    Wrapper {
        fn_name: "lock_series",
        class: "telemetry",
        returns_guard: true,
        sanctioned_pair: false,
    },
];

fn wrapper(name: &str) -> Option<&'static Wrapper> {
    WRAPPERS.iter().find(|w| w.fn_name == name)
}

/// Rank of a class in the declared order.
pub fn rank(class: &str) -> Option<usize> {
    DECLARED_ORDER.iter().position(|c| *c == class)
}

/// The observed workspace lock graph: directed class-to-class edges,
/// each with one witness site. Kept as its own type so tests can
/// inject edges (e.g. a cycle) without a source tree.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// (held, acquired) → first witness `(file, line, description)`.
    edges: BTreeMap<(String, String), (String, u32, String)>,
}

impl LockGraph {
    /// Record an observed edge (first witness wins).
    pub fn add_edge(&mut self, held: &str, acquired: &str, file: &str, line: u32, via: &str) {
        self.edges
            .entry((held.to_string(), acquired.to_string()))
            .or_insert_with(|| (file.to_string(), line, via.to_string()));
    }

    /// Edges violating the declared order (rank must strictly
    /// increase; unknown classes always violate).
    pub fn out_of_order(&self) -> Vec<(&str, &str, &(String, u32, String))> {
        self.edges
            .iter()
            .filter(|((held, acq), _)| match (rank(held), rank(acq)) {
                (Some(h), Some(a)) => a <= h,
                _ => true,
            })
            .map(|((held, acq), w)| (held.as_str(), acq.as_str(), w))
            .collect()
    }

    /// One cycle through the edge set, if any, as the class sequence
    /// `[a, b, …, a]`. A cyclic lock graph means two paths can block
    /// on each other no matter what total order is declared.
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acq) in self.edges.keys() {
            adj.entry(held).or_default().push(acq);
        }
        // Iterative DFS with an explicit color map.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let nodes: BTreeSet<&str> = self
            .edges
            .keys()
            .flat_map(|(a, b)| [a.as_str(), b.as_str()])
            .collect();
        let mut color: BTreeMap<&str, Color> = nodes.iter().map(|n| (*n, Color::White)).collect();
        let mut parent: BTreeMap<&str, &str> = BTreeMap::new();
        for &start in &nodes {
            if color[start] != Color::White {
                continue;
            }
            let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
            color.insert(start, Color::Grey);
            while let Some(&(node, next)) = stack.last() {
                let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
                if next < succs.len() {
                    if let Some(top) = stack.last_mut() {
                        top.1 += 1;
                    }
                    let s = succs[next];
                    match color[s] {
                        Color::White => {
                            parent.insert(s, node);
                            color.insert(s, Color::Grey);
                            stack.push((s, 0));
                        }
                        Color::Grey => {
                            // Found a back edge node → s: walk parents.
                            let mut path = vec![s.to_string(), node.to_string()];
                            let mut cur = node;
                            while cur != s {
                                let p = parent[&cur];
                                path.push(p.to_string());
                                cur = p;
                            }
                            path.reverse();
                            return Some(path);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(node, Color::Black);
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Index of every non-test function, for call resolution.
struct FnTable {
    /// name → fn indices (methods and free fns).
    by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, name) → fn indices.
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    /// name → free-fn indices.
    free: BTreeMap<String, Vec<usize>>,
}

impl FnTable {
    fn build(ws: &Workspace) -> FnTable {
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            by_name.entry(f.name.clone()).or_default().push(i);
            match &f.impl_type {
                Some(t) => by_impl
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(i),
                None => free.entry(f.name.clone()).or_default().push(i),
            }
        }
        FnTable {
            by_name,
            by_impl,
            free,
        }
    }
}

/// Resolve a call to candidate workspace functions, filtered to crates
/// visible from the caller.
fn resolve(ws: &Workspace, table: &FnTable, caller: &FnInfo, ev: &CallEvent) -> Vec<usize> {
    let caller_crate = ws.crate_of(caller);
    let vis = |idx: &usize| ws.crate_visible(caller_crate, ws.crate_of(&ws.fns[*idx]));
    let from = |m: Option<&Vec<usize>>| -> Vec<usize> {
        m.map(|v| v.iter().filter(|i| vis(i)).copied().collect())
            .unwrap_or_default()
    };
    match &ev.kind {
        CallKind::Qualified(q) if q.is_empty() => Vec::new(),
        CallKind::Qualified(q) => {
            let exact = from(table.by_impl.get(&(q.clone(), ev.name.clone())));
            if !exact.is_empty() {
                exact
            } else {
                from(table.free.get(&ev.name))
            }
        }
        CallKind::SelfMethod => {
            if let Some(t) = &caller.impl_type {
                let exact = from(table.by_impl.get(&(t.clone(), ev.name.clone())));
                if !exact.is_empty() {
                    return exact;
                }
            }
            from(table.by_name.get(&ev.name))
        }
        CallKind::Method => from(table.by_name.get(&ev.name)),
        CallKind::Free => from(table.free.get(&ev.name)),
    }
}

/// Transitive lock classes each function may acquire. Fixpoint over
/// the resolved call graph; wrapper calls seed the sets.
fn acquire_sets(ws: &Workspace, resolved: &[Vec<Vec<usize>>]) -> Vec<BTreeSet<&'static str>> {
    let mut acq: Vec<BTreeSet<&'static str>> = vec![BTreeSet::new(); ws.fns.len()];
    for (i, f) in ws.fns.iter().enumerate() {
        for ev in &f.events {
            if let Some(w) = wrapper(&ev.name) {
                acq[i].insert(w.class);
            }
        }
        // A wrapper's own raw lock is its class.
        if let Some(w) = wrapper(&f.name) {
            if f.events.iter().any(|e| e.raw_lock) {
                acq[i].insert(w.class);
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..ws.fns.len() {
            for (ei, _ev) in ws.fns[i].events.iter().enumerate() {
                for &t in &resolved[i][ei] {
                    if t == i {
                        continue;
                    }
                    let add: Vec<&'static str> = acq[t].difference(&acq[i]).copied().collect();
                    if !add.is_empty() {
                        changed = true;
                        acq[i].extend(add);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    acq
}

/// Run the whole analysis, pushing diagnostics.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let table = FnTable::build(ws);

    // Wrapper names must be unique: the analysis keys on them.
    for w in WRAPPERS {
        if let Some(defs) = table.by_name.get(w.fn_name) {
            for &dup in defs.iter().skip(1) {
                let f = &ws.fns[dup];
                let file = &ws.files[f.file];
                let t = &file.code[f.decl_tok];
                out.push(diag(
                    file,
                    t.line,
                    t.col,
                    format!(
                        "duplicate definition of lock wrapper `{}` — wrapper names must be \
                         workspace-unique for the lock graph to resolve",
                        w.fn_name
                    ),
                    "rename this function; the declared wrappers are the analysis's anchor points"
                        .to_string(),
                ));
            }
        }
    }

    // Resolve every call once.
    let resolved: Vec<Vec<Vec<usize>>> = ws
        .fns
        .iter()
        .map(|f| {
            f.events
                .iter()
                .map(|ev| {
                    if wrapper(&ev.name).is_some() || ev.raw_lock {
                        Vec::new() // wrappers are handled by name, raw locks by site
                    } else {
                        resolve(ws, &table, f, ev)
                    }
                })
                .collect()
        })
        .collect();
    let acq = acquire_sets(ws, &resolved);

    let mut graph = LockGraph::default();
    for (i, f) in ws.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let file = &ws.files[f.file];
        let fn_is_wrapper = wrapper(&f.name).is_some();
        let pair_called = f
            .events
            .iter()
            .any(|e| wrapper(&e.name).is_some_and(|w| w.sanctioned_pair));
        let mut held: Vec<(&'static str, usize)> = Vec::new();
        let mut guard_sites: BTreeMap<&'static str, Vec<usize>> = BTreeMap::new();
        for (ei, ev) in f.events.iter().enumerate() {
            let t = &file.code[ev.tok];
            if ev.raw_lock {
                match wrapper(&f.name) {
                    Some(w) => held.push((w.class, ev.tok)),
                    None => out.push(diag(
                        file,
                        t.line,
                        t.col,
                        format!(
                            "raw `.lock(` call in `{}` outside any declared wrapper",
                            f.name
                        ),
                        format!(
                            "route the acquisition through its layer's wrapper ({}) so the \
                             lock-order analysis can classify it",
                            WRAPPERS
                                .iter()
                                .map(|w| w.fn_name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )),
                }
                continue;
            }
            if let Some(w) = wrapper(&ev.name) {
                for &(h, _) in &held {
                    if h != w.class {
                        graph.add_edge(h, w.class, &file.rel, t.line, &ev.name);
                        order_check(file, t.line, t.col, h, w.class, &ev.name, out);
                    }
                }
                if w.returns_guard {
                    held.push((w.class, ev.tok));
                    guard_sites.entry(w.class).or_default().push(ev.tok);
                }
                continue;
            }
            // Ordinary call: edges from every held class to every class
            // the callee may transitively acquire.
            let mut classes: BTreeSet<&'static str> = BTreeSet::new();
            for &tgt in &resolved[i][ei] {
                classes.extend(acq[tgt].iter().copied());
            }
            for &(h, _) in &held {
                for &c in &classes {
                    if c != h {
                        graph.add_edge(h, c, &file.rel, t.line, &ev.name);
                        order_check(file, t.line, t.col, h, c, &ev.name, out);
                    }
                }
            }
        }
        // Migrated lock-discipline check, class-aware: two same-class
        // guards in one function only via the sanctioned pair helper.
        if !fn_is_wrapper && !pair_called {
            for (class, sites) in &guard_sites {
                if sites.len() >= 2 {
                    let t = &file.code[sites[1]];
                    out.push(diag(
                        file,
                        t.line,
                        t.col,
                        format!("fn `{}` acquires two `{}` guards ad hoc", f.name, class),
                        "route the pair through a `lock_pair_ordered` helper (guards \
                         ascend by bank id), restructure to one acquisition, or add \
                         `// pcm-lint: allow(lock-order)` proving the order cannot invert"
                            .to_string(),
                    ));
                }
            }
        }
    }

    // Defense in depth: a cyclic observed graph deadlocks under *any*
    // declared order. With a total order every cycle also contains an
    // out-of-order edge, so this usually adds context, not new sites.
    if let Some(cycle) = graph.find_cycle() {
        if let Some((_, _, (file, line, via))) = graph.out_of_order().first() {
            out.push(Diagnostic {
                rule: RULE,
                file: file.clone(),
                line: *line,
                col: 1,
                message: format!("lock graph contains a cycle: {}", cycle.join(" → ")),
                suggestion: format!(
                    "break the cycle (witness edge via `{via}`); the declared order is {}",
                    DECLARED_ORDER.join(" → ")
                ),
            });
        }
    }
}

fn order_check(
    file: &crate::source::SourceFile,
    line: u32,
    col: u32,
    held: &str,
    acquired: &str,
    via: &str,
    out: &mut Vec<Diagnostic>,
) {
    let ok = matches!((rank(held), rank(acquired)), (Some(h), Some(a)) if a > h);
    if ok {
        return;
    }
    out.push(diag(
        file,
        line,
        col,
        format!(
            "acquires `{acquired}` (via `{via}`) while holding `{held}` — against the declared \
             order {}",
            DECLARED_ORDER.join(" → ")
        ),
        "acquire locks in declared order only: restructure so the outer lock is taken first, \
         or release the held guard before this call"
            .to_string(),
    ));
}

fn diag(
    file: &crate::source::SourceFile,
    line: u32,
    col: u32,
    message: String,
    suggestion: String,
) -> Diagnostic {
    Diagnostic {
        rule: RULE,
        file: file.rel.clone(),
        line,
        col,
        message,
        suggestion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::single(SourceFile::parse("t.rs", "pcm-device", src));
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    const WRAPPER_DEFS: &str = "\
        fn lock_stripe(m: &Mutex<()>) -> MutexGuard<'_, ()> {\n\
            m.lock().unwrap_or_else(PoisonError::into_inner)\n\
        }\n\
        fn lock_state(m: &Mutex<u32>) -> MutexGuard<'_, u32> {\n\
            m.lock().unwrap_or_else(PoisonError::into_inner)\n\
        }\n\
        fn lock_bank(m: &Mutex<u64>) -> MutexGuard<'_, u64> {\n\
            m.lock().unwrap_or_else(PoisonError::into_inner)\n\
        }\n";

    #[test]
    fn in_order_acquisition_is_clean() {
        let src = format!(
            "{WRAPPER_DEFS}\n\
             fn op(s: &Mutex<()>, a: &Mutex<u32>, b: &Mutex<u64>) {{\n\
                 let _s = lock_stripe(s);\n\
                 let _a = lock_state(a);\n\
                 let _b = lock_bank(b);\n\
             }}\n"
        );
        assert_eq!(run(&src), vec![]);
    }

    #[test]
    fn out_of_order_direct_acquisition_is_flagged_at_the_call_site() {
        let src = format!(
            "{WRAPPER_DEFS}\n\
             fn op(s: &Mutex<()>, b: &Mutex<u64>) {{\n\
                 let _b = lock_bank(b);\n\
                 let _s = lock_stripe(s);\n\
             }}\n"
        );
        let diags = run(&src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`stripe`"));
        assert!(diags[0].message.contains("holding `bank`"));
    }

    #[test]
    fn out_of_order_through_a_call_is_flagged() {
        let src = format!(
            "{WRAPPER_DEFS}\n\
             fn helper(s: &Mutex<()>) {{\n\
                 let _s = lock_stripe(s);\n\
             }}\n\
             fn op(s: &Mutex<()>, b: &Mutex<u64>) {{\n\
                 let _b = lock_bank(b);\n\
                 helper(s);\n\
             }}\n"
        );
        let diags = run(&src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("via `helper`"));
    }

    #[test]
    fn forward_order_through_a_call_is_clean() {
        let src = format!(
            "{WRAPPER_DEFS}\n\
             fn to_bank(b: &Mutex<u64>) -> u64 {{\n\
                 *lock_bank(b)\n\
             }}\n\
             fn op(s: &Mutex<()>, b: &Mutex<u64>) -> u64 {{\n\
                 let _s = lock_stripe(s);\n\
                 to_bank(b)\n\
             }}\n"
        );
        assert_eq!(run(&src), vec![]);
    }

    #[test]
    fn ad_hoc_same_class_pair_is_flagged_but_helper_is_sanctioned() {
        let bad = format!(
            "{WRAPPER_DEFS}\n\
             fn op(a: &Mutex<u64>, b: &Mutex<u64>) {{\n\
                 let _a = lock_bank(a);\n\
                 let _b = lock_bank(b);\n\
             }}\n"
        );
        let diags = run(&bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("two `bank` guards"));

        let good = format!(
            "{WRAPPER_DEFS}\n\
             fn lock_pair_ordered(a: &Mutex<u64>, b: &Mutex<u64>) -> (MutexGuard<'_, u64>, MutexGuard<'_, u64>) {{\n\
                 (lock_bank(a), lock_bank(b))\n\
             }}\n\
             fn op(a: &Mutex<u64>, b: &Mutex<u64>) {{\n\
                 let (_a, _b) = lock_pair_ordered(a, b);\n\
             }}\n"
        );
        assert_eq!(run(&good), vec![]);
    }

    #[test]
    fn raw_lock_outside_wrapper_is_flagged() {
        let diags = run("fn sneaky(m: &Mutex<u64>) -> u64 {\n    *m.lock().unwrap_or_else(PoisonError::into_inner)\n}\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("raw `.lock(`"));
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn injected_cycle_is_detected() {
        // The cycle-injection negative test the lock graph must catch:
        // stripe → bank (legal) plus bank → stripe (illegal) is a cycle
        // no matter which of the two the declared order blesses.
        let mut g = LockGraph::default();
        g.add_edge("stripe", "bank", "a.rs", 1, "x");
        g.add_edge("bank", "stripe", "b.rs", 9, "y");
        let cycle = g.find_cycle().expect("cycle found");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        assert!(!g.out_of_order().is_empty());
    }

    #[test]
    fn acyclic_in_order_graph_is_clean() {
        let mut g = LockGraph::default();
        g.add_edge("stripe", "allocator", "a.rs", 1, "x");
        g.add_edge("allocator", "bank", "a.rs", 2, "y");
        g.add_edge("stripe", "bank", "a.rs", 3, "z");
        assert!(g.find_cycle().is_none());
        assert!(g.out_of_order().is_empty());
    }

    #[test]
    fn duplicate_wrapper_definition_is_flagged() {
        let src = "\
            fn lock_bank(m: &Mutex<u64>) -> MutexGuard<'_, u64> {\n\
                m.lock().unwrap_or_else(PoisonError::into_inner)\n\
            }\n\
            mod other {\n\
                fn lock_bank(m: &Mutex<u32>) -> MutexGuard<'_, u32> {\n\
                    m.lock().unwrap_or_else(PoisonError::into_inner)\n\
                }\n\
            }\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("duplicate definition"));
    }
}
