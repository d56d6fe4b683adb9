//! The `pcm-lint` rule set.
//!
//! Each rule enforces one repo-specific invariant introduced by an
//! earlier PR (see DESIGN.md §15 for the full table). Rules operate on a
//! [`SourceFile`] token stream and emit [`Diagnostic`]s; the engine
//! filters out spans covered by a `// pcm-lint: allow(<rule>)` comment.
//!
//! Per-file rules implement [`Rule`]. The inter-procedural `lock-order`
//! analysis (`crate::lock_order`) runs over the whole-workspace item
//! model instead — it shares the diagnostic format and allow machinery
//! but not this trait, because it cannot be computed one file at a
//! time.

use crate::source::SourceFile;
use crate::Diagnostic;

mod ambient;
mod atomic_ordering;
mod deprecated_internal;
mod float_tick;
mod panic_lib;

/// A single per-file lint rule.
pub trait Rule {
    /// Stable rule id, as used in diagnostics and allow comments.
    fn id(&self) -> &'static str;
    /// One-line description for `--list` style output and docs.
    fn describe(&self) -> &'static str;
    /// Scan one file, pushing diagnostics.
    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// Every registered per-file rule, in diagnostic-id order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(panic_lib::NoPanicLib),
        Box::new(float_tick::NoFloatTick),
        Box::new(ambient::NoAmbientNondeterminism),
        Box::new(atomic_ordering::AtomicOrdering),
        Box::new(deprecated_internal::NoDeprecatedInternal),
    ]
}

/// Every rule id a `// pcm-lint: allow(<rule>)` comment may name:
/// the per-file rules plus the workspace-level `lock-order` analysis.
/// The suppression audit flags allows naming anything else (including
/// ids of rules that have since been removed, like `lock-discipline`).
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all().iter().map(|r| r.id()).collect();
    ids.push(crate::lock_order::RULE);
    ids.sort_unstable();
    ids
}

/// The library crates whose non-test code must not panic.
pub const LIB_CRATES: &[&str] = &[
    "pcm-core",
    "pcm-device",
    "pcm-sim",
    "pcm-store",
    "pcm-trace",
    "pcm-telemetry",
    "pcm-ecc",
    "pcm-codec",
    "pcm-wearout",
];

/// The crates whose results must be a pure function of the seed.
/// `pcm-ecc` is in because decode results feed the determinism gates:
/// its table registries and decoders must stay free of ambient entropy
/// and clocks too.
/// `pcm-telemetry` joined with the time-series layer: its sample ticks
/// and series feed a byte-identical CI oracle, so they must be a pure
/// function of the observation sequence.
pub const DETERMINISM_CRATES: &[&str] = &[
    "pcm-core",
    "pcm-device",
    "pcm-sim",
    "pcm-store",
    "pcm-trace",
    "pcm-telemetry",
    "pcm-ecc",
];

/// The crates that hold locks. `pcm-ecc` joined with its shared-table
/// registries (`bch_registry`/`gf_registry`), which nest under the
/// store's stripe/allocator/bank guards when decode runs inside a
/// serving path — so the lock-order analysis must see them.
/// `pcm-telemetry` joined with the series recorder's state mutex
/// (`lock_series`), the innermost `telemetry` class: it is taken from
/// `advance_time` while no other workspace lock is held, and holds while
/// emitting trace instants (lock-free ring pushes).
pub const LOCK_CRATES: &[&str] = &[
    "pcm-device",
    "pcm-sim",
    "pcm-store",
    "pcm-ecc",
    "pcm-telemetry",
];
