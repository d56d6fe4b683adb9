//! `no-ambient-nondeterminism`: simulation results are a pure function
//! of the seed.
//!
//! Reproduced error-rate numbers (Figure 16, the scrub tax, the
//! proptest cross-validation of threaded vs. inline device runs) are only
//! meaningful if a run can be replayed bit-for-bit from its seed. In the
//! core/device/sim crates this rule forbids wall-clock reads
//! (`Instant::now`, `SystemTime`), process-environment reads
//! (`std::env`), entropy-based RNGs (`thread_rng`, `OsRng`,
//! `from_entropy`, `getrandom`), and ad-hoc RNG construction: every
//! generator must either come from `pcm_core::rng`'s stream-derivation
//! API (`Xoshiro256pp::split` / `stream_seed`) or carry an allow comment
//! documenting where its seed flows from.

use super::{Rule, DETERMINISM_CRATES};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Diagnostic;

pub struct NoAmbientNondeterminism;

const ENTROPY_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "getrandom"];
const ENV_READS: &[&str] = &["var", "vars", "var_os", "args", "args_os"];

impl Rule for NoAmbientNondeterminism {
    fn id(&self) -> &'static str {
        "no-ambient-nondeterminism"
    }

    fn describe(&self) -> &'static str {
        "forbid wall-clock, env, and non-canonical RNG construction in core/device/sim"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !DETERMINISM_CRATES.contains(&f.crate_name.as_str()) {
            return;
        }
        // `pcm_core::rng` is the one module allowed to define and seed
        // generators directly.
        let is_rng_home = f.rel.ends_with("pcm-core/src/rng.rs");
        for i in 0..f.code.len() {
            if f.in_test[i] || f.code[i].kind != TokKind::Ident {
                continue;
            }
            let t = &f.code[i];
            let (message, suggestion) = match t.text.as_str() {
                "Instant" if f.is_punct(i + 1, "::") && f.is_ident(i + 2, "now") => (
                    "`Instant::now()` makes results depend on wall-clock scheduling".to_string(),
                    "derive timing from the simulated clock (device `now()` / integer ticks); \
                     wall-clock belongs in bench code only",
                ),
                "SystemTime" => (
                    "`SystemTime` reads the host clock, breaking seed-reproducibility".to_string(),
                    "thread simulated time through explicitly; wall-clock belongs in bench code \
                     only",
                ),
                "std" if f.is_punct(i + 1, "::") && f.is_ident(i + 2, "env") => (
                    "`std::env` makes results depend on the process environment".to_string(),
                    "pass configuration through SimParams/DeviceBuilder so runs replay from \
                     their recorded inputs",
                ),
                "env"
                    if f.is_punct(i + 1, "::")
                        && f.tok(i + 2)
                            .is_some_and(|n| ENV_READS.contains(&n.text.as_str())) =>
                {
                    (
                        "environment read makes results depend on the process environment"
                            .to_string(),
                        "pass configuration through SimParams/DeviceBuilder so runs replay from \
                         their recorded inputs",
                    )
                }
                id if ENTROPY_IDENTS.contains(&id) => (
                    format!("`{id}` draws OS entropy; results become unreproducible"),
                    "seed a pcm_core::rng::Xoshiro256pp from an explicit u64 carried in the \
                     config",
                ),
                "seed_from_u64" if !is_rng_home => (
                    "direct RNG construction outside pcm_core::rng bypasses the stream-identity \
                     discipline"
                        .to_string(),
                    "derive the stream with Xoshiro256pp::split / stream_seed(seed, index), or \
                     add `// pcm-lint: allow(no-ambient-nondeterminism)` documenting where the \
                     seed flows from",
                ),
                _ => continue,
            };
            out.push(Diagnostic {
                rule: self.id(),
                file: f.rel.clone(),
                line: t.line,
                col: t.col,
                message,
                suggestion: suggestion.to_string(),
            });
        }
    }
}
