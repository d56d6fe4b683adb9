//! `no-panic-lib`: library crates must return typed errors, not panic.
//!
//! PR 1 introduced `PcmError`/`ConfigError` and PR 2 `TraceParseError`
//! precisely so callers never hit a panic on a fallible path. This rule
//! keeps that promise: `unwrap()`, `expect(…)`, `panic!` and `assert!`
//! are forbidden in non-test code of the library crates. A method call
//! counts only with the `Option`/`Result` signature, `.unwrap()` with no
//! argument and `.expect(msg)` with exactly one, so a crate's own
//! `expect(byte, what)` parser method is not a panic. Genuinely
//! infallible uses carry a `// pcm-lint: allow(no-panic-lib)` comment
//! stating the invariant; `debug_assert!` (compiled out of release
//! builds) is always fine.

use super::{Rule, LIB_CRATES};
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Diagnostic;

pub struct NoPanicLib;

impl Rule for NoPanicLib {
    fn id(&self) -> &'static str {
        "no-panic-lib"
    }

    fn describe(&self) -> &'static str {
        "forbid unwrap()/expect()/panic!/assert! in non-test library code"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !LIB_CRATES.contains(&f.crate_name.as_str()) {
            return;
        }
        for i in 0..f.code.len() {
            if f.in_test[i] || f.code[i].kind != TokKind::Ident {
                continue;
            }
            let t = &f.code[i];
            let (what, suggestion) = match t.text.as_str() {
                "unwrap" | "expect"
                    if f.is_punct(i + 1, "(")
                        && i > 0
                        && f.is_punct(i - 1, ".")
                        && top_level_args(f, i + 1) == usize::from(t.text == "expect") =>
                {
                    (
                        format!("`.{}(…)` can panic at runtime", t.text),
                        "return a typed error (PcmError / ConfigError / TraceParseError), use \
                         unwrap_or / ok_or, or add `// pcm-lint: allow(no-panic-lib)` with the \
                         invariant that makes this infallible",
                    )
                }
                "panic" | "assert" if f.is_punct(i + 1, "!") => (
                    format!("`{}!` in library code panics the caller", t.text),
                    "return a typed error on fallible paths; for true invariants use \
                     debug_assert! or add `// pcm-lint: allow(no-panic-lib)` with a one-line \
                     justification",
                ),
                _ => continue,
            };
            out.push(Diagnostic {
                rule: self.id(),
                file: f.rel.clone(),
                line: t.line,
                col: t.col,
                message: what,
                suggestion: suggestion.to_string(),
            });
        }
    }
}

/// The number of arguments in the call whose `(` is `code[open]`: the
/// commas outside any nested bracket, plus one unless the list is empty,
/// minus a trailing comma. An unterminated list counts what it has.
fn top_level_args(f: &SourceFile, open: usize) -> usize {
    let (mut depth, mut commas, mut empty, mut trailing) = (0usize, 0, true, false);
    for tok in f.code.iter().skip(open + 1) {
        if tok.kind == TokKind::Punct {
            match tok.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => break,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    commas += 1;
                    trailing = true;
                    continue;
                }
                _ => {}
            }
        }
        empty = false;
        trailing = false;
    }
    if empty {
        0
    } else {
        commas + 1 - usize::from(trailing)
    }
}
