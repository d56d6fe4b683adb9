//! `no-deprecated-internal`: the workspace ships no deprecated API.
//!
//! The positional device constructors were once deprecated behind
//! `#[deprecated]` shims and later deleted, making `DeviceBuilder` the
//! only construction path and the public surface deprecation-free. This
//! rule keeps it that way: non-test code may neither introduce a new
//! `#[deprecated]` item (deprecation cycles don't exist inside one
//! workspace — delete or redesign instead) nor blanket-suppress
//! deprecation warnings with `#[allow(deprecated)]` (which would also
//! hide deprecations from future dependency upgrades).

use super::Rule;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Diagnostic;

pub struct NoDeprecatedInternal;

impl Rule for NoDeprecatedInternal {
    fn id(&self) -> &'static str {
        "no-deprecated-internal"
    }

    fn describe(&self) -> &'static str {
        "forbid #[deprecated] items and #[allow(deprecated)] suppressions in non-test code"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        for i in 0..f.code.len() {
            if f.in_test[i] {
                continue;
            }
            let t = &f.code[i];
            if t.kind != TokKind::Punct || t.text != "#" || !f.is_punct(i + 1, "[") {
                continue;
            }
            // `#[deprecated]` / `#[deprecated(since = …)]`.
            if f.is_ident(i + 2, "deprecated") {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`#[deprecated]` item in the workspace".to_string(),
                    suggestion: "the workspace carries no deprecation shims: delete the old \
                                 surface and migrate its callers in the same PR (see the \
                                 DeviceBuilder migration)"
                        .to_string(),
                });
            }
            // `#[allow(deprecated)]`.
            if f.is_ident(i + 2, "allow")
                && f.is_punct(i + 3, "(")
                && f.is_ident(i + 4, "deprecated")
            {
                out.push(Diagnostic {
                    rule: self.id(),
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`#[allow(deprecated)]` suppression in non-test code".to_string(),
                    suggestion: "migrate the call site off the deprecated API instead of \
                                 suppressing the warning"
                        .to_string(),
                });
            }
        }
    }
}
