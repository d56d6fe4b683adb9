//! `no-float-tick`: scheduler deadlines advance on integer ticks.
//!
//! A scrub scheduler that advances `next_due` by repeated `f64`
//! addition drifts: after ~1e7 steps the accumulated rounding error
//! shifts scrub launches, changing error counts between runs of
//! different lengths. The scrub schedule therefore computes every
//! deadline as `tick as f64 * step` from an integer tick
//! (`ScrubScheduler::due_time`). This rule
//! forbids re-introducing float *accumulation* into any variable named
//! like a schedule point (`*tick*`, `*due*`, `*deadline*`) in scheduler
//! code (files whose name contains `scrub`, `refresh`, `sched`, or
//! `tick`).

use super::Rule;
use crate::lexer::TokKind;
use crate::source::SourceFile;
use crate::Diagnostic;
use std::collections::BTreeSet;

pub struct NoFloatTick;

const NAME_KEYS: &[&str] = &["tick", "due", "deadline"];

fn is_schedule_name(name: &str) -> bool {
    let lower = name.to_lowercase();
    NAME_KEYS.iter().any(|k| lower.contains(k))
}

fn file_in_scope(rel: &str) -> bool {
    let stem = rel.rsplit('/').next().unwrap_or(rel).to_lowercase();
    ["scrub", "refresh", "sched", "tick"]
        .iter()
        .any(|k| stem.contains(k))
}

impl Rule for NoFloatTick {
    fn id(&self) -> &'static str {
        "no-float-tick"
    }

    fn describe(&self) -> &'static str {
        "forbid f32/f64 accumulation into *tick*/*due*/*deadline* variables in scheduler code"
    }

    fn check(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !file_in_scope(&f.rel) {
            return;
        }
        // Pass 1: names with float type ascriptions (`name: f64`) or
        // float-literal initializers (`let [mut] name = 1.0`).
        let mut float_names: BTreeSet<&str> = BTreeSet::new();
        for i in 0..f.code.len() {
            if f.code[i].kind != TokKind::Ident {
                continue;
            }
            if f.is_punct(i + 1, ":") && (f.is_ident(i + 2, "f64") || f.is_ident(i + 2, "f32")) {
                float_names.insert(f.code[i].text.as_str());
            }
            if f.code[i].text == "let" {
                let name_at = if f.is_ident(i + 1, "mut") {
                    i + 2
                } else {
                    i + 1
                };
                if f.tok(name_at).is_some_and(|t| t.kind == TokKind::Ident)
                    && f.is_punct(name_at + 1, "=")
                    && f.tok(name_at + 2)
                        .is_some_and(|t| t.kind == TokKind::FloatLit)
                {
                    float_names.insert(f.code[name_at].text.as_str());
                }
            }
        }
        // Pass 2: flag float accumulation into schedule-point names.
        for i in 0..f.code.len() {
            if f.in_test[i] || f.code[i].kind != TokKind::Ident {
                continue;
            }
            let name = f.code[i].text.as_str();
            if !is_schedule_name(name) {
                continue;
            }
            let flagged = if f.is_punct(i + 1, "+=") {
                float_names.contains(name) || rhs_is_floaty(f, i + 2, &float_names)
            } else if f.is_punct(i + 1, "=") {
                // `name = … name + …` self-accumulation.
                let mut has_self = false;
                let mut has_plus = false;
                let mut j = i + 2;
                while let Some(t) = f.tok(j) {
                    if t.kind == TokKind::Punct && (t.text == ";" || t.text == "{") {
                        break;
                    }
                    has_self |= t.kind == TokKind::Ident && t.text == name;
                    has_plus |= t.kind == TokKind::Punct && t.text == "+";
                    j += 1;
                }
                has_self
                    && has_plus
                    && (float_names.contains(name) || rhs_is_floaty(f, i + 2, &float_names))
            } else {
                false
            };
            if flagged {
                let t = &f.code[i];
                out.push(Diagnostic {
                    rule: self.id(),
                    file: f.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "float accumulation into schedule point `{name}` drifts over long \
                         horizons"
                    ),
                    suggestion: "advance an integer tick counter and derive the deadline as \
                                 `tick as f64 * step` (see ScrubScheduler::due_time)"
                        .to_string(),
                });
            }
        }
    }
}

/// Does the expression from `start` to the next `;` involve floats? True
/// when it contains a float literal, an `as f64`/`as f32` cast, or a
/// name known to be float-typed.
fn rhs_is_floaty(f: &SourceFile, start: usize, float_names: &BTreeSet<&str>) -> bool {
    let mut j = start;
    while let Some(t) = f.tok(j) {
        if t.kind == TokKind::Punct && t.text == ";" {
            break;
        }
        match t.kind {
            TokKind::FloatLit => return true,
            TokKind::Ident if t.text == "f64" || t.text == "f32" => return true,
            TokKind::Ident if float_names.contains(t.text.as_str()) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}
