//! The rule catalogue.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and
//! emits [`Diagnostic`]s. Rules are purely syntactic — they know the
//! repo-relative path of the file under analysis and the set of
//! `abr-lint: allow(...)` annotations, nothing more.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in any workspace crate |
//! | P001 | `unwrap()`/`expect()` in library code stays within the file's ratcheted baseline entry |
//! | C001 | no `as` narrowing casts in sector/cylinder arithmetic modules |
//! | L001 | the lint's own inputs are well-formed: annotations (known rule, non-empty reason), baseline entries (justified) |
//!
//! Calls that read the wall clock, the environment, directory order or
//! unseeded randomness are not token rules: clippy resolves the callee's
//! type, so `clippy.toml`'s `disallowed-methods` owns them.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Diagnostic;

/// File names whose arithmetic is sector/cylinder geometry: narrowing
/// `as` casts there have historically been where truncation bugs hide.
pub const C001_FILES: &[&str] = &["geometry.rs", "layout.rs", "cylmap.rs", "stripe.rs"];

/// Cast targets C001 treats as narrowing. `usize`/`u64`/`u128` are
/// widening (or identity) on every supported host and stay legal.
pub const C001_NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// All rule ids an annotation may name.
pub const KNOWN_RULES: &[&str] = &["D001", "P001", "C001"];

/// Result of linting one file: immediate diagnostics plus the P001
/// occurrence list (the baseline ratchet runs at workspace level).
#[derive(Default)]
pub struct FileLint {
    /// D001/C001/L001 findings.
    pub diags: Vec<Diagnostic>,
    /// Lines of unannotated `unwrap()`/`expect()` calls in non-test
    /// code, if P001 applies to this file.
    pub p001_lines: Vec<u32>,
}

/// L001: every annotation must name a known rule and give a reason.
fn check_annotations(rel_path: &str, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    for a in &lexed.annotations {
        let message = if !KNOWN_RULES.contains(&a.rule.as_str()) {
            format!("annotation names unknown rule `{}`", a.rule)
        } else if a.reason.is_empty() {
            format!("allow({}) annotation is missing a reason", a.rule)
        } else {
            continue;
        };
        diags.push(Diagnostic::new("L001", rel_path, a.line, message));
    }
}

/// Run every rule over one lexed file (`rel_path`: repo-relative, with
/// forward slashes).
pub fn lint_file(rel_path: &str, lexed: &Lexed) -> FileLint {
    let mut out = FileLint::default();
    check_annotations(rel_path, lexed, &mut out.diags);
    let allow = lexed.allow_lines();
    let allowed = |line: u32, rule: &str| allow.get(&line).is_some_and(|s| s.contains(rule));
    let toks = &lexed.tokens;
    let is = |i: usize, kind: TokKind, s: &str| -> bool {
        toks.get(i)
            .map(|t: &Tok| t.kind == kind && t.text == s)
            .unwrap_or(false)
    };

    let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
    let c001_applies = C001_FILES.contains(&file_name);
    let p001_applies = !rel_path.contains("/src/bin/") && !rel_path.ends_with("/src/main.rs");

    for (i, t) in toks.iter().enumerate() {
        if lexed.in_test[i] {
            continue;
        }
        let line = t.line;
        if t.kind == TokKind::Ident {
            // D001 — randomized-iteration containers, in every crate: a
            // per-file ban is a superset of anything a reachability
            // analysis from the result path could find.
            if (t.text == "HashMap" || t.text == "HashSet") && !allowed(line, "D001") {
                out.diags.push(Diagnostic::new(
                    "D001",
                    rel_path,
                    line,
                    format!(
                        "`{}` has host-randomized iteration order; use BTreeMap/BTreeSet or sort at emit (or annotate why order cannot leak)",
                        t.text
                    ),
                ));
            }

            // C001 — narrowing `as` casts in geometry arithmetic.
            if c001_applies && t.text == "as" {
                if let Some(target) = toks.get(i + 1) {
                    if target.kind == TokKind::Ident
                        && C001_NARROW.contains(&target.text.as_str())
                        && !allowed(line, "C001")
                    {
                        out.diags.push(Diagnostic::new(
                            "C001",
                            rel_path,
                            line,
                            format!(
                                "narrowing `as {}` in sector/cylinder arithmetic; use a checked narrow (abr_sim::narrow) or TryFrom",
                                target.text
                            ),
                        ));
                    }
                }
            }

            // P001 — record unwrap()/expect() occurrences for the ratchet.
            if p001_applies
                && (t.text == "unwrap" || t.text == "expect")
                && i > 0
                && is(i - 1, TokKind::Punct, ".")
                && is(i + 1, TokKind::Punct, "(")
                && !allowed(line, "P001")
            {
                out.p001_lines.push(line);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(rel_path: &str, src: &str) -> FileLint {
        lint_file(rel_path, &lex(src))
    }

    #[test]
    fn d001_fires_in_every_crate() {
        let src = "use std::collections::HashMap;\n";
        for path in ["crates/abr-core/src/x.rs", "crates/abr-bench/src/x.rs"] {
            let l = run(path, src);
            assert_eq!(l.diags.len(), 1, "{path}");
            assert_eq!(l.diags[0].rule, "D001");
        }
    }

    #[test]
    fn d001_respects_annotation_and_test_code() {
        let src = "use std::collections::HashMap; // abr-lint: allow(D001, keyed lookup only)\n\
                   #[cfg(test)]\nmod t { use std::collections::HashSet; }\n";
        let l = run("crates/abr-driver/src/x.rs", src);
        assert!(l.diags.is_empty(), "{:?}", l.diags);
    }

    #[test]
    fn p001_counts_unannotated_non_test_calls() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); }\n\
                   fn g() { c.unwrap(); } // abr-lint: allow(P001, infallible by construction)\n\
                   #[cfg(test)]\nmod t { fn h() { d.unwrap(); } }\n";
        let l = run("crates/abr-core/src/x.rs", src);
        assert_eq!(l.p001_lines, vec![1, 1]);
    }

    #[test]
    fn p001_skips_binaries() {
        let src = "fn main() { a.unwrap(); }\n";
        for path in [
            "crates/abr-bench/src/bin/experiments.rs",
            "crates/abr-lint/src/main.rs",
        ] {
            assert!(run(path, src).p001_lines.is_empty(), "{path}");
        }
    }

    #[test]
    fn c001_narrowing_only_in_geometry_files() {
        let src = "let a = x as u32; let b = x as u64; let c = x as usize;\n";
        let l = run("crates/abr-disk/src/geometry.rs", src);
        assert_eq!(l.diags.len(), 1, "{:?}", l.diags);
        assert!(l.diags[0].message.contains("as u32"));
        assert!(run("crates/abr-disk/src/store.rs", src).diags.is_empty());
    }

    #[test]
    fn c001_use_renames_do_not_fire() {
        let src = "use crate::geometry::Geometry as u32geom;\n";
        assert!(run("crates/abr-disk/src/geometry.rs", src).diags.is_empty());
    }

    #[test]
    fn l001_flags_missing_reason_and_unknown_rule() {
        let src = "use std::collections::HashMap; // abr-lint: allow(D001)\n\
                   let x = 1; // abr-lint: allow(D999, whatever)\n";
        let l = run("crates/abr-core/src/x.rs", src);
        let rules: Vec<&str> = l.diags.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec!["L001", "L001"]);
    }
}
