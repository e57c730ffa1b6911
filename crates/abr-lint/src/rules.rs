//! The rule catalogue.
//!
//! Each rule walks the token stream produced by [`crate::lexer`] and
//! emits [`Diagnostic`]s. Rules are purely syntactic — they know the
//! crate name and repo-relative path of the file under analysis and the
//! set of `abr-lint: allow(...)` annotations, nothing more.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in result-path crates |
//! | D002 | no wall-clock / environment reads outside the allowlist |
//! | D003 | no unseeded randomness anywhere |
//! | P001 | `unwrap()`/`expect()` in library code stays within the file's ratcheted baseline entry |
//! | C001 | no `as` narrowing casts in sector/cylinder arithmetic modules |
//! | L001 | the lint's own inputs are well-formed: annotations (known rule, non-empty reason), baseline entries (justified), taint entry points (each resolves to a function) |
//!
//! The interprocedural rules (D004/D005, [`crate::taint`]) and the
//! metric schema cross-check (M001/M002, [`crate::schema`]) live in
//! their own modules — they need the whole workspace, not one file —
//! but their ids are registered here so annotations naming them parse.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::Diagnostic;

/// Crates whose code runs on the simulated-result path: anything with
/// host-dependent iteration order here can leak into `results/*.json`.
pub const RESULT_PATH_CRATES: &[&str] = &[
    "abr-array",
    "abr-core",
    "abr-disk",
    "abr-driver",
    "abr-fs",
    "abr-workload",
];

/// Files allowed to read the wall clock: the bench engine's wall-time
/// reporting (never folded into simulated results) and the observability
/// timer abstraction.
pub const D002_ALLOWLIST: &[&str] = &[
    "crates/abr-bench/src/engine.rs",
    "crates/abr-obs/src/timer.rs",
];

/// File names whose arithmetic is sector/cylinder geometry: narrowing
/// `as` casts there have historically been where truncation bugs hide.
pub const C001_FILES: &[&str] = &["geometry.rs", "layout.rs", "cylmap.rs", "stripe.rs"];

/// Cast targets C001 treats as narrowing. `usize`/`u64`/`u128` are
/// widening (or identity) on every supported host and stay legal.
pub const C001_NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// All rule ids an annotation may name.
pub const KNOWN_RULES: &[&str] = &[
    "D001", "D002", "D003", "D004", "D005", "P001", "C001", "M001", "M002",
];

/// Everything the rules need to know about one file.
pub struct FileCtx<'a> {
    /// Crate the file belongs to (directory name under `crates/`).
    pub crate_name: &'a str,
    /// Repo-relative path with forward slashes.
    pub rel_path: &'a str,
    /// Lexed source.
    pub lexed: &'a Lexed,
}

/// Result of linting one file: immediate diagnostics plus the P001
/// occurrence list (the baseline ratchet runs at workspace level).
#[derive(Default)]
pub struct FileLint {
    /// D001/D002/D003/C001/L001 findings.
    pub diags: Vec<Diagnostic>,
    /// Lines of unannotated `unwrap()`/`expect()` calls in non-test
    /// code, if P001 applies to this file.
    pub p001_lines: Vec<u32>,
}

/// L001: every annotation must name a known rule and give a reason.
fn check_annotations(ctx: &FileCtx<'_>, diags: &mut Vec<Diagnostic>) {
    for a in &ctx.lexed.annotations {
        let message = if !KNOWN_RULES.contains(&a.rule.as_str()) {
            format!("annotation names unknown rule `{}`", a.rule)
        } else if a.reason.is_empty() {
            format!("allow({}) annotation is missing a reason", a.rule)
        } else {
            continue;
        };
        diags.push(Diagnostic::new("L001", ctx.rel_path, a.line, message));
    }
}

/// Run every rule over one lexed file.
pub fn lint_file(ctx: &FileCtx<'_>) -> FileLint {
    let mut out = FileLint::default();
    check_annotations(ctx, &mut out.diags);
    let allow = ctx.lexed.allow_lines();
    let allowed = |line: u32, rule: &str| allow.get(&line).is_some_and(|s| s.contains(rule));
    let toks = &ctx.lexed.tokens;
    let in_test = &ctx.lexed.in_test;
    let is = |i: usize, kind: TokKind, s: &str| -> bool {
        toks.get(i)
            .map(|t: &Tok| t.kind == kind && t.text == s)
            .unwrap_or(false)
    };
    let path_sep = |i: usize| is(i, TokKind::Punct, ":") && is(i + 1, TokKind::Punct, ":");

    let d001_applies = RESULT_PATH_CRATES.contains(&ctx.crate_name);
    let d002_applies = !D002_ALLOWLIST.contains(&ctx.rel_path);
    let file_name = ctx.rel_path.rsplit('/').next().unwrap_or(ctx.rel_path);
    let c001_applies = C001_FILES.contains(&file_name);
    let p001_applies =
        !ctx.rel_path.contains("/src/bin/") && !ctx.rel_path.ends_with("/src/main.rs");

    for (i, t) in toks.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        let line = t.line;
        if t.kind == TokKind::Ident {
            // D001 — randomized-iteration containers on the result path.
            if d001_applies
                && (t.text == "HashMap" || t.text == "HashSet")
                && !allowed(line, "D001")
            {
                out.diags.push(Diagnostic::new(
                    "D001",
                    ctx.rel_path,
                    line,
                    format!(
                        "`{}` has host-randomized iteration order; use BTreeMap/BTreeSet or sort at emit (or annotate why order cannot leak)",
                        t.text
                    ),
                ));
            }

            // D002 — wall clock / environment reads.
            if d002_applies {
                let hit = if t.text == "SystemTime" {
                    Some("SystemTime")
                } else if t.text == "Instant" && path_sep(i + 1) && is(i + 3, TokKind::Ident, "now")
                {
                    Some("Instant::now")
                } else if t.text == "env"
                    && path_sep(i + 1)
                    && (is(i + 3, TokKind::Ident, "var")
                        || is(i + 3, TokKind::Ident, "vars")
                        || is(i + 3, TokKind::Ident, "var_os"))
                {
                    Some("env::var")
                } else {
                    None
                };
                if let Some(what) = hit {
                    if !allowed(line, "D002") {
                        out.diags.push(Diagnostic::new(
                            "D002",
                            ctx.rel_path,
                            line,
                            format!(
                                "`{what}` outside the wall-clock allowlist; simulated results must not depend on host time or environment"
                            ),
                        ));
                    }
                }
            }

            // D003 — unseeded randomness, banned everywhere.
            let hit = if t.text == "thread_rng" || t.text == "OsRng" || t.text == "from_entropy" {
                Some(t.text.as_str())
            } else if t.text == "rand" && path_sep(i + 1) && is(i + 3, TokKind::Ident, "random") {
                Some("rand::random")
            } else {
                None
            };
            if let Some(what) = hit {
                if !allowed(line, "D003") {
                    out.diags.push(Diagnostic::new(
                        "D003",
                        ctx.rel_path,
                        line,
                        format!(
                            "`{what}` is unseeded randomness; derive a stream from SimRng instead"
                        ),
                    ));
                }
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
                            ctx.rel_path,
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

    fn run(crate_name: &str, rel_path: &str, src: &str) -> FileLint {
        let lexed = lex(src);
        lint_file(&FileCtx {
            crate_name,
            rel_path,
            lexed: &lexed,
        })
    }

    #[test]
    fn d001_fires_only_in_result_path_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            run("abr-core", "crates/abr-core/src/x.rs", src).diags.len(),
            1
        );
        assert!(run("abr-bench", "crates/abr-bench/src/x.rs", src)
            .diags
            .is_empty());
    }

    #[test]
    fn d001_respects_annotation_and_test_code() {
        let src = "use std::collections::HashMap; // abr-lint: allow(D001, keyed lookup only)\n\
                   #[cfg(test)]\nmod t { use std::collections::HashSet; }\n";
        let l = run("abr-driver", "crates/abr-driver/src/x.rs", src);
        assert!(l.diags.is_empty(), "{:?}", l.diags);
    }

    #[test]
    fn d002_matches_instant_now_but_not_instant_elapsed() {
        let bad = "let t = Instant::now();\n";
        let ok = "fn f(t: Instant) -> Duration { t.elapsed() }\n";
        assert_eq!(
            run("abr-core", "crates/abr-core/src/x.rs", bad).diags.len(),
            1
        );
        assert!(run("abr-core", "crates/abr-core/src/x.rs", ok)
            .diags
            .is_empty());
    }

    #[test]
    fn d002_allowlist_files_are_exempt() {
        let src = "let t = Instant::now(); let s = SystemTime::now();\n";
        assert!(run("abr-bench", "crates/abr-bench/src/engine.rs", src)
            .diags
            .is_empty());
        assert!(run("abr-obs", "crates/abr-obs/src/timer.rs", src)
            .diags
            .is_empty());
        assert_eq!(
            run("abr-obs", "crates/abr-obs/src/registry.rs", src)
                .diags
                .len(),
            2
        );
    }

    #[test]
    fn d002_env_reads() {
        let src = "let p = std::env::var(\"PATH\");\n";
        assert_eq!(
            run("abr-bench", "crates/abr-bench/src/runs.rs", src)
                .diags
                .len(),
            1
        );
        // env::consts is compile-time constant, not an environment read.
        let consts = "let os = std::env::consts::OS;\n";
        assert!(run("abr-bench", "crates/abr-bench/src/runs.rs", consts)
            .diags
            .is_empty());
    }

    #[test]
    fn d003_unseeded_randomness_everywhere() {
        let src = "let x = rand::random::<u64>(); let mut r = thread_rng();\n";
        let l = run("abr-bench", "crates/abr-bench/src/x.rs", src);
        assert_eq!(l.diags.len(), 2);
        assert!(l.diags.iter().all(|d| d.rule == "D003"));
    }

    #[test]
    fn p001_counts_unannotated_non_test_calls() {
        let src = "fn f() { a.unwrap(); b.expect(\"x\"); }\n\
                   fn g() { c.unwrap(); } // abr-lint: allow(P001, infallible by construction)\n\
                   #[cfg(test)]\nmod t { fn h() { d.unwrap(); } }\n";
        let l = run("abr-core", "crates/abr-core/src/x.rs", src);
        assert_eq!(l.p001_lines, vec![1, 1]);
    }

    #[test]
    fn p001_skips_binaries() {
        let src = "fn main() { a.unwrap(); }\n";
        assert!(
            run("abr-bench", "crates/abr-bench/src/bin/experiments.rs", src)
                .p001_lines
                .is_empty()
        );
        assert!(run("abr-lint", "crates/abr-lint/src/main.rs", src)
            .p001_lines
            .is_empty());
    }

    #[test]
    fn c001_narrowing_only_in_geometry_files() {
        let src = "let a = x as u32; let b = x as u64; let c = x as usize;\n";
        let l = run("abr-disk", "crates/abr-disk/src/geometry.rs", src);
        assert_eq!(l.diags.len(), 1, "{:?}", l.diags);
        assert!(l.diags[0].message.contains("as u32"));
        assert!(run("abr-disk", "crates/abr-disk/src/store.rs", src)
            .diags
            .is_empty());
    }

    #[test]
    fn c001_use_renames_do_not_fire() {
        let src = "use crate::geometry::Geometry as u32geom;\n";
        assert!(run("abr-disk", "crates/abr-disk/src/geometry.rs", src)
            .diags
            .is_empty());
    }

    #[test]
    fn l001_flags_missing_reason_and_unknown_rule() {
        let src = "use std::collections::HashMap; // abr-lint: allow(D001)\n\
                   let x = 1; // abr-lint: allow(D999, whatever)\n";
        let l = run("abr-core", "crates/abr-core/src/x.rs", src);
        let rules: Vec<&str> = l.diags.iter().map(|d| d.rule.as_str()).collect();
        assert_eq!(rules, vec!["L001", "L001"]);
    }
}
