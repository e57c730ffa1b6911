//! Self-tests for the analyzer, in two halves:
//!
//! * fixture tests — each file under `tests/fixtures/` carries known
//!   violations at known lines; the analyzer must find exactly those
//!   (fixtures are plain data here: `workspace_sources` only scans
//!   `src/`, so they never pollute a real workspace lint);
//! * repo gates — the workspace itself must lint clean, and the
//!   baseline file must byte-match reality (the ratchet: debt can only
//!   go down, and only by regenerating the file).

use abr_lint::lexer::lex;
use abr_lint::rules::{lint_file, FileLint};
use abr_lint::{find_root, lint_workspace, workspace_sources};
use std::path::Path;

fn lint_fixture(name: &str, rel_path: &str) -> FileLint {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let source = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    lint_file(rel_path, &lex(&source))
}

/// (rule, line) pairs of every diagnostic, in order.
fn keys(lint: &FileLint) -> Vec<(String, u32)> {
    lint.diags
        .iter()
        .map(|d| (d.rule.clone(), d.line))
        .collect()
}

#[test]
fn fixture_d001_flags_hashmap_not_btreemap() {
    let lint = lint_fixture("d001_hashmap.rs", "crates/abr-core/src/fixture.rs");
    assert_eq!(
        keys(&lint),
        vec![("D001".to_string(), 4), ("D001".to_string(), 8)],
        "expected the use and the un-annotated field, not the annotated field or test code:\n{}",
        render(&lint)
    );
    assert!(lint.p001_lines.is_empty());
}

#[test]
fn fixture_d001_fires_outside_the_result_path_too() {
    // abr-bench and abr-serve were outside the rule's crate list once;
    // the ban is workspace-wide.
    for path in [
        "crates/abr-bench/src/fixture.rs",
        "crates/abr-serve/src/fixture.rs",
    ] {
        let lint = lint_fixture("d001_hashmap.rs", path);
        assert_eq!(
            keys(&lint),
            vec![("D001".to_string(), 4), ("D001".to_string(), 8)],
            "{path}:\n{}",
            render(&lint)
        );
    }
}

#[test]
fn fixture_c001_flags_narrowing_casts_in_geometry_files_only() {
    let lint = lint_fixture("c001_casts.rs", "crates/abr-disk/src/geometry.rs");
    assert_eq!(
        keys(&lint),
        vec![("C001".to_string(), 4), ("C001".to_string(), 5)],
        "the widening `as u64` must not fire:\n{}",
        render(&lint)
    );
    // Same source under a non-geometry file name: clean.
    let lint = lint_fixture("c001_casts.rs", "crates/abr-disk/src/other.rs");
    assert!(lint.diags.is_empty(), "{}", render(&lint));
}

#[test]
fn fixture_p001_counts_unannotated_nontest_unwraps() {
    let lint = lint_fixture("p001_unwrap.rs", "crates/abr-core/src/fixture.rs");
    assert!(lint.diags.is_empty(), "{}", render(&lint));
    assert_eq!(
        lint.p001_lines,
        vec![3, 4],
        "annotated and #[cfg(test)] unwraps must not be counted"
    );
}

#[test]
fn fixture_p001_exempt_in_binaries() {
    let lint = lint_fixture("p001_unwrap.rs", "crates/abr-core/src/bin/tool.rs");
    assert!(lint.p001_lines.is_empty(), "bin targets may unwrap freely");
}

#[test]
fn fixture_l001_flags_malformed_annotations() {
    let lint = lint_fixture("l001_annotations.rs", "crates/abr-core/src/fixture.rs");
    assert_eq!(
        keys(&lint),
        vec![("L001".to_string(), 3), ("L001".to_string(), 7)],
        "unknown rule and empty reason must both be L001:\n{}",
        render(&lint)
    );
    // The unknown-rule annotation excuses nothing, so line 3's unwrap
    // still counts; the empty-reason P001 allow still suppresses line 7
    // (the L001 is the enforcement).
    assert_eq!(lint.p001_lines, vec![3]);
}

fn render(lint: &FileLint) -> String {
    lint.diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

// ---------------------------------------------------------------- repo gates

fn repo_root() -> std::path::PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root above abr-lint")
}

/// The acceptance gate: the workspace lints clean. Any new violation
/// fails this test (and `cargo run -p abr-lint -- --workspace` in CI).
#[test]
fn repo_lints_clean() {
    let report = lint_workspace(&repo_root());
    assert!(
        report.diags.is_empty(),
        "workspace has lint violations:\n{}",
        report.render()
    );
}

/// The ratchet: the committed baseline byte-matches reality, comments
/// included (`--write-baseline` on a clean tree is a no-op). A fixed
/// unwrap makes this fail until the file is regenerated (downward); a
/// new one fails `repo_lints_clean` instead.
#[test]
fn baseline_matches_reality() {
    let root = repo_root();
    let report = lint_workspace(&root);
    let committed =
        std::fs::read_to_string(root.join(abr_lint::BASELINE_PATH)).expect("baseline file present");
    assert_eq!(
        committed,
        report.render_baseline(),
        "baselines.txt is out of date; regenerate with \
         `cargo run -p abr-lint -- --write-baseline`"
    );
}

/// Fixtures must stay invisible to the workspace scan (they contain
/// deliberate violations).
#[test]
fn fixtures_are_not_scanned() {
    for (rel, _) in workspace_sources(&repo_root()) {
        assert!(
            !rel.contains("tests/fixtures"),
            "fixture leaked into workspace scan: {rel}"
        );
    }
}
