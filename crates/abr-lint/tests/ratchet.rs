//! Integration tests for the one baseline ratchet (P001), driven two
//! ways: a fixture mini-workspace under `tests/fixture_ws/` with known
//! calls at known lines (`workspace_sources` only scans `src/`
//! directories under a root's `crates/`, so the fixture never pollutes
//! a real workspace lint), and in-memory sources handed to
//! `lint_sources`.

use abr_lint::lexer::lex;
use abr_lint::{lint_sources, load_workspace, LintReport, SourceFile, BASELINE_PATH};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixture_ws")
}

/// `(file, line)` of every P001 diagnostic, in report order.
fn p001(report: &LintReport) -> Vec<(String, u32)> {
    report
        .diags
        .iter()
        .filter(|d| d.rule == "P001")
        .map(|d| (d.file.clone(), d.line))
        .collect()
}

#[test]
fn fixture_p001_rides_the_same_ratchet() {
    let files = load_workspace(&fixture_root());
    let debt = "crates/abr-fixt/src/debt.rs".to_string();
    let entry = |n: usize| format!("# fixture: justified\nP001 {debt} {n}\n");

    // No entry: every call is over budget, each at its own line.
    let report = lint_sources(&files, "");
    assert_eq!(p001(&report), vec![(debt.clone(), 5), (debt.clone(), 9)]);

    // One call too many: the excess site is reported, and the writer
    // refuses to bless it.
    let report = lint_sources(&files, &entry(1));
    assert_eq!(p001(&report), vec![(debt.clone(), 9)]);
    assert_eq!(
        report.baseline_regressions(),
        vec![format!("P001 {debt}: 2 > baseline 1")]
    );

    // At the count: silent, and nothing to refuse.
    let report = lint_sources(&files, &entry(2));
    assert_eq!(p001(&report), vec![]);
    assert!(report.baseline_regressions().is_empty());

    // Entry left higher than reality: stale, must ratchet down.
    let report = lint_sources(&files, &entry(3));
    assert_eq!(p001(&report), vec![(BASELINE_PATH.to_string(), 0)]);
    assert!(
        report.render().contains("is stale (actual 2)"),
        "{}",
        report.render()
    );

    // Entry naming a file with no finding left (fixed, or vanished).
    for file in ["crates/abr-fixt/src/lib.rs", "crates/abr-fixt/src/gone.rs"] {
        let text = format!("{}# fixture: justified\nP001 {file} 1\n", entry(2));
        let report = lint_sources(&files, &text);
        assert_eq!(p001(&report), vec![(BASELINE_PATH.to_string(), 0)]);
        assert!(
            report
                .render()
                .contains(&format!("`P001 {file} 1` is stale (actual 0)")),
            "{}",
            report.render()
        );
    }
}

#[test]
fn fixture_baseline_entry_without_comment_is_l001() {
    let files = load_workspace(&fixture_root());
    // A TODO placeholder (what --write-baseline emits) does not count.
    for text in [
        "P001 crates/abr-fixt/src/debt.rs 2\n",
        "# TODO: justify this baseline entry\nP001 crates/abr-fixt/src/debt.rs 2\n",
    ] {
        let report = lint_sources(&files, text);
        assert!(
            report
                .diags
                .iter()
                .any(|d| d.rule == "L001" && d.message.contains("no justifying comment")),
            "comment-less and TODO entries must be rejected:\n{}",
            report.render()
        );
    }
}

#[test]
fn comment_block_justifies_every_entry_under_it_and_survives_a_rewrite() {
    // Four in-memory files with one unwrap each.
    let files: Vec<SourceFile> = ["a", "b", "c", "d"]
        .iter()
        .map(|name| SourceFile {
            rel_path: format!("src/{name}.rs"),
            lexed: Some(lex("fn f(v: Option<u32>) -> u32 { v.unwrap() }\n")),
        })
        .collect();
    let baseline = "\
# header: detached from the entries by the blank line below

# fixture: one reason
# for both entries
P001 src/a.rs 1
P001 src/b.rs 1
# fixture: its own reason
P001 src/d.rs 1

P001 src/c.rs 1
";
    let report = lint_sources(&files, baseline);
    let unjustified: Vec<&str> = report
        .diags
        .iter()
        .filter(|d| d.message.contains("no justifying comment"))
        .map(|d| d.message.as_str())
        .collect();
    assert_eq!(
        unjustified,
        vec!["baseline entry `P001 src/c.rs` has no justifying comment"]
    );
    // The rewrite keeps each block once, over the entries that share it
    // (sorted by rule, then key), and gives the bare ones a TODO.
    let written = report.render_baseline();
    let body = written
        .split_once("\n\n")
        .expect("header, blank, entries")
        .1;
    assert_eq!(
        body,
        "\
# fixture: one reason
# for both entries
P001 src/a.rs 1
P001 src/b.rs 1

# TODO: justify this baseline entry
P001 src/c.rs 1

# fixture: its own reason
P001 src/d.rs 1
"
    );
}
