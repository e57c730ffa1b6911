//! Integration tests for the deep pass (D004/D005 taint, M001/M002
//! schema) and the one baseline ratchet (those four rules plus P001),
//! driven two ways:
//!
//! * a fixture mini-workspace under `tests/fixture_ws/` with known
//!   chains at known lines — `workspace_sources` only scans `src/`
//!   directories under a root's `crates/`, so the fixture never
//!   pollutes a real workspace lint;
//! * the real workspace, which must produce byte-identical `--json`
//!   output across repeated runs.

use abr_lint::{find_root, lint_sources, lint_workspace, load_workspace};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixture_ws")
}

fn repo_root() -> PathBuf {
    find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("repo root above abr-lint")
}

/// `(rule, file, line)` for every diagnostic of the deep rules, in
/// report order. Per-file rules (the fixture's raw `Instant::now`
/// lines also trip D002) are exercised by tests/self_check.rs.
fn deep_keys(diags: &[abr_lint::Diagnostic]) -> Vec<(String, String, u32)> {
    diags
        .iter()
        .filter(|d| matches!(d.rule.as_str(), "D004" | "D005" | "M001" | "M002"))
        .map(|d| (d.rule.clone(), d.file.clone(), d.line))
        .collect()
}

#[test]
fn fixture_finds_two_hop_taint_and_schema_mismatches() {
    let report = lint_workspace(&fixture_root());
    assert_eq!(
        deep_keys(&report.diags),
        vec![
            (
                "M002".to_string(),
                "crates/abr-bench/src/lib.rs".to_string(),
                5
            ),
            (
                "D004".to_string(),
                "crates/abr-fixt/src/lib.rs".to_string(),
                20
            ),
            (
                "D005".to_string(),
                "crates/abr-fixt/src/lib.rs".to_string(),
                28
            ),
            (
                "M001".to_string(),
                "crates/abr-obs/src/lib.rs".to_string(),
                12
            ),
        ],
        "expected exactly the 2-hop D004 chain, the D005 seed, one dead\n\
         and one phantom metric — full report:\n{}",
        report.render()
    );
}

#[test]
fn fixture_chain_walks_through_the_intermediate_fn() {
    let report = lint_workspace(&fixture_root());
    let d004 = report
        .diags
        .iter()
        .find(|d| d.rule == "D004")
        .expect("D004 finding");
    assert!(
        d004.message
            .contains("RunSpec::dispatch -> helper_a -> helper_b"),
        "chain must name every hop: {}",
        d004.message
    );
}

#[test]
fn fixture_call_site_allow_cuts_the_chain() {
    // cut_chain() holds an identical Instant::now sink, but the only
    // edge into it carries allow(D004); dead_fn is not called at all.
    // Neither may surface as D004 (their raw D002 seed still fires,
    // proving the file was scanned).
    let report = lint_workspace(&fixture_root());
    for d in &report.diags {
        if d.rule == "D004" {
            assert!(
                d.line != 24 && d.line != 32,
                "cut/unreachable chain leaked: {}",
                d.message
            );
        }
    }
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "D002" && d.line == 24),
        "the per-file pass must still see cut_chain's sink"
    );
}

#[test]
fn fixture_baseline_freezes_each_finding_individually() {
    let files = load_workspace(&fixture_root());
    let baseline = "\
# fixture: frozen two-hop chain, fixed in the next milestone
D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 1
# fixture: keyed lookup only, never iterated
D005 crates/abr-fixt/src/lib.rs:seeded:HashMap 1
# fixture: report wiring lands with the next schema rev
M001 fixt.dead.ops 1
# fixture: producer registration lands with the next schema rev
M002 fixt.phantom.ops 1
";
    let report = lint_sources(&files, baseline);
    assert!(
        deep_keys(&report.diags).is_empty(),
        "a justified baseline must silence every deep finding:\n{}",
        report.render()
    );
}

#[test]
fn fixture_baseline_over_and_under_counts_are_both_errors() {
    let files = load_workspace(&fixture_root());

    // Count above reality: stale, must ratchet down.
    let stale = "\
# fixture: justified
D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 2
";
    let report = lint_sources(&files, stale);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "D004" && d.message.contains("is stale")),
        "over-count must flag a stale baseline:\n{}",
        report.render()
    );

    // Entry for a finding that no longer exists at all: also stale.
    let gone = "\
# fixture: justified
D004 crates/abr-fixt/src/lib.rs:no_such_fn:Instant::now 1
";
    let report = lint_sources(&files, gone);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "D004" && d.message.contains("actual 0")),
        "entry without a live finding must flag stale:\n{}",
        report.render()
    );
}

#[test]
fn fixture_baseline_entry_without_comment_is_l001() {
    let files = load_workspace(&fixture_root());
    let unjustified = "D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 1\n";
    let report = lint_sources(&files, unjustified);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "L001" && d.message.contains("no justifying comment")),
        "comment-less entries must be rejected:\n{}",
        report.render()
    );

    // A TODO placeholder (what --write-baseline emits) does not count.
    let todo = "\
# TODO: justify this baseline entry
D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 1
";
    let report = lint_sources(&files, todo);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "L001" && d.message.contains("no justifying comment")),
        "TODO placeholders do not justify an entry:\n{}",
        report.render()
    );
}

/// `(file, line)` of every P001 diagnostic, in report order.
fn p001(report: &abr_lint::LintReport) -> Vec<(String, u32)> {
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
    let refused = |report: &abr_lint::LintReport| -> Vec<String> {
        let all = report.baseline_regressions().into_iter();
        all.filter(|r| r.starts_with("P001")).collect()
    };

    // No entry: every call is over budget, each at its own line.
    let report = lint_sources(&files, "");
    assert_eq!(p001(&report), vec![(debt.clone(), 5), (debt.clone(), 9)]);

    // One call too many: the excess site is reported, and the writer
    // refuses to bless it.
    let report = lint_sources(&files, &entry(1));
    assert_eq!(p001(&report), vec![(debt.clone(), 9)]);
    assert_eq!(
        refused(&report),
        vec![format!("P001 {debt}: 2 > baseline 1")]
    );

    // At the count: silent, and nothing to refuse.
    let report = lint_sources(&files, &entry(2));
    assert_eq!(p001(&report), vec![]);
    assert!(refused(&report).is_empty());

    // Entry left higher than reality: stale, must ratchet down.
    let report = lint_sources(&files, &entry(3));
    assert_eq!(
        p001(&report),
        vec![(abr_lint::BASELINE_PATH.to_string(), 0)]
    );
    assert!(
        report.render().contains("is stale (actual 2)"),
        "{}",
        report.render()
    );

    // Entry naming a file with no finding left (fixed, or vanished).
    for file in ["crates/abr-fixt/src/lib.rs", "crates/abr-fixt/src/gone.rs"] {
        let text = format!("{}# fixture: justified\nP001 {file} 1\n", entry(2));
        let report = lint_sources(&files, &text);
        assert_eq!(
            p001(&report),
            vec![(abr_lint::BASELINE_PATH.to_string(), 0)]
        );
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
fn fixture_comment_block_justifies_every_entry_under_it_and_survives_a_rewrite() {
    let files = load_workspace(&fixture_root());
    let baseline = "\
# header: detached from the entries by the blank line below

# fixture: one reason
# for both entries
D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 1
D005 crates/abr-fixt/src/lib.rs:seeded:HashMap 1
# fixture: its own reason
P001 crates/abr-fixt/src/debt.rs 2

M001 fixt.dead.ops 1
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
        vec!["baseline entry `M001 fixt.dead.ops` has no justifying comment"]
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
D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now 1
D005 crates/abr-fixt/src/lib.rs:seeded:HashMap 1

# TODO: justify this baseline entry
M001 fixt.dead.ops 1
M002 fixt.phantom.ops 1

# fixture: its own reason
P001 crates/abr-fixt/src/debt.rs 2
"
    );
}

#[test]
fn fixture_json_reports_one_counts_map_and_diagnostics() {
    let report = lint_workspace(&fixture_root());
    let json = report.render_json();
    let counts = json.split_once("\"counts\": {").expect("counts map").1;
    let keys: Vec<&str> = counts
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once('"'))
        .map(|(key, _)| key)
        .collect();
    assert_eq!(
        keys,
        vec![
            "D004 crates/abr-fixt/src/lib.rs:helper_b:Instant::now",
            "D005 crates/abr-fixt/src/lib.rs:seeded:HashMap",
            "M001 fixt.dead.ops",
            "M002 fixt.phantom.ops",
            "P001 crates/abr-fixt/src/debt.rs",
        ]
    );
    assert!(counts.contains("\"P001 crates/abr-fixt/src/debt.rs\": 2"));
    assert!(json.contains("\"rule\": \"D004\""));
    assert!(!json.contains("\"p001\"") && !json.contains("\"deep\""));
}

#[test]
fn real_workspace_json_is_byte_identical_across_runs() {
    let root = repo_root();
    let first = lint_workspace(&root).render_json();
    let again = lint_workspace(&root).render_json();
    assert_eq!(first, again, "repeat runs must agree byte-for-byte");
}
