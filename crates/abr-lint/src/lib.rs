//! `abr-lint`: the workspace determinism & panic-safety analyzer.
//!
//! Three halves live here:
//!
//! * a **static analyzer** ([`lint_workspace`]) — a dependency-free
//!   Rust tokenizer ([`lexer`]) plus a small rule catalogue ([`rules`])
//!   enforcing the repo's determinism contracts (no randomized-order
//!   containers on the result path, no wall-clock reads outside the
//!   allowlist, no unseeded randomness, narrow-cast bans in geometry
//!   arithmetic) and a ratcheted `unwrap()`/`expect()` budget;
//! * a **deep analyzer** — a workspace symbol table and call graph
//!   ([`graph`]) feeding an interprocedural determinism taint pass
//!   ([`taint`], rules D004/D005) and a metric/SLO schema cross-check
//!   ([`schema`], rules M001/M002), gated by a per-rule baseline
//!   ratchet (`crates/abr-lint/baselines.txt`);
//! * a **runtime sanitizer** ([`sanitize`]) — invariant checks the
//!   product crates call behind their `sanitize` cargo feature
//!   (block-table bijection, stripe/cylinder permutations, monotone
//!   counters).
//!
//! See `DESIGN.md` §11 for the rule catalogue and annotation syntax.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod rules;
pub mod sanitize;
pub mod schema;
pub mod taint;

use graph::FileFns;
use rules::{lint_file, FileCtx};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Repo-relative path of the P001 budget file.
pub const BUDGET_PATH: &str = "crates/abr-lint/p001_budget.txt";

/// Repo-relative path of the deep-rule (D004/D005/M001/M002) baseline.
pub const BASELINE_PATH: &str = "crates/abr-lint/baselines.txt";

/// One finding, ordered for deterministic output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`D001`, ..., `L001`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(rule: &str, file: &str, line: u32, message: String) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One parsed baseline entry: the frozen finding count plus the
/// justifying comment lines directly above it in the file.
#[derive(Debug, Clone, Default)]
pub struct BaselineEntry {
    /// Allowed finding count for this (rule, key).
    pub count: usize,
    /// `#`-comment lines attached to the entry (kept on rewrite).
    pub comments: Vec<String>,
}

/// The parsed deep-rule baseline file: `(rule, key) -> entry`.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Entries keyed by (rule id, baseline key).
    pub entries: BTreeMap<(String, String), BaselineEntry>,
}

/// Parse `baselines.txt`. Line format: `RULE KEY COUNT`, `#` comments
/// attach to the entry below them (a blank line detaches them — that is
/// how the file header stays a header). Malformed lines and unknown
/// rules become diagnostics rather than being ignored.
pub fn parse_baseline(text: &str, diags: &mut Vec<Diagnostic>) -> Baseline {
    let mut baseline = Baseline::default();
    let mut pending: Vec<String> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            pending.clear();
            continue;
        }
        if let Some(c) = line.strip_prefix('#') {
            pending.push(c.trim().to_string());
            continue;
        }
        let mut it = line.split_whitespace();
        let entry = (|| {
            let rule = it.next()?;
            let key = it.next()?;
            let n: usize = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            Some((rule.to_string(), key.to_string(), n))
        })();
        match entry {
            Some((rule, key, count)) => {
                if !rules::KNOWN_RULES.contains(&rule.as_str()) {
                    diags.push(Diagnostic::new(
                        "L001",
                        BASELINE_PATH,
                        (idx + 1) as u32,
                        format!("baseline names unknown rule `{rule}`"),
                    ));
                }
                baseline.entries.insert(
                    (rule, key),
                    BaselineEntry {
                        count,
                        comments: std::mem::take(&mut pending),
                    },
                );
            }
            None => diags.push(Diagnostic::new(
                "L001",
                BASELINE_PATH,
                (idx + 1) as u32,
                format!("malformed baseline line `{line}` (want `RULE KEY COUNT`)"),
            )),
        }
    }
    baseline
}

/// Outcome of a workspace lint.
pub struct LintReport {
    /// All findings, sorted by (file, line, rule, message).
    pub diags: Vec<Diagnostic>,
    /// Per-file unannotated `unwrap()`/`expect()` counts in non-test
    /// library code (the reality side of the P001 ratchet).
    pub p001_counts: BTreeMap<String, usize>,
    /// Reality side of the deep-rule ratchet: `(rule, key) -> count`
    /// of D004/D005/M001/M002 findings before baseline subtraction.
    pub deep_counts: BTreeMap<(String, String), usize>,
    /// The committed budget (allowed side), for regression refusal.
    pub old_budget: BTreeMap<String, usize>,
    /// The committed baseline (allowed side + comments), for
    /// regression refusal and comment-preserving rewrite.
    pub old_baseline: Baseline,
}

impl LintReport {
    /// Render the sorted findings, one per line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for d in &self.diags {
            s.push_str(&d.to_string());
            s.push('\n');
        }
        s
    }

    /// Render the reality-side budget file content (sorted, one
    /// `path count` pair per line) for `--write-budget`.
    pub fn render_budget(&self) -> String {
        let mut s = String::from(
            "# P001 unwrap()/expect() debt per file — ratchet DOWN only.\n\
             # Regenerate with: cargo run -p abr-lint -- --workspace --update-budget\n",
        );
        for (file, n) in &self.p001_counts {
            if *n > 0 {
                s.push_str(&format!("{file} {n}\n"));
            }
        }
        s
    }

    /// Render the reality-side baseline file for `--write-baseline`,
    /// preserving the justifying comments of surviving entries. Entries
    /// that never had one get a TODO placeholder (which the lint keeps
    /// flagging until a real justification replaces it).
    pub fn render_baseline(&self) -> String {
        let mut s = String::from(
            "# Deep-rule baselines (D004/D005/M001/M002) — ratchet DOWN only.\n\
             # Format: RULE KEY COUNT. The comment above each entry must say\n\
             # why it is allowed to stay; the lint flags entries without one.\n\
             # Regenerate (down only) with: experiments lint --write-baseline\n",
        );
        for ((rule, key), n) in &self.deep_counts {
            if *n == 0 {
                continue;
            }
            s.push('\n');
            let comments = self
                .old_baseline
                .entries
                .get(&(rule.clone(), key.clone()))
                .map(|e| e.comments.as_slice())
                .unwrap_or(&[]);
            if comments.is_empty() {
                s.push_str("# TODO: justify this baseline entry\n");
            } else {
                for c in comments {
                    s.push_str(&format!("# {c}\n"));
                }
            }
            s.push_str(&format!("{rule} {key} {n}\n"));
        }
        s
    }

    /// Files whose unwrap debt grew past the committed budget (the
    /// write-refusal check: ratchets only move down).
    pub fn budget_regressions(&self) -> Vec<String> {
        self.p001_counts
            .iter()
            .filter(|(file, n)| **n > self.old_budget.get(*file).copied().unwrap_or(0))
            .map(|(file, n)| {
                format!(
                    "{file}: {n} > budget {}",
                    self.old_budget.get(file).copied().unwrap_or(0)
                )
            })
            .collect()
    }

    /// Deep-rule entries whose finding count grew past the baseline.
    pub fn baseline_regressions(&self) -> Vec<String> {
        self.deep_counts
            .iter()
            .filter(|((rule, key), n)| {
                **n > self
                    .old_baseline
                    .entries
                    .get(&((*rule).clone(), (*key).clone()))
                    .map(|e| e.count)
                    .unwrap_or(0)
            })
            .map(|((rule, key), n)| {
                let allowed = self
                    .old_baseline
                    .entries
                    .get(&(rule.clone(), key.clone()))
                    .map(|e| e.count)
                    .unwrap_or(0);
                format!("{rule} {key}: {n} > baseline {allowed}")
            })
            .collect()
    }

    /// Machine-readable report: a deterministic JSON document (sorted
    /// diagnostics, sorted count maps) rendered with a hand-rolled
    /// emitter so `abr-lint` stays dependency-free. Byte-identical for
    /// identical findings regardless of `--jobs`.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"violations\": {},\n", self.diags.len()));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diags.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(&d.rule),
                json_str(&d.message)
            ));
        }
        s.push_str(if self.diags.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"p001\": {");
        let live: Vec<_> = self.p001_counts.iter().filter(|(_, n)| **n > 0).collect();
        for (i, (file, n)) in live.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    {}: {n}", json_str(file)));
        }
        s.push_str(if live.is_empty() { "},\n" } else { "\n  },\n" });
        s.push_str("  \"deep\": {");
        let deep: Vec<_> = self.deep_counts.iter().filter(|(_, n)| **n > 0).collect();
        for (i, ((rule, key), n)) in deep.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    {}: {n}", json_str(&format!("{rule} {key}"))));
        }
        s.push_str(if deep.is_empty() { "}\n" } else { "\n  }\n" });
        s.push_str("}\n");
        s
    }
}

/// JSON string literal with the mandatory escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse the budget file into `path -> allowed count`. Unknown or
/// malformed lines become diagnostics rather than being ignored.
pub fn parse_budget(text: &str, diags: &mut Vec<Diagnostic>) -> BTreeMap<String, usize> {
    let mut budget = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let entry = (|| {
            let path = it.next()?;
            let n: usize = it.next()?.parse().ok()?;
            if it.next().is_some() {
                return None;
            }
            Some((path.to_string(), n))
        })();
        match entry {
            Some((path, n)) => {
                budget.insert(path, n);
            }
            None => diags.push(Diagnostic::new(
                "P001",
                BUDGET_PATH,
                (idx + 1) as u32,
                format!("malformed budget line `{line}`"),
            )),
        }
    }
    budget
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(p);
        }
    }
}

/// Enumerate `(crate_name, rel_path, abs_path)` for every library
/// source file in the workspace: `crates/*/src/**/*.rs` plus the root
/// package's `src/`.
pub fn workspace_sources(root: &Path) -> Vec<(String, String, PathBuf)> {
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    // The root package `abr` participates too (its crate name is not on
    // the D001 result-path list, but D002/D003/P001 still apply).
    crate_dirs.push(root.to_path_buf());
    for dir in crate_dirs {
        let crate_name = if dir == *root {
            "abr".to_string()
        } else {
            dir.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default()
        };
        let mut files = Vec::new();
        rs_files(&dir.join("src"), &mut files);
        for f in files {
            let rel = f
                .strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((crate_name.clone(), rel, f));
        }
    }
    out
}

/// One loaded and lexed workspace source file.
pub struct SourceFile {
    /// Crate the file belongs to (directory name under `crates/`).
    pub crate_name: String,
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// Lexed source (empty on read error).
    pub lexed: lexer::Lexed,
    /// The file could not be read as UTF-8.
    pub read_error: bool,
}

fn load_one(src: &(String, String, PathBuf)) -> SourceFile {
    let (crate_name, rel_path, abs) = src;
    match fs::read_to_string(abs) {
        Ok(text) => SourceFile {
            crate_name: crate_name.clone(),
            rel_path: rel_path.clone(),
            lexed: lexer::lex(&text),
            read_error: false,
        },
        Err(_) => SourceFile {
            crate_name: crate_name.clone(),
            rel_path: rel_path.clone(),
            lexed: lexer::Lexed::default(),
            read_error: true,
        },
    }
}

/// Read and lex every workspace source, on `jobs` threads. Results are
/// merged back in enumeration order, so the outcome (and everything
/// derived from it, including `--json` bytes) is identical for any
/// `jobs` value.
pub fn load_workspace(root: &Path, jobs: usize) -> Vec<SourceFile> {
    let sources = workspace_sources(root);
    let jobs = jobs.max(1).min(sources.len().max(1));
    if jobs == 1 {
        return sources.iter().map(load_one).collect();
    }
    let chunk = sources.len().div_ceil(jobs);
    let mut out: Vec<SourceFile> = Vec::with_capacity(sources.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .chunks(chunk)
            .map(|c| s.spawn(move || c.iter().map(load_one).collect::<Vec<_>>()))
            .collect();
        for h in handles {
            // abr-lint: allow(P001, a panicked lexer worker leaves no sane report to emit)
            out.extend(h.join().expect("lint worker panicked"));
        }
    });
    out
}

/// Lint already-loaded sources against the full rule catalogue, the
/// P001 budget text, and the deep-rule baseline text. Pure: reads no
/// files, so tests can drive it with synthetic workspaces.
pub fn lint_sources(files: &[SourceFile], budget_text: &str, baseline_text: &str) -> LintReport {
    let mut diags = Vec::new();
    let mut p001_counts = BTreeMap::new();
    let mut p001_lines: BTreeMap<String, Vec<u32>> = BTreeMap::new();

    for f in files {
        if f.read_error {
            diags.push(Diagnostic::new(
                "L001",
                &f.rel_path,
                0,
                "file is not valid UTF-8 or could not be read".to_string(),
            ));
            continue;
        }
        let lint = lint_file(&FileCtx {
            crate_name: &f.crate_name,
            rel_path: &f.rel_path,
            lexed: &f.lexed,
        });
        diags.extend(lint.diags);
        if !lint.p001_lines.is_empty() {
            p001_counts.insert(f.rel_path.clone(), lint.p001_lines.len());
            p001_lines.insert(f.rel_path.clone(), lint.p001_lines);
        }
    }

    // P001 budget arithmetic: over budget -> diagnostics at the excess
    // call sites; under budget -> stale-budget diagnostic so debt only
    // ratchets down (the file must be regenerated to the lower count).
    let old_budget = parse_budget(budget_text, &mut diags);
    for (file, lines) in &p001_lines {
        let allowed = old_budget.get(file).copied().unwrap_or(0);
        if lines.len() > allowed {
            for line in &lines[allowed..] {
                diags.push(Diagnostic::new(
                    "P001",
                    file,
                    *line,
                    format!(
                        "unwrap()/expect() count {} exceeds budget {allowed}; handle the error or annotate allow(P001, reason)",
                        lines.len()
                    ),
                ));
            }
        } else if lines.len() < allowed {
            diags.push(Diagnostic::new(
                "P001",
                file,
                0,
                format!(
                    "budget {allowed} is stale (actual {}); ratchet down via --update-budget",
                    lines.len()
                ),
            ));
        }
    }
    for (file, allowed) in &old_budget {
        if *allowed > 0 && !p001_lines.contains_key(file) {
            diags.push(Diagnostic::new(
                "P001",
                file,
                0,
                format!("budget {allowed} is stale (actual 0); ratchet down via --update-budget"),
            ));
        }
    }

    // Deep pass: call graph -> taint, plus the metric schema check.
    let scans: Vec<FileFns> = files
        .iter()
        .enumerate()
        .map(|(i, f)| graph::scan_file(i, &f.lexed))
        .collect();
    let pairs: Vec<(&lexer::Lexed, &FileFns)> =
        files.iter().map(|f| &f.lexed).zip(scans.iter()).collect();
    let call_graph = graph::build_graph(&pairs);

    // An entry point that names no function silently shrinks the taint
    // analysis (a rename leaves it guarding nothing): make that loud.
    for (ty, name) in taint::ENTRY_POINTS {
        if call_graph.find(*ty, name).is_empty() {
            let qualified = ty.map_or(name.to_string(), |t| format!("{t}::{name}"));
            diags.push(Diagnostic::new(
                "L001",
                "crates/abr-lint/src/taint.rs",
                0,
                format!("taint entry point `{qualified}` resolves to no function"),
            ));
        }
    }

    let taint_input: Vec<(String, &lexer::Lexed)> = files
        .iter()
        .map(|f| (f.rel_path.clone(), &f.lexed))
        .collect();
    let schema_input: Vec<(String, String, &lexer::Lexed)> = files
        .iter()
        .map(|f| (f.crate_name.clone(), f.rel_path.clone(), &f.lexed))
        .collect();

    let mut deep: BTreeMap<(String, String), Vec<Diagnostic>> = BTreeMap::new();
    for f in taint::analyze(&taint_input, &scans, &call_graph) {
        deep.entry((f.rule.to_string(), f.key()))
            .or_default()
            .push(f.diagnostic());
    }
    for f in schema::analyze(&schema_input) {
        deep.entry((f.rule.to_string(), f.key()))
            .or_default()
            .push(f.diagnostic());
    }

    // Baseline arithmetic: same ratchet shape as P001, but per
    // (rule, key) so each frozen exception is individually visible.
    let old_baseline = parse_baseline(baseline_text, &mut diags);
    let mut deep_counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for ((rule, key), found) in &deep {
        deep_counts.insert((rule.clone(), key.clone()), found.len());
        let entry = old_baseline.entries.get(&(rule.clone(), key.clone()));
        let allowed = entry.map(|e| e.count).unwrap_or(0);
        if found.len() > allowed {
            diags.extend(found[allowed..].iter().cloned());
        } else if found.len() < allowed {
            diags.push(Diagnostic::new(
                rule,
                BASELINE_PATH,
                0,
                format!(
                    "baseline `{rule} {key} {allowed}` is stale (actual {}); ratchet down via --write-baseline",
                    found.len()
                ),
            ));
        }
    }
    for ((rule, key), entry) in &old_baseline.entries {
        if entry.count > 0 && !deep.contains_key(&(rule.clone(), key.clone())) {
            diags.push(Diagnostic::new(
                rule,
                BASELINE_PATH,
                0,
                format!(
                    "baseline `{rule} {key} {}` is stale (actual 0); ratchet down via --write-baseline",
                    entry.count
                ),
            ));
        }
        // Frozen exceptions must each say why they stay.
        let justified = entry
            .comments
            .iter()
            .any(|c| !c.is_empty() && !c.contains("TODO"));
        if entry.count > 0 && !justified {
            diags.push(Diagnostic::new(
                "L001",
                BASELINE_PATH,
                0,
                format!("baseline entry `{rule} {key}` has no justifying comment"),
            ));
        }
    }

    diags.sort();
    diags.dedup();
    LintReport {
        diags,
        p001_counts,
        deep_counts,
        old_budget,
        old_baseline,
    }
}

/// Lint every workspace source file against the full rule catalogue,
/// the P001 budget, and the deep-rule baseline (single-threaded load).
pub fn lint_workspace(root: &Path) -> LintReport {
    lint_workspace_jobs(root, 1)
}

/// [`lint_workspace`] with `jobs` loader/lexer threads. The report —
/// including `--json` bytes — is identical for any `jobs` value.
pub fn lint_workspace_jobs(root: &Path, jobs: usize) -> LintReport {
    let files = load_workspace(root, jobs);
    let budget_text = fs::read_to_string(root.join(BUDGET_PATH)).unwrap_or_default();
    let baseline_text = fs::read_to_string(root.join(BASELINE_PATH)).unwrap_or_default();
    lint_sources(&files, &budget_text, &baseline_text)
}

/// Options for [`run_lint`]: one struct so the two CLIs (`abr-lint`,
/// `experiments lint`) stay in lockstep.
#[derive(Debug, Clone, Copy, Default)]
pub struct LintOptions {
    /// Loader/lexer threads (0 or 1 = serial).
    pub jobs: usize,
    /// Rewrite the P001 budget to reality (refused on regressions).
    pub write_budget: bool,
    /// Rewrite the deep baseline to reality (refused on regressions).
    pub write_baseline: bool,
}

/// Lint the workspace and apply any requested ratchet writes. A write
/// is refused (Err) when findings *increased* — ratchets only move
/// down; new debt needs a fix, an annotation, or a hand-written
/// baseline entry with a justification. After a write the workspace is
/// re-linted so the returned report reflects the refreshed files.
pub fn run_lint(root: &Path, opts: &LintOptions) -> Result<LintReport, String> {
    let report = lint_workspace_jobs(root, opts.jobs);
    let mut rewritten = false;
    if opts.write_budget {
        let regressions = report.budget_regressions();
        if !regressions.is_empty() {
            return Err(format!(
                "refusing to write {BUDGET_PATH}: unwrap debt increased\n  {}",
                regressions.join("\n  ")
            ));
        }
        let path = root.join(BUDGET_PATH);
        fs::write(&path, report.render_budget())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        rewritten = true;
    }
    if opts.write_baseline {
        let regressions = report.baseline_regressions();
        if !regressions.is_empty() {
            return Err(format!(
                "refusing to write {BASELINE_PATH}: deep findings increased\n  {}",
                regressions.join("\n  ")
            ));
        }
        let path = root.join(BASELINE_PATH);
        fs::write(&path, report.render_baseline())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        rewritten = true;
    }
    if rewritten {
        return Ok(lint_workspace_jobs(root, opts.jobs));
    }
    Ok(report)
}

/// Find the workspace root by walking up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
