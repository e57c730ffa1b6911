//! `abr-lint`: the workspace determinism & panic-safety analyzer.
//!
//! Three halves live here:
//!
//! * a **static analyzer** ([`lint_workspace`]) — a dependency-free
//!   Rust tokenizer ([`lexer`]) plus a small rule catalogue ([`rules`])
//!   enforcing the repo's determinism contracts (no randomized-order
//!   containers on the result path, no wall-clock reads outside the
//!   allowlist, no unseeded randomness, narrow-cast bans in geometry
//!   arithmetic) and a per-file count of `unwrap()`/`expect()` (P001);
//! * a **deep analyzer** — a workspace symbol table and call graph
//!   ([`graph`]) feeding an interprocedural determinism taint pass
//!   ([`taint`], rules D004/D005) and a metric/SLO schema cross-check
//!   ([`schema`], rules M001/M002);
//! * a **runtime sanitizer** ([`sanitize`]) — invariant checks the
//!   product crates call behind their `sanitize` cargo feature
//!   (block-table bijection, stripe/cylinder permutations, monotone
//!   counters).
//!
//! The findings that may stay (P001 debt per file, frozen D004/D005/
//! M001/M002 exceptions) live in one down-only ratchet,
//! `crates/abr-lint/baselines.txt`. See `DESIGN.md` §11 for the rule
//! catalogue and annotation syntax.

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

/// Repo-relative path of the baseline: the one ratchet file, holding
/// `RULE KEY COUNT` entries for P001 (key = file) and for
/// D004/D005/M001/M002 (key = the finding's edit-stable key).
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
/// justifying comment block it sits under in the file.
#[derive(Debug, Clone, Default)]
pub struct BaselineEntry {
    /// Allowed finding count for this (rule, key).
    pub count: usize,
    /// `#`-comment lines of the entry's block (kept on rewrite).
    pub comments: Vec<String>,
}

/// The parsed baseline file: `(rule, key) -> entry`.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Entries keyed by (rule id, baseline key).
    pub entries: BTreeMap<(String, String), BaselineEntry>,
}

impl Baseline {
    /// Findings `entry` (a `(rule, key)` pair) may have: its count, or
    /// none when it has no entry.
    fn allowed(&self, entry: &(String, String)) -> usize {
        self.entries.get(entry).map_or(0, |e| e.count)
    }
}

/// Parse `baselines.txt`. Line format: `RULE KEY COUNT`. A block of `#`
/// comments justifies every entry below it up to the next blank line
/// (which is also how the file header stays a header); a comment after
/// an entry starts a new block. Malformed lines and unknown rules
/// become diagnostics rather than being ignored.
pub fn parse_baseline(text: &str, diags: &mut Vec<Diagnostic>) -> Baseline {
    let mut baseline = Baseline::default();
    let mut block: Vec<String> = Vec::new();
    let mut block_has_entry = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let comment = line.strip_prefix('#');
        if line.is_empty() || (comment.is_some() && block_has_entry) {
            block.clear();
            block_has_entry = false;
        }
        if let Some(c) = comment {
            block.push(c.trim().to_string());
        }
        if line.is_empty() || comment.is_some() {
            continue;
        }
        block_has_entry = true;
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
        let Some((rule, key, count)) = entry else {
            diags.push(Diagnostic::new(
                "L001",
                BASELINE_PATH,
                (idx + 1) as u32,
                format!("malformed baseline line `{line}` (want `RULE KEY COUNT`)"),
            ));
            continue;
        };
        if !rules::KNOWN_RULES.contains(&rule.as_str()) {
            diags.push(Diagnostic::new(
                "L001",
                BASELINE_PATH,
                (idx + 1) as u32,
                format!("baseline names unknown rule `{rule}`"),
            ));
        }
        let comments = block.clone();
        baseline
            .entries
            .insert((rule, key), BaselineEntry { count, comments });
    }
    baseline
}

/// Outcome of a workspace lint.
pub struct LintReport {
    /// All findings, sorted by (file, line, rule, message).
    pub diags: Vec<Diagnostic>,
    /// Reality side of the ratchet: `(rule, key) -> count` of ratcheted
    /// findings (P001 per file, D004/D005/M001/M002 per key) before
    /// baseline subtraction.
    pub counts: BTreeMap<(String, String), usize>,
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

    /// Render the reality-side baseline file for `--write-baseline`,
    /// preserving the justifying comments of surviving entries (one
    /// block per run of entries that share a justification). Entries
    /// that never had one get a TODO placeholder (which the lint keeps
    /// flagging until a real justification replaces it).
    pub fn render_baseline(&self) -> String {
        let mut s = String::from(
            "# abr-lint baselines: the findings that may stay. Ratchet DOWN only.\n\
             # Format: RULE KEY COUNT, the key being the file for P001, file:fn:sink\n\
             # for D004/D005 and the metric name for M001/M002. The comment block\n\
             # above a run of entries must say why they are allowed to stay; the\n\
             # lint flags entries without one. Regenerate (down only) with:\n\
             #   cargo run -p abr-lint -- --write-baseline\n",
        );
        let todo = ["TODO: justify this baseline entry".to_string()];
        let mut previous: Option<&[String]> = None;
        for (entry, n) in self.counts.iter().filter(|(_, n)| **n > 0) {
            let comments = match self.old_baseline.entries.get(entry) {
                Some(e) if !e.comments.is_empty() => e.comments.as_slice(),
                _ => todo.as_slice(),
            };
            if previous != Some(comments) {
                s.push('\n');
                for c in comments {
                    s.push_str(&format!("# {c}\n"));
                }
                previous = Some(comments);
            }
            s.push_str(&format!("{} {} {n}\n", entry.0, entry.1));
        }
        s
    }

    /// Entries whose finding count grew past the baseline (the
    /// write-refusal check: the ratchet only moves down).
    pub fn baseline_regressions(&self) -> Vec<String> {
        let risen = self.counts.iter().filter_map(|(entry, n)| {
            let allowed = self.old_baseline.allowed(entry);
            (*n > allowed).then(|| format!("{} {}: {n} > baseline {allowed}", entry.0, entry.1))
        });
        risen.collect()
    }

    /// Machine-readable report: a deterministic JSON document (sorted
    /// diagnostics, one sorted `counts` map keyed `"RULE KEY"`)
    /// rendered with a hand-rolled emitter so `abr-lint` stays
    /// dependency-free.
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
        s.push_str("  \"counts\": {");
        let live: Vec<_> = self.counts.iter().filter(|(_, n)| **n > 0).collect();
        for (i, ((rule, key), n)) in live.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    {}: {n}", json_str(&format!("{rule} {key}"))));
        }
        s.push_str(if live.is_empty() { "}\n" } else { "\n  }\n" });
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

/// Read and lex every workspace source, in enumeration order.
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    workspace_sources(root).iter().map(load_one).collect()
}

/// Lint already-loaded sources against the full rule catalogue and the
/// baseline text. Pure: reads no files, so tests can drive it with
/// synthetic workspaces.
pub fn lint_sources(files: &[SourceFile], baseline_text: &str) -> LintReport {
    let mut diags = Vec::new();
    // Every ratcheted finding, grouped by its baseline entry.
    let mut found: BTreeMap<(String, String), Vec<Diagnostic>> = BTreeMap::new();

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
        for line in lint.p001_lines {
            found
                .entry(("P001".to_string(), f.rel_path.clone()))
                .or_default()
                .push(Diagnostic::new(
                    "P001",
                    &f.rel_path,
                    line,
                    "unwrap()/expect() beyond the file's baseline; handle the error or annotate allow(P001, reason)".to_string(),
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
        if call_graph.find(Some(ty), name).is_empty() {
            diags.push(Diagnostic::new(
                "L001",
                "crates/abr-lint/src/taint.rs",
                0,
                format!("taint entry point `{ty}::{name}` resolves to no function"),
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
    for f in taint::analyze(&taint_input, &scans, &call_graph) {
        found
            .entry((f.rule.to_string(), f.key()))
            .or_default()
            .push(f.diagnostic());
    }
    for f in schema::analyze(&schema_input) {
        found
            .entry((f.rule.to_string(), f.key()))
            .or_default()
            .push(f.diagnostic());
    }

    // The ratchet, once for every rule: findings past an entry's count
    // are reported where they are; an entry above reality (or naming a
    // key with no finding left) is stale and must be regenerated, so
    // debt only moves down; every frozen exception says why it stays.
    let old_baseline = parse_baseline(baseline_text, &mut diags);
    for (entry, findings) in &found {
        diags.extend(findings.iter().skip(old_baseline.allowed(entry)).cloned());
    }
    for (id @ (rule, key), entry) in &old_baseline.entries {
        let actual = found.get(id).map_or(0, Vec::len);
        if actual < entry.count {
            diags.push(Diagnostic::new(
                rule,
                BASELINE_PATH,
                0,
                format!(
                    "baseline `{rule} {key} {}` is stale (actual {actual}); ratchet down via --write-baseline",
                    entry.count
                ),
            ));
        }
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
        counts: found.into_iter().map(|(k, v)| (k, v.len())).collect(),
        old_baseline,
    }
}

/// Lint every workspace source file against the full rule catalogue
/// and the committed baseline.
pub fn lint_workspace(root: &Path) -> LintReport {
    let baseline_text = fs::read_to_string(root.join(BASELINE_PATH)).unwrap_or_default();
    lint_sources(&load_workspace(root), &baseline_text)
}

/// Lint the workspace and, with `write_baseline`, rewrite the baseline
/// to reality. The write is refused (Err) when findings *increased* —
/// the ratchet only moves down; new debt needs a fix, an annotation, or
/// a hand-written baseline entry with a justification. After a write
/// the workspace is re-linted so the returned report reflects the
/// refreshed file.
pub fn run_lint(root: &Path, write_baseline: bool) -> Result<LintReport, String> {
    let report = lint_workspace(root);
    if !write_baseline {
        return Ok(report);
    }
    let regressions = report.baseline_regressions();
    if !regressions.is_empty() {
        return Err(format!(
            "refusing to write {BASELINE_PATH}: findings increased\n  {}",
            regressions.join("\n  ")
        ));
    }
    let path = root.join(BASELINE_PATH);
    fs::write(&path, report.render_baseline())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(lint_workspace(root))
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
