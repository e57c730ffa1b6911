//! `abr-lint`: the workspace determinism & panic-safety analyzer.
//!
//! A dependency-free Rust tokenizer ([`lexer`]) plus three token rules
//! ([`rules`]): no randomized-order containers anywhere in the
//! workspace (D001), a per-file count of `unwrap()`/`expect()` (P001),
//! and no narrowing `as` casts in geometry arithmetic (C001). L001
//! keeps the lint's own inputs well-formed. Every other invariant has
//! another owner: clippy's type-resolved `disallowed-methods`
//! (`clippy.toml`) bans wall-clock, environment, directory-order and
//! unseeded-randomness calls, and the metric registry is joined against
//! its consumers by a test in `abr-bench`.
//!
//! The findings that may stay (P001 debt per file) live in one
//! down-only ratchet, `crates/abr-lint/baselines.txt`. See `DESIGN.md`
//! §11 for the rule catalogue and annotation syntax.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use rules::lint_file;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Repo-relative path of the baseline: the one ratchet file, holding
/// `RULE KEY COUNT` entries (P001, key = file).
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
    /// findings (P001 per file) before baseline subtraction.
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
             # Format: RULE KEY COUNT, the key being the file (P001 is the one\n\
             # ratcheted rule). The comment block above a run of entries must say\n\
             # why they are allowed to stay; the lint flags entries without one.\n\
             # Regenerate (down only) with:\n\
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
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    #[allow(clippy::disallowed_methods)] // the entries are sorted below
    let Ok(rd) = fs::read_dir(dir) else {
        return;
    };
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

/// Enumerate `(rel_path, abs_path)` for every library source file in
/// the workspace: `crates/*/src/**/*.rs` plus the root package's `src/`.
pub fn workspace_sources(root: &Path) -> Vec<(String, PathBuf)> {
    #[allow(clippy::disallowed_methods)] // the entries are sorted below
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    crate_dirs.sort();
    crate_dirs.push(root.to_path_buf());
    let mut files = Vec::new();
    for dir in crate_dirs {
        rs_files(&dir.join("src"), &mut files);
    }
    let rel = |f: &PathBuf| {
        let rel = f.strip_prefix(root).unwrap_or(f);
        rel.to_string_lossy().replace('\\', "/")
    };
    files.into_iter().map(|f| (rel(&f), f)).collect()
}

/// One loaded and lexed workspace source file.
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub rel_path: String,
    /// Lexed source, or `None` when the file could not be read as
    /// UTF-8.
    pub lexed: Option<lexer::Lexed>,
}

/// Read and lex every workspace source, in enumeration order.
pub fn load_workspace(root: &Path) -> Vec<SourceFile> {
    let load = |(rel_path, abs): (String, PathBuf)| SourceFile {
        rel_path,
        lexed: fs::read_to_string(abs).ok().map(|text| lexer::lex(&text)),
    };
    workspace_sources(root).into_iter().map(load).collect()
}

/// Lint already-loaded sources against the rule catalogue and the
/// baseline text. Pure: reads no files, so tests can drive it with
/// synthetic workspaces.
pub fn lint_sources(files: &[SourceFile], baseline_text: &str) -> LintReport {
    let mut diags = Vec::new();
    // Every ratcheted finding, grouped by its baseline entry.
    let mut found: BTreeMap<(String, String), Vec<Diagnostic>> = BTreeMap::new();

    for f in files {
        let Some(lexed) = &f.lexed else {
            diags.push(Diagnostic::new(
                "L001",
                &f.rel_path,
                0,
                "file is not valid UTF-8 or could not be read".to_string(),
            ));
            continue;
        };
        let lint = lint_file(&f.rel_path, lexed);
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

    // The ratchet: findings past an entry's count are reported where
    // they are; an entry above reality (or naming a key with no finding
    // left) is stale and must be regenerated, so debt only moves down;
    // every frozen exception says why it stays.
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

/// Lint every workspace source file against the rule catalogue and the
/// committed baseline.
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
