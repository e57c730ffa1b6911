//! Metric & SLO schema cross-checker (rules M001/M002).
//!
//! The metrics registry is stringly-typed: producers register
//! `r.counter("driver.submitted")` in one crate, consumers read
//! `snap["counters"]["driver.submitted"]` (or name a metric in an SLO
//! spec or a report column) in another. Nothing
//! in the type system connects the two, so a typo'd or orphaned name
//! silently yields zeros. This pass closes the loop:
//!
//! * **Registrations** — every string literal passed to a
//!   `counter`/`gauge`/`hires` call in a *producer* crate
//!   (everything except `abr-bench`, which only reads snapshots, and
//!   `abr-lint` itself).
//! * **Consumptions** — every metric-shaped string literal in
//!   `abr-bench` live code (snapshot lookups, report columns), plus
//!   every metric named inside a `pNN(...)` SLO expression anywhere.
//!
//! **M001 (dead)**: registered, never consumed — nothing would notice
//! if the instrumented code stopped counting. **M002 (phantom)**:
//! consumed, never registered — the consumer reads eternal zeros.
//!
//! The `wall.*` namespace is exempt: those names are formatted at
//! runtime by the profiling timer and harvested wholesale, so neither
//! side has a literal to match. A string whose last dot-segment looks
//! like a file extension (`counts.json`) is not a metric name.

use crate::lexer::{Lexed, TokKind};
use crate::Diagnostic;
use std::collections::BTreeMap;

/// Registry calls whose first string argument registers a metric name.
const REGISTER_FNS: &[&str] = &["counter", "gauge", "hires"];

/// Crates that only *read* metric snapshots; their string literals are
/// consumption sites. (`abr-lint` is excluded from the scan entirely —
/// this file would otherwise register its own doc examples.)
const CONSUMER_CRATES: &[&str] = &["abr-bench"];

/// Dot-suffixes that mark a path/file name, not a metric.
const FILE_EXTS: &[&str] = &[
    "csv", "folded", "json", "jsonl", "lock", "log", "md", "rs", "toml", "txt", "yaml", "yml",
];

/// One schema finding.
#[derive(Debug, Clone)]
pub struct SchemaFinding {
    /// `M001` (dead) or `M002` (phantom).
    pub rule: &'static str,
    /// File of the first registration (M001) / consumption (M002).
    pub file: String,
    /// 1-based line of that site.
    pub line: u32,
    /// The metric name.
    pub name: String,
}

impl SchemaFinding {
    /// Stable baseline key: the metric name.
    pub fn key(&self) -> String {
        self.name.clone()
    }

    /// Render as a [`Diagnostic`].
    pub fn diagnostic(&self) -> Diagnostic {
        let msg = match self.rule {
            "M001" => format!(
                "metric `{}` is registered but never read by any report/SLO/compare consumer; wire it into a consumer or delete it",
                self.name
            ),
            _ => format!(
                "metric `{}` is consumed but never registered by any producer; the reader sees eternal zeros",
                self.name
            ),
        };
        Diagnostic::new(self.rule, &self.file, self.line, msg)
    }
}

/// Whether `s` has the shape of a registry metric name:
/// `seg(.seg)+`, lowercase snake segments, not a file name.
pub fn is_metric_shaped(s: &str) -> bool {
    let mut segs = s.split('.');
    let Some(first) = segs.next() else {
        return false;
    };
    if !first
        .chars()
        .next()
        .map(|c| c.is_ascii_lowercase())
        .unwrap_or(false)
    {
        return false;
    }
    let mut rest = 0usize;
    let mut last = first;
    let seg_ok = |seg: &str| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    if !seg_ok(first) {
        return false;
    }
    for seg in segs {
        if !seg_ok(seg) {
            return false;
        }
        last = seg;
        rest += 1;
    }
    rest >= 1 && !FILE_EXTS.contains(&last)
}

/// Metric names inside `pNN(name)` quantile expressions of an SLO
/// string such as `p99(driver.service_us) < 150ms`.
fn slo_metric_names(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'p' {
            let mut j = i + 1;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 && j < b.len() && b[j] == b'(' {
                if let Some(close) = s[j + 1..].find(')') {
                    let name = &s[j + 1..j + 1 + close];
                    if is_metric_shaped(name) {
                        out.push(name.to_string());
                    }
                    i = j + 1 + close;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Cross-check registrations against consumptions over the workspace.
/// `files` holds `(crate_name, rel_path, lexed)` per file.
pub fn analyze(files: &[(String, String, &Lexed)]) -> Vec<SchemaFinding> {
    // name -> first (file, line) on each side.
    let mut registered: BTreeMap<String, (String, u32, bool)> = BTreeMap::new();
    let mut consumed: BTreeMap<String, (String, u32, bool)> = BTreeMap::new();

    for (crate_name, rel_path, lexed) in files {
        if crate_name == "abr-lint" {
            continue;
        }
        let consumer = CONSUMER_CRATES.contains(&crate_name.as_str());
        let allows = lexed.allow_lines();
        let line_allowed =
            |line: u32, rule: &str| allows.get(&line).is_some_and(|s| s.contains(rule));
        let toks = &lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Str || lexed.in_test.get(i).copied().unwrap_or(false) {
                continue;
            }

            // SLO quantile expressions name consumed metrics wherever
            // they appear (engine defaults, harness overrides, docs in
            // code are comments and never reach here).
            for name in slo_metric_names(&t.text) {
                consumed
                    .entry(name)
                    .or_insert_with(|| (rel_path.clone(), t.line, line_allowed(t.line, "M002")));
            }

            if !is_metric_shaped(&t.text) || t.text.starts_with("wall.") {
                continue;
            }
            let register_pos = i >= 2
                && toks[i - 1].text == "("
                && toks[i - 2].kind == TokKind::Ident
                && REGISTER_FNS.contains(&toks[i - 2].text.as_str());

            if !consumer && register_pos {
                registered
                    .entry(t.text.clone())
                    .or_insert_with(|| (rel_path.clone(), t.line, line_allowed(t.line, "M001")));
            } else if consumer {
                consumed
                    .entry(t.text.clone())
                    .or_insert_with(|| (rel_path.clone(), t.line, line_allowed(t.line, "M002")));
            }
        }
    }

    let mut findings = Vec::new();
    for (name, (file, line, allowed)) in &registered {
        if !consumed.contains_key(name) && !allowed {
            findings.push(SchemaFinding {
                rule: "M001",
                file: file.clone(),
                line: *line,
                name: name.clone(),
            });
        }
    }
    for (name, (file, line, allowed)) in &consumed {
        if !registered.contains_key(name) && !allowed {
            findings.push(SchemaFinding {
                rule: "M002",
                file: file.clone(),
                line: *line,
                name: name.clone(),
            });
        }
    }
    // BTreeMap iteration already ordered by name within each rule.
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(files: &[(&str, &str, &str)]) -> Vec<(String, String)> {
        let lexed: Vec<_> = files.iter().map(|(_, _, s)| lex(s)).collect();
        let input: Vec<(String, String, &Lexed)> = files
            .iter()
            .zip(lexed.iter())
            .map(|((c, p, _), l)| (c.to_string(), p.to_string(), l))
            .collect();
        analyze(&input)
            .into_iter()
            .map(|f| (f.rule.to_string(), f.name))
            .collect()
    }

    #[test]
    fn matched_names_are_clean() {
        let out = run(&[
            (
                "abr-driver",
                "crates/abr-driver/src/d.rs",
                r#"fn f(r: &R) { let c = r.counter("driver.submitted"); }"#,
            ),
            (
                "abr-bench",
                "crates/abr-bench/src/r.rs",
                r#"fn g(snap: &S) { let v = snap["counters"]["driver.submitted"]; }"#,
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dead_metric_is_m001_at_the_registration() {
        let out = run(&[(
            "abr-driver",
            "crates/abr-driver/src/d.rs",
            r#"fn f(r: &R) { let c = r.counter("driver.orphan_total"); }"#,
        )]);
        assert_eq!(out, vec![("M001".into(), "driver.orphan_total".into())]);
    }

    #[test]
    fn phantom_metric_is_m002_at_the_consumption() {
        let out = run(&[(
            "abr-bench",
            "crates/abr-bench/src/r.rs",
            r#"fn g(c: impl Fn(&str) -> u64) { let v = c("driver.typo_total"); }"#,
        )]);
        assert_eq!(out, vec![("M002".into(), "driver.typo_total".into())]);
    }

    #[test]
    fn slo_strings_consume_their_quantile_metrics() {
        let out = run(&[
            (
                "abr-driver",
                "crates/abr-driver/src/d.rs",
                r#"fn f(r: &R) { let h = r.hires("driver.service_us"); }"#,
            ),
            (
                "abr-bench",
                "crates/abr-bench/src/e.rs",
                r#"fn slos() -> Vec<&'static str> { vec!["p99(driver.service_us) < 150ms", "p999(driver.ghost_us) < 1s"] }"#,
            ),
        ]);
        // service_us is matched; ghost_us is consumed-never-registered.
        assert_eq!(out, vec![("M002".into(), "driver.ghost_us".into())]);
    }

    #[test]
    fn wall_namespace_and_file_names_are_exempt() {
        let out = run(&[
            (
                "abr-obs",
                "crates/abr-obs/src/t.rs",
                r#"fn f(r: &R) { let c = r.counter("wall.event_loop.ns"); }"#,
            ),
            (
                "abr-bench",
                "crates/abr-bench/src/b.rs",
                r#"fn g() { let p = "results/BENCH_experiments.json"; let q = "counts.json"; let r = "wall.day_end.ns"; }"#,
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_registers_and_consumes_nothing() {
        let out = run(&[(
            "abr-obs",
            "crates/abr-obs/src/registry.rs",
            "#[cfg(test)]\nmod t { fn f(r: &R) { let c = r.counter(\"io.test_only\"); } }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn line_allow_suppresses_each_side() {
        let out = run(&[
            (
                "abr-driver",
                "crates/abr-driver/src/d.rs",
                "fn f(r: &R) { let c = r.counter(\"driver.spare_total\"); } // abr-lint: allow(M001, kept for abrctl scripts)\n",
            ),
            (
                "abr-bench",
                "crates/abr-bench/src/r.rs",
                "fn g(c: impl Fn(&str) -> u64) { c(\"driver.future_total\"); } // abr-lint: allow(M002, registered by the next PR)\n",
            ),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn metric_shape_rules() {
        assert!(is_metric_shaped("driver.service_us"));
        assert!(is_metric_shaped("array.disks.dead"));
        assert!(!is_metric_shaped("nodots"));
        assert!(!is_metric_shaped("Upper.case"));
        assert!(!is_metric_shaped("has space.x"));
        assert!(!is_metric_shaped("counts.json"));
        assert!(!is_metric_shaped("a..b"));
        assert!(!is_metric_shaped(""));
    }
}
