//! Interprocedural determinism taint analysis (rules D004/D005).
//!
//! The token-local rules D001–D003 catch a wall-clock read or a
//! `HashMap` at the line it is written, but not one laundered through a
//! helper: `fn stamp() -> u64 { now_us() }` called from the result path
//! is invisible to them. This pass closes that hole:
//!
//! 1. **Seed** taint at sink tokens inside function bodies —
//!    * D004 (wall clock / host environment): `SystemTime::now`,
//!      `Instant::now`, `std::env::{var,vars,var_os}`, `read_dir`
//!      (directory iteration order is host-dependent),
//!      `thread::current` (thread ids vary run to run);
//!    * D005 (unordered iteration / unseeded randomness): `HashMap`,
//!      `HashSet`, `RandomState`, `thread_rng`, `OsRng`, `from_entropy`,
//!      `rand::random`.
//! 2. **Propagate** along the workspace call graph ([`crate::graph`]),
//!    from the result-path entry points ([`ENTRY_POINTS`]) down the
//!    call edges.
//! 3. **Report** every sink whose function is reachable from an entry
//!    point, with the full call chain in the message.
//!
//! Annotations cut the analysis at two places, both honored per rule:
//! an `abr-lint: allow(...)` on the sink line suppresses the seed (the
//! D002/D003 ids are accepted there too, so existing annotations keep
//! working; D001 likewise covers D005's container seeds), and an
//! `allow(D004)`/`allow(D005)` on a *call site* line cuts propagation
//! through that edge — annotate one call, not every transitive caller.
//! Files on the D002 wall-clock allowlist seed no D004 taint at all.

use crate::graph::{CallGraph, FileFns};
use crate::lexer::{Lexed, TokKind};
use crate::rules::D002_ALLOWLIST;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Result-path entry points: `(impl type, method name)`. Everything
/// reachable from these must be deterministic — their output lands in
/// `results/*.json` or the byte-compared bench/serve records. The
/// batch engine, the one run dispatcher (a `match` of direct calls, so
/// every run body is a call edge away), and the three loop entries.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("RunBatch", "execute"),
    ("RunSpec", "dispatch"),
    ("ServeExperiment", "run"),
    ("ServeExperiment", "run_epoch"),
    ("DayLoop", "run_day"),
];

/// One taint finding: a sink inside a function reachable from the
/// result path.
#[derive(Debug, Clone)]
pub struct TaintFinding {
    /// `D004` or `D005`.
    pub rule: &'static str,
    /// Repo-relative path of the file holding the sink.
    pub file: String,
    /// 1-based line of the sink token.
    pub line: u32,
    /// Qualified name of the function containing the sink.
    pub qualname: String,
    /// What was found (`Instant::now`, `HashMap`, ...).
    pub sink: String,
    /// Call chain from an entry point to the sink's function.
    pub chain: Vec<String>,
}

impl TaintFinding {
    /// Stable baseline key: `{file}:{qualname}:{sink}` — line numbers
    /// deliberately excluded so unrelated edits don't churn baselines.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.qualname, self.sink)
    }

    /// Render as a [`Diagnostic`].
    pub fn diagnostic(&self) -> Diagnostic {
        let what = match self.rule {
            "D004" => "reads the wall clock / host environment",
            _ => "uses host-randomized iteration or unseeded randomness",
        };
        Diagnostic::new(
            self.rule,
            &self.file,
            self.line,
            format!(
                "`{}` in `{}` {what}; reachable from the result path via {}",
                self.sink,
                self.qualname,
                self.chain.join(" -> "),
            ),
        )
    }
}

/// A sink occurrence before reachability filtering.
struct Seed {
    rule: &'static str,
    fn_gid: usize,
    sink: String,
    line: u32,
}

/// Run the analysis. `files` holds `(rel_path, lexed)` per file,
/// aligned with `scans` and with the graph's `FnDef::file` indices.
pub fn analyze(
    files: &[(String, &Lexed)],
    scans: &[FileFns],
    graph: &CallGraph,
) -> Vec<TaintFinding> {
    let allows: Vec<BTreeMap<u32, BTreeSet<String>>> =
        files.iter().map(|(_, l)| l.allow_lines()).collect();

    let seeds = collect_seeds(files, scans, &allows);

    let mut findings = Vec::new();
    for rule in ["D004", "D005"] {
        let parents = reach(graph, &allows, rule);
        for s in seeds.iter().filter(|s| s.rule == rule) {
            let Some(chain) = chain_to(graph, &parents, s.fn_gid) else {
                continue;
            };
            let f = &graph.fns[s.fn_gid];
            findings.push(TaintFinding {
                rule,
                file: files[f.file].0.clone(),
                line: s.line,
                qualname: f.qualified(),
                sink: s.sink.clone(),
                chain,
            });
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.sink).cmp(&(&b.file, b.line, b.rule, &b.sink))
    });
    findings
}

/// Find sink tokens inside (non-test) function bodies.
fn collect_seeds(
    files: &[(String, &Lexed)],
    scans: &[FileFns],
    allows: &[BTreeMap<u32, BTreeSet<String>>],
) -> Vec<Seed> {
    let mut seeds = Vec::new();
    // fn_gid base per file (scan order matches graph construction).
    let mut base = Vec::with_capacity(scans.len());
    let mut acc = 0usize;
    for s in scans {
        base.push(acc);
        acc += s.fns.len();
    }

    for (fi, (rel_path, lexed)) in files.iter().enumerate() {
        let d004_file = !D002_ALLOWLIST.contains(&rel_path.as_str());
        let toks = &lexed.tokens;
        let allowed = |line: u32, rules: &[&str]| {
            allows[fi]
                .get(&line)
                .map(|s| rules.iter().any(|r| s.contains(*r)))
                .unwrap_or(false)
        };
        let is = |i: usize, s: &str| toks.get(i).map(|t| t.text == s).unwrap_or(false);
        let path_sep = |i: usize| is(i, ":") && is(i + 1, ":");

        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            // Only tokens owned by a function body can execute; a sink
            // name in a type alias or use declaration is inert.
            let Some(local_fid) = scans[fi].owner[i] else {
                continue;
            };
            if lexed.in_test.get(i).copied().unwrap_or(false) || scans[fi].fns[local_fid].in_test {
                continue;
            }
            let fn_gid = base[fi] + local_fid;
            let line = t.line;

            // D004 — wall clock / host environment.
            if d004_file {
                let hit = if t.text == "SystemTime" && path_sep(i + 1) && is(i + 3, "now") {
                    Some("SystemTime::now")
                } else if t.text == "Instant" && path_sep(i + 1) && is(i + 3, "now") {
                    Some("Instant::now")
                } else if t.text == "env"
                    && path_sep(i + 1)
                    && (is(i + 3, "var") || is(i + 3, "vars") || is(i + 3, "var_os"))
                {
                    Some("env::var")
                } else if t.text == "read_dir" {
                    Some("read_dir")
                } else if t.text == "thread" && path_sep(i + 1) && is(i + 3, "current") {
                    Some("thread::current")
                } else {
                    None
                };
                if let Some(sink) = hit {
                    if !allowed(line, &["D002", "D004"]) {
                        seeds.push(Seed {
                            rule: "D004",
                            fn_gid,
                            sink: sink.to_string(),
                            line,
                        });
                    }
                }
            }

            // D005 — unordered iteration / unseeded randomness.
            let hit = match t.text.as_str() {
                "HashMap" | "HashSet" | "RandomState" => Some(t.text.as_str()),
                "thread_rng" | "OsRng" | "from_entropy" => Some(t.text.as_str()),
                "rand" if path_sep(i + 1) && is(i + 3, "random") => Some("rand::random"),
                _ => None,
            };
            if let Some(sink) = hit {
                if !allowed(line, &["D001", "D003", "D005"]) {
                    seeds.push(Seed {
                        rule: "D005",
                        fn_gid,
                        sink: sink.to_string(),
                        line,
                    });
                }
            }
        }
    }
    seeds
}

/// BFS from the entry points over call edges, honoring per-rule edge
/// cuts (an `allow(rule)` on the call-site line). Returns
/// `parents[gid] = Some(caller gid)` for reached functions (entry
/// points map to themselves).
fn reach(
    graph: &CallGraph,
    allows: &[BTreeMap<u32, BTreeSet<String>>],
    rule: &str,
) -> Vec<Option<usize>> {
    // Adjacency from the sorted edge list → deterministic visit order.
    let mut adj: BTreeMap<usize, Vec<(usize, u32)>> = BTreeMap::new();
    for e in &graph.edges {
        adj.entry(e.caller).or_default().push((e.callee, e.line));
    }

    let mut parents: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (ty, name) in ENTRY_POINTS {
        for gid in graph.find(Some(ty), name) {
            if parents[gid].is_none() {
                parents[gid] = Some(gid);
                queue.push(gid);
            }
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let gid = queue[head];
        head += 1;
        let caller_file = graph.fns[gid].file;
        for &(callee, line) in adj.get(&gid).map(Vec::as_slice).unwrap_or(&[]) {
            if parents[callee].is_some() {
                continue;
            }
            // An allow on the call-site line cuts this edge.
            let cut = allows[caller_file]
                .get(&line)
                .map(|s| s.contains(rule))
                .unwrap_or(false);
            if cut {
                continue;
            }
            parents[callee] = Some(gid);
            queue.push(callee);
        }
    }
    parents
}

/// Reconstruct the entry-point chain for a reached function.
fn chain_to(graph: &CallGraph, parents: &[Option<usize>], gid: usize) -> Option<Vec<String>> {
    parents[gid]?;
    let mut chain = Vec::new();
    let mut cur = gid;
    loop {
        chain.push(graph.fns[cur].qualified());
        // abr-lint: allow(P001, guarded by the parents[gid]? above; reached fns always have a parent)
        let p = parents[cur].expect("reached fn has a parent");
        if p == cur {
            break;
        }
        cur = p;
        // The parent array is a forest rooted at entry points, so this
        // terminates; cap anyway against future bugs.
        if chain.len() > graph.fns.len() {
            return None;
        }
    }
    chain.reverse();
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build_graph, scan_file};
    use crate::lexer::lex;

    fn run(sources: &[(&str, &str)]) -> Vec<TaintFinding> {
        let lexed: Vec<_> = sources.iter().map(|(_, s)| lex(s)).collect();
        let scans: Vec<FileFns> = lexed
            .iter()
            .enumerate()
            .map(|(i, l)| scan_file(i, l))
            .collect();
        let pairs: Vec<(&crate::lexer::Lexed, &FileFns)> = lexed.iter().zip(scans.iter()).collect();
        let graph = build_graph(&pairs);
        let files: Vec<(String, &crate::lexer::Lexed)> = sources
            .iter()
            .zip(lexed.iter())
            .map(|((p, _), l)| (p.to_string(), l))
            .collect();
        analyze(&files, &scans, &graph)
    }

    #[test]
    fn two_hop_wall_clock_leak_is_found() {
        let src = "struct RunSpec;\n\
                   impl RunSpec { pub fn dispatch(&self) { helper(); } }\n\
                   fn helper() { stamp(); }\n\
                   fn stamp() -> u64 { Instant::now().elapsed().as_micros() as u64 }\n";
        let f = run(&[("crates/abr-bench/src/runs.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D004");
        assert_eq!(f[0].qualname, "stamp");
        assert_eq!(f[0].chain, vec!["RunSpec::dispatch", "helper", "stamp"]);
        assert_eq!(
            f[0].key(),
            "crates/abr-bench/src/runs.rs:stamp:Instant::now"
        );
    }

    #[test]
    fn unreachable_sinks_are_silent() {
        let src = "fn orphan() { let t = Instant::now(); }\n";
        assert!(run(&[("crates/abr-core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn sink_line_allow_suppresses_the_seed() {
        let src = "struct RunSpec;\n\
                   impl RunSpec { pub fn dispatch(&self) { stamp(); } }\n\
                   // abr-lint: allow(D004, wall profiling only, never in results)\n\
                   fn stamp() {\n\
                       let t = Instant::now();\n\
                   }\n";
        // The annotation covers the `fn` line, not the sink line inside.
        assert_eq!(run(&[("crates/abr-core/src/x.rs", src)]).len(), 1);
        let src2 = "struct RunSpec;\n\
                    impl RunSpec { pub fn dispatch(&self) { stamp(); } }\n\
                    fn stamp() {\n\
                        // abr-lint: allow(D004, wall profiling only, never in results)\n\
                        let t = Instant::now();\n\
                    }\n";
        assert!(run(&[("crates/abr-core/src/x.rs", src2)]).is_empty());
    }

    #[test]
    fn call_edge_allow_cuts_propagation() {
        let src = "struct RunSpec;\n\
                   impl RunSpec {\n\
                       pub fn dispatch(&self) {\n\
                           stamp(); // abr-lint: allow(D004, wall time reported, not folded into results)\n\
                       }\n\
                   }\n\
                   fn stamp() { let t = Instant::now(); }\n";
        assert!(run(&[("crates/abr-core/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn d002_allowlist_files_seed_no_d004() {
        let src = "struct RunBatch;\n\
                   impl RunBatch { pub fn execute(&self) { let t = Instant::now(); } }\n";
        assert!(run(&[("crates/abr-bench/src/engine.rs", src)]).is_empty());
        assert_eq!(run(&[("crates/abr-bench/src/other.rs", src)]).len(), 1);
    }

    #[test]
    fn d005_hashmap_in_reachable_fn_body() {
        let src = "impl RunSpec { fn dispatch(&self) { build(); } }\n\
                   fn build() { let m = HashMap::new(); }\n";
        let f = run(&[("crates/abr-bench/src/ablations.rs", src)]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "D005");
        assert_eq!(f[0].sink, "HashMap");
    }

    #[test]
    fn type_alias_hashmap_does_not_seed() {
        let src = "type Cache = HashMap<u64, u64>;\n\
                   impl RunSpec { fn dispatch(&self) { let c: Cache = Default::default(); } }\n";
        assert!(run(&[("crates/abr-bench/src/ablations.rs", src)]).is_empty());
    }

    #[test]
    fn existing_d001_annotation_covers_d005_seed() {
        let src = "impl DayLoop { fn run_day(&mut self) { let m = HashMap::new(); } } // abr-lint: allow(D001, keyed lookups only)\n";
        assert!(run(&[("crates/abr-bench/src/arrays.rs", src)]).is_empty());
    }

    #[test]
    fn cross_file_taint_propagates() {
        let a = "struct ServeExperiment;\nimpl ServeExperiment { pub fn run(&self) { util_stamp(); } }\n";
        let b = "pub fn util_stamp() { let d = read_dir(\".\"); }\n";
        let f = run(&[
            ("crates/abr-serve/src/server.rs", a),
            ("crates/abr-serve/src/util.rs", b),
        ]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].sink, "read_dir");
        assert_eq!(f[0].file, "crates/abr-serve/src/util.rs");
        assert_eq!(f[0].chain, vec!["ServeExperiment::run", "util_stamp"]);
    }
}
