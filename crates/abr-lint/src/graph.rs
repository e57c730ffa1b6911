//! A lightweight symbol table and call graph over the whole workspace,
//! built from the token streams of [`crate::lexer`] — no `syn`, no type
//! inference, just the structural conventions this workspace actually
//! uses.
//!
//! What it understands:
//!
//! * `fn` items — free functions, inherent/trait-impl methods (the
//!   `impl` self-type is recovered from the token stream, including
//!   `impl<...> Type<...> for ...` forms), trait default methods, and
//!   nested `fn`s (each token is attributed to its *innermost* owning
//!   function);
//! * call sites — plain calls `f(...)`, path calls `a::b::f(...)`
//!   (including turbofish `f::<T>(...)`), `Self::f(...)`, and method
//!   calls `.m(...)`.
//!
//! Resolution is deliberately over-approximate where the tokens cannot
//! say more: a method call `.m(...)` links to every workspace method
//! named `m`, a module-qualified call `runs::f(...)` to every free `f`.
//! Over-approximation is the safe direction for taint analysis — it can
//! produce a false edge, never miss a real one (short of function
//! pointers/closures passed as values, which this workspace's result
//! path does not use for nondeterministic work). A qualified call whose
//! qualifier names no workspace type and is capitalized (e.g.
//! `Vec::new`) resolves to nothing rather than to every `new`.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// Rust keywords that can precede `(` without being calls, plus item
/// keywords the definition scanner must not mistake for names.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
    "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index of the file in the workspace source list.
    pub file: usize,
    /// Self type for methods (`impl` / `trait` context), `None` for
    /// free functions.
    pub type_name: Option<String>,
    /// The function's own name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// Token index range of the body (empty for bodyless trait decls).
    pub body_start: usize,
    /// End of the body token range (exclusive).
    pub body_end: usize,
    /// Whether the definition sits inside `#[cfg(test)]` code.
    pub in_test: bool,
}

impl FnDef {
    /// `Type::name` for methods, plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match &self.type_name {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// An unresolved call site inside some function body.
#[derive(Debug, Clone)]
pub enum CallTarget {
    /// `.m(...)` — receiver type unknown.
    Method(String),
    /// `Qual::m(...)` — `Qual` is the path segment before the name
    /// (with `Self` already replaced by the enclosing impl type).
    Qualified(String, String),
    /// `m(...)` with no qualifier.
    Free(String),
}

/// A resolved call edge: `caller` invokes `callee` at `line` (of the
/// caller's file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Calling function (index into [`CallGraph::fns`]).
    pub caller: usize,
    /// Called function (index into [`CallGraph::fns`]).
    pub callee: usize,
    /// 1-based line of the call site.
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function definition, in (file, token-position) order.
    pub fns: Vec<FnDef>,
    /// Resolved call edges, sorted and deduplicated.
    pub edges: Vec<Edge>,
}

impl CallGraph {
    /// Indices of live (non-test) functions matching `name`, optionally
    /// constrained to an impl type.
    pub fn find(&self, type_name: Option<&str>, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.in_test
                    && f.name == name
                    && match type_name {
                        Some(t) => f.type_name.as_deref() == Some(t),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }
}

/// Per-file structural scan output: functions plus the innermost-owner
/// attribution for every token.
#[derive(Clone)]
pub struct FileFns {
    /// Functions defined in this file (indices are local).
    pub fns: Vec<FnDef>,
    /// `owner[i]` — local index of the innermost function owning token
    /// `i`, if any.
    pub owner: Vec<Option<usize>>,
}

/// Scan one lexed file for function definitions and token ownership.
pub fn scan_file(file_idx: usize, lexed: &Lexed) -> FileFns {
    let toks = &lexed.tokens;
    let n = toks.len();
    let mut fns: Vec<FnDef> = Vec::new();
    let mut owner: Vec<Option<usize>> = vec![None; n];

    // (depth the block opened at, self type) for impl/trait contexts.
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    // (local fn index, depth its body opened at).
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    // Brace depth.
    let mut depth = 0usize;
    // A just-seen fn signature whose body `{` has not opened yet:
    // (local index, paren/bracket depth inside the signature).
    let mut pending_fn: Option<usize> = None;
    let mut sig_depth = 0usize;
    // A just-seen impl/trait whose block `{` has not opened yet.
    let mut pending_impl: Option<Option<String>> = None;

    let mut i = 0;
    while i < n {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "impl" => {
                    pending_impl = Some(parse_impl_type(toks, i + 1));
                }
                "trait" => {
                    if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                        pending_impl = Some(Some(name.text.clone()));
                    }
                }
                "fn" => {
                    if let Some(name) = toks
                        .get(i + 1)
                        .filter(|t| t.kind == TokKind::Ident && !is_keyword(&t.text))
                    {
                        let type_name = impl_stack.iter().rev().find_map(|(_, ty)| ty.clone());
                        fns.push(FnDef {
                            file: file_idx,
                            type_name,
                            name: name.text.clone(),
                            line: name.line,
                            body_start: 0,
                            body_end: 0,
                            in_test: lexed.in_test.get(i).copied().unwrap_or(false),
                        });
                        pending_fn = Some(fns.len() - 1);
                        sig_depth = 0;
                        owner[i] = fn_stack.last().map(|(f, _)| *f);
                        i += 1; // also attribute the name token below
                    }
                }
                _ => {}
            }
        }
        match t.text.as_str() {
            "(" | "[" if pending_fn.is_some() => sig_depth += 1,
            ")" | "]" if pending_fn.is_some() => sig_depth = sig_depth.saturating_sub(1),
            ";" if pending_fn.is_some() && sig_depth == 0 => {
                // Bodyless trait method declaration.
                pending_fn = None;
            }
            "{" => {
                depth += 1;
                if let Some(fid) = pending_fn.take() {
                    fns[fid].body_start = i + 1;
                    fn_stack.push((fid, depth));
                } else if let Some(ty) = pending_impl.take() {
                    impl_stack.push((depth, ty));
                }
            }
            "}" => {
                if let Some(&(fid, d)) = fn_stack.last() {
                    if d == depth {
                        fns[fid].body_end = i;
                        fn_stack.pop();
                    }
                }
                if let Some(&(d, _)) = impl_stack.last() {
                    if d == depth {
                        impl_stack.pop();
                    }
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        owner[i] = fn_stack.last().map(|(f, _)| *f);
        i += 1;
    }
    FileFns { fns, owner }
}

/// Recover the self type of an `impl` item from the tokens after the
/// `impl` keyword: skip the generic parameter list, then take the last
/// path segment before the opening brace — or, when a `for` appears
/// (`impl Trait for Type`), the last segment after it.
fn parse_impl_type(toks: &[Tok], mut j: usize) -> Option<String> {
    let n = toks.len();
    if toks.get(j).map(|t| t.text == "<").unwrap_or(false) {
        j = skip_angles(toks, j);
    }
    let mut last: Option<String> = None;
    let mut angle = 0usize;
    while j < n {
        let t = &toks[j];
        if angle == 0 {
            match t.text.as_str() {
                "{" | ";" => break,
                "where" if t.kind == TokKind::Ident => break,
                "for" if t.kind == TokKind::Ident => last = None,
                "<" => angle += 1,
                _ => {
                    if t.kind == TokKind::Ident && !is_keyword(&t.text) {
                        last = Some(t.text.clone());
                    }
                }
            }
        } else {
            match t.text.as_str() {
                "<" => angle += 1,
                // `->` inside Fn-trait sugar: the `>` there is not a
                // closing angle bracket.
                ">" if j > 0 && toks[j - 1].text != "-" => angle -= 1,
                _ => {}
            }
        }
        j += 1;
    }
    last
}

/// Given `toks[open_at] == "<"`, return the index one past the matching
/// `>`. Tolerates `->` inside (does not count its `>`).
fn skip_angles(toks: &[Tok], open_at: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open_at;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" if j > 0 && toks[j - 1].text != "-" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Extract call sites from one file, attributed to their owning
/// function: returns `(local fn index, target, line)` triples.
pub fn extract_calls(lexed: &Lexed, file_fns: &FileFns) -> Vec<(usize, CallTarget, u32)> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        let Some(fid) = file_fns.owner[i] else {
            continue;
        };
        if lexed.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // The fn's own name token in its definition is not a call.
        if i > 0 && toks[i - 1].kind == TokKind::Ident && toks[i - 1].text == "fn" {
            continue;
        }
        // Macro invocation names are not calls.
        if toks.get(i + 1).map(|t| t.text == "!").unwrap_or(false) {
            continue;
        }
        // Where does the argument list start? Directly, or after a
        // turbofish `::<...>`.
        let after = if toks.get(i + 1).map(|t| t.text == "(").unwrap_or(false) {
            Some(i + 1)
        } else if toks.get(i + 1).map(|t| t.text == ":").unwrap_or(false)
            && toks.get(i + 2).map(|t| t.text == ":").unwrap_or(false)
            && toks.get(i + 3).map(|t| t.text == "<").unwrap_or(false)
        {
            let k = skip_angles(toks, i + 3);
            toks.get(k)
                .map(|t| t.text == "(")
                .unwrap_or(false)
                .then_some(k)
        } else {
            None
        };
        if after.is_none() {
            continue;
        }

        let name = t.text.clone();
        let target = if i > 0 && toks[i - 1].text == "." {
            CallTarget::Method(name)
        } else if i >= 3
            && toks[i - 1].text == ":"
            && toks[i - 2].text == ":"
            && toks[i - 3].kind == TokKind::Ident
        {
            let mut qual = toks[i - 3].text.clone();
            if qual == "Self" || qual == "self" {
                match file_fns.fns[fid].type_name.clone() {
                    Some(ty) => qual = ty,
                    None => {
                        out.push((fid, CallTarget::Free(name), t.line));
                        continue;
                    }
                }
            }
            CallTarget::Qualified(qual, name)
        } else {
            CallTarget::Free(name)
        };
        out.push((fid, target, t.line));
    }
    out
}

/// Build the workspace call graph from per-file scans.
///
/// `files` pairs each file's lexed form with its [`scan_file`] output;
/// the returned graph's `FnDef::file` indices refer to positions in
/// this slice.
pub fn build_graph(files: &[(&Lexed, &FileFns)]) -> CallGraph {
    // Global function list, remembering each file's local->global base.
    let mut fns: Vec<FnDef> = Vec::new();
    let mut base: Vec<usize> = Vec::with_capacity(files.len());
    for (_, ff) in files {
        base.push(fns.len());
        fns.extend(ff.fns.iter().cloned());
    }

    // Name indices over live functions.
    let mut by_method: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_qual: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (gid, f) in fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        match &f.type_name {
            Some(ty) => {
                by_method.entry(&f.name).or_default().push(gid);
                by_qual.entry((ty, &f.name)).or_default().push(gid);
            }
            None => {
                by_free.entry(&f.name).or_default().push(gid);
            }
        }
    }

    let mut edges: Vec<Edge> = Vec::new();
    for (file_idx, (lexed, ff)) in files.iter().enumerate() {
        let calls = extract_calls(lexed, ff);
        for (local_fid, target, line) in calls {
            let caller = base[file_idx] + local_fid;
            if fns[caller].in_test {
                continue;
            }
            let callees: &[usize] = match &target {
                CallTarget::Method(m) => {
                    by_method.get(m.as_str()).map(Vec::as_slice).unwrap_or(&[])
                }
                CallTarget::Qualified(q, m) => {
                    if let Some(v) = by_qual.get(&(q.as_str(), m.as_str())) {
                        v.as_slice()
                    } else if q
                        .chars()
                        .next()
                        .map(|c| c.is_lowercase() || c == '_')
                        .unwrap_or(false)
                    {
                        // Module-qualified free call (`runs::f(...)`).
                        by_free.get(m.as_str()).map(Vec::as_slice).unwrap_or(&[])
                    } else {
                        // Foreign type (`Vec::new`): no workspace edge.
                        &[]
                    }
                }
                CallTarget::Free(m) => by_free.get(m.as_str()).map(Vec::as_slice).unwrap_or(&[]),
            };
            for &callee in callees {
                if callee != caller {
                    edges.push(Edge {
                        caller,
                        callee,
                        line,
                    });
                }
            }
        }
    }
    edges.sort();
    edges.dedup();
    CallGraph { fns, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph_of(sources: &[&str]) -> (Vec<crate::lexer::Lexed>, CallGraph) {
        let lexed: Vec<_> = sources.iter().map(|s| lex(s)).collect();
        let scans: Vec<FileFns> = lexed
            .iter()
            .enumerate()
            .map(|(i, l)| scan_file(i, l))
            .collect();
        let pairs: Vec<(&crate::lexer::Lexed, &FileFns)> = lexed.iter().zip(scans.iter()).collect();
        let g = build_graph(&pairs);
        (lexed, g)
    }

    #[test]
    fn free_fns_methods_and_impl_types_are_found() {
        let src = "fn free() {}\n\
                   struct Foo;\n\
                   impl Foo { fn method(&self) { free(); } }\n\
                   impl std::fmt::Display for Foo { fn fmt(&self) {} }\n\
                   trait Bar { fn defaulted(&self) { self.method(); } fn decl(&self); }\n";
        let (_l, g) = graph_of(&[src]);
        let names: Vec<String> = g.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            vec![
                "free",
                "Foo::method",
                "Foo::fmt",
                "Bar::defaulted",
                "Bar::decl"
            ]
        );
        // free() called from Foo::method; .method() from Bar::defaulted.
        assert!(g
            .edges
            .iter()
            .any(|e| g.fns[e.caller].qualified() == "Foo::method"
                && g.fns[e.callee].qualified() == "free"));
        assert!(g
            .edges
            .iter()
            .any(|e| g.fns[e.caller].qualified() == "Bar::defaulted"
                && g.fns[e.callee].qualified() == "Foo::method"));
    }

    #[test]
    fn nested_fns_own_their_tokens() {
        let src = "fn outer() { inner_call(); fn nested() { deep_call(); } }\n\
                   fn inner_call() {}\nfn deep_call() {}\n";
        let (_l, g) = graph_of(&[src]);
        let edge = |a: &str, b: &str| {
            g.edges
                .iter()
                .any(|e| g.fns[e.caller].name == a && g.fns[e.callee].name == b)
        };
        assert!(edge("outer", "inner_call"));
        assert!(edge("nested", "deep_call"));
        assert!(!edge("outer", "deep_call"), "deep_call belongs to nested");
    }

    #[test]
    fn qualified_self_and_turbofish_calls_resolve() {
        let src = "struct C;\n\
                   impl C {\n\
                     pub fn run(&self) { Self::helper(); parse::<u32>(); }\n\
                     fn helper() {}\n\
                   }\n\
                   fn parse<T>() {}\n";
        let (_l, g) = graph_of(&[src]);
        let edge = |a: &str, b: &str| {
            g.edges
                .iter()
                .any(|e| g.fns[e.caller].name == a && g.fns[e.callee].name == b)
        };
        assert!(edge("run", "helper"), "Self:: resolves to the impl type");
        assert!(edge("run", "parse"), "turbofish call resolves");
    }

    #[test]
    fn foreign_type_calls_make_no_edges() {
        let src = "fn new() {}\nfn f() { let v = Vec::new(); }\n";
        let (_l, g) = graph_of(&[src]);
        assert!(
            g.edges.is_empty(),
            "Vec::new must not resolve to the workspace fn `new`: {:?}",
            g.edges
        );
    }

    #[test]
    fn module_qualified_free_calls_resolve() {
        let (_l, g) = graph_of(&["fn f() { runs::helper(); }", "pub fn helper() {}"]);
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.fns[g.edges[0].callee].name, "helper");
    }

    #[test]
    fn test_code_is_excluded_from_the_graph() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t { fn case() { live(); } }\n";
        let (_l, g) = graph_of(&[src]);
        assert!(g.edges.is_empty());
        assert!(g.find(None, "case").is_empty());
        assert_eq!(g.find(None, "live").len(), 1);
    }

    #[test]
    fn cross_file_method_calls_link() {
        let a = "struct RunSpec;\nimpl RunSpec { pub fn dispatch(&self) {} }\n";
        let b = "fn exec(s: &RunSpec) { s.dispatch(); }\n";
        let (_l, g) = graph_of(&[a, b]);
        assert!(g.edges.iter().any(|e| g.fns[e.caller].name == "exec"
            && g.fns[e.callee].qualified() == "RunSpec::dispatch"));
    }
}
