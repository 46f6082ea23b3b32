//! The workspace call graph, the one matcher for panic and allocation
//! sites ([`site_at`]), and the interprocedural rule families built on them:
//! A-TRANS (hot fn transitively reaches an allocation) and P-TRANS
//! (panic-free module transitively reaches a panic site). The direct P- and
//! A-rules in [`crate::engine`] call the same matcher.
//!
//! Resolution is deliberately an over-approximation (DESIGN.md §7):
//! `Type::method` resolves by `(type, name)`, `self.method` tries the
//! caller's impl type first, and a bare `.method()` resolves by name across
//! **every** first-party impl — no trait dispatch, no receiver type
//! inference. Calls into std or vendored code produce no edges (only
//! first-party definitions are graph nodes), so a chain always ends at
//! first-party source the repo can fix.
//!
//! U-DEAD runs on the same graph the other way round: from the entry points
//! (every `fn main`, trait method and `#[doc(hidden)]` test hook, plus the
//! fns `const` / `static` tables and `macro_rules!` bodies name) over the resolved calls and the
//! by-name [`Mention`] edges, and reports the `crates/*/src` fns no root
//! reaches. Its edges only ever add, so it can miss dead code but never
//! flag live code.
//!
//! Traversal never descends into functions that carry the same obligation
//! as the root (another hot fn for A-TRANS, a `[panic_free]` file for
//! P-TRANS): those functions are analyzed from their own roots, so each
//! finding is reported exactly once, at the outermost call edge that leaves
//! the disciplined region.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{Token, TokenKind};
use crate::parse::{skip_attribute, Callee, FnItem, Mention};

/// Which transitive family a leaf site belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeafKind {
    /// Allocating / growing call (A-TRANS leaves).
    Alloc,
    /// Panicking construct (P-TRANS leaves).
    Panic,
}

/// One potential leaf site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct Site {
    /// 1-based source line of the site.
    pub line: u32,
    /// Which family the site belongs to.
    pub kind: LeafKind,
    /// The direct rule the site trips in its own scope; its `allow(...)`
    /// also exempts the site as a transitive leaf (e.g. an amortized-push
    /// `allow(A-PUSH)`).
    pub direct: Rule,
    /// Short description used in direct and chain diagnostics.
    pub desc: String,
}

/// One graph node: a first-party function definition.
#[derive(Debug)]
pub(crate) struct Node {
    /// Index into [`Graph::files`].
    pub file: usize,
    /// Display name (`Type::method` or `fn_name`).
    pub display: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the fn is annotated `// mmr-lint: hot`.
    pub hot: bool,
    /// Leaf sites in the body.
    pub sites: Vec<Site>,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub(crate) struct Graph {
    /// Workspace-relative file paths, lexicographically sorted.
    pub files: Vec<String>,
    /// Function nodes in (file, line) order.
    pub nodes: Vec<Node>,
    /// Resolved edges: `edges[n]` lists `(callee, call_line)` pairs, sorted
    /// by callee with the earliest call line kept per callee.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Mention edges: `refs[n]` lists every fn a [`Mention`] in `n`'s body
    /// may denote.
    pub refs: Vec<Vec<usize>>,
    /// U-DEAD's entry points: every `fn main`, trait method and
    /// `#[doc(hidden)]` hook, and every fn a `const` / `static` or a
    /// `macro_rules!` body mentions.
    pub roots: Vec<usize>,
}

/// Collects leaf sites for each fn of one file. `fns` must come from
/// [`crate::parse::parse_items`] on the same token stream.
pub(crate) fn collect_sites(tokens: &[Token], fns: &[FnItem]) -> Vec<Vec<Site>> {
    let mut sites: Vec<Vec<Site>> = vec![Vec::new(); fns.len()];
    // Innermost enclosing body owns each site (nested fns own theirs).
    let owner_of = |i: usize| -> Option<usize> {
        (0..fns.len())
            .filter(|&k| !fns[k].in_test && fns[k].body.is_some_and(|b| b.contains(i)))
            .max_by_key(|&k| fns[k].start)
    };
    let mut i = 0;
    while i < tokens.len() {
        // Skip attribute bodies: `#[allow(..)]`, `#[derive(..)]`.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = skip_attribute(tokens, i);
            continue;
        }
        if let Some(site) = site_at(tokens, i) {
            if let Some(owner) = owner_of(i) {
                sites[owner].push(site);
            }
        }
        i += 1;
    }
    sites
}

/// Recognizes a panic or allocation site whose trigger token sits at `i`.
pub(crate) fn site_at(tokens: &[Token], i: usize) -> Option<Site> {
    let t = &tokens[i];
    let next = tokens.get(i + 1);
    let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
    let site = |kind, direct, desc: String| Some(Site { line: t.line, kind, direct, desc });

    if t.kind == TokenKind::Punct {
        // Bare indexing is a panic site.
        if t.is_punct('[') && is_index_expr(tokens, i) {
            return site(LeafKind::Panic, Rule::PIndex, "bare indexing".into());
        }
        return None;
    }
    if t.kind != TokenKind::Ident {
        return None;
    }
    let is_call = next.is_some_and(|n| n.is_punct('('));
    let after_dot = prev.is_some_and(|p| p.is_punct('.'));
    let is_macro = next.is_some_and(|n| n.is_punct('!'));
    match t.text.as_str() {
        // --- panic sites -------------------------------------------------
        "unwrap" if after_dot && is_call => {
            site(LeafKind::Panic, Rule::PUnwrap, "`.unwrap()`".into())
        }
        "expect" if after_dot && is_call => {
            site(LeafKind::Panic, Rule::PExpect, "`.expect(..)`".into())
        }
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne"
            if is_macro && !after_dot =>
        {
            site(LeafKind::Panic, Rule::PPanic, format!("`{}!`", t.text))
        }
        // --- allocation sites --------------------------------------------
        "new" | "from" | "with_capacity" if is_call && is_alloc_type_path(tokens, i) => {
            let ty = tokens[i - 2].text.clone();
            site(LeafKind::Alloc, Rule::AAlloc, format!("allocating `{}::{}(..)`", ty, t.text))
        }
        "to_vec" | "to_string" | "to_owned" | "collect" | "with_capacity"
            if is_call && after_dot =>
        {
            site(LeafKind::Alloc, Rule::AAlloc, format!("allocating `.{}()`", t.text))
        }
        "format" | "vec" if is_macro => {
            site(LeafKind::Alloc, Rule::AAlloc, format!("allocating `{}!`", t.text))
        }
        "push" | "push_back" | "push_front" | "insert" | "extend" | "resize" | "append"
            if is_call && after_dot =>
        {
            site(LeafKind::Alloc, Rule::APush, format!("growing `.{}(..)`", t.text))
        }
        _ => None,
    }
}

/// Whether the `[` at index `i` opens an index expression: the previous
/// significant token is an identifier, `)`, or `]` (a value), not a type or
/// attribute position.
fn is_index_expr(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|j| tokens.get(j)) else { return false };
    match prev.kind {
        TokenKind::Ident => !matches!(
            prev.text.as_str(),
            // Keyword before `[` means array/slice literal or pattern
            // position (`let [a, b] = ...` destructures, it does not index).
            "return" | "in" | "if" | "while" | "match" | "else" | "mut" | "ref" | "as" | "dyn"
                | "let"
        ),
        TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
        _ => false,
    }
}

/// Whether token `i` (`new`/`from`/`with_capacity`) completes an allocating
/// `Type::ctor` path: tokens `i-2`/`i-1` are an allocating type name and
/// `::`.
fn is_alloc_type_path(tokens: &[Token], i: usize) -> bool {
    let Some(colons) = i.checked_sub(1).and_then(|j| tokens.get(j)) else { return false };
    let Some(ty) = i.checked_sub(2).and_then(|j| tokens.get(j)) else { return false };
    colons.text == "::"
        && matches!(
            ty.text.as_str(),
            "Vec" | "VecDeque" | "Box" | "String" | "BTreeMap" | "BTreeSet" | "HashMap"
                | "HashSet" | "Rc" | "Arc"
        )
}

/// The crate key of a workspace-relative path: its first two path
/// components (`crates/core/src/x.rs` → `crates/core`). Untyped method
/// receivers only resolve by name within the caller's own crate.
fn crate_of(path: &str) -> String {
    path.split('/').take(2).collect::<Vec<_>>().join("/")
}

/// Whether `path` is library code U-DEAD reports on: `crates/<name>/src/..`.
fn in_library(path: &str) -> bool {
    let mut parts = path.split('/');
    parts.next() == Some("crates") && parts.nth(1) == Some("src")
}

/// Builds the graph over all files. `per_file` holds, for each file (in
/// sorted path order), its path, parsed fns, and collected sites; `fields`
/// maps `(struct, field)` to the field's type and `aliases` a type alias to
/// every type it names, across the whole workspace; `root_mentions` are the
/// mentions in every `const` / `static` item and `macro_rules!` body.
pub(crate) fn build(
    per_file: Vec<(String, Vec<FnItem>, Vec<Vec<Site>>)>,
    fields: &BTreeMap<(String, String), String>,
    aliases: &BTreeMap<String, Vec<String>>,
    root_mentions: &[Mention],
) -> Graph {
    let mut g = Graph::default();
    // Node table: every non-test fn with a body, plus name → node indices.
    let mut self_tys: Vec<Option<String>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut crates: Vec<String> = Vec::new();
    let mut vars: Vec<Vec<(String, String)>> = Vec::new();
    let mut calls: Vec<Vec<Callee>> = Vec::new();
    let mut call_lines: Vec<Vec<u32>> = Vec::new();
    let mut mentions: Vec<Vec<Mention>> = Vec::new();
    for (path, fns, sites) in per_file {
        let file_idx = g.files.len();
        let krate = crate_of(&path);
        g.files.push(path);
        for (f, s) in fns.into_iter().zip(sites) {
            if f.in_test || f.body.is_none() {
                continue;
            }
            g.nodes.push(Node {
                file: file_idx,
                display: f.display(),
                line: f.line,
                hot: f.hot,
                sites: s,
            });
            if f.trait_method || f.doc_hidden || (f.name == "main" && f.self_ty.is_none()) {
                g.roots.push(g.nodes.len() - 1);
            }
            self_tys.push(f.self_ty.clone());
            names.push(f.name.clone());
            crates.push(krate.clone());
            vars.push(f.vars.clone());
            calls.push(f.calls.iter().map(|c| c.callee.clone()).collect());
            call_lines.push(f.calls.iter().map(|c| c.line).collect());
            mentions.push(f.mentions);
        }
    }

    // Resolution indices.
    let mut methods_in: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_ty: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, name) in names.iter().enumerate() {
        match &self_tys[idx] {
            Some(ty) => {
                methods_in.entry((&crates[idx], name)).or_default().push(idx);
                by_ty.entry((ty, name)).or_default().push(idx);
                methods.entry(name).or_default().push(idx);
            }
            None => free.entry(name).or_default().push(idx),
        }
    }

    // Mention edges: by name, never narrowed by a receiver type.
    let resolve = |m: &Mention, self_ty: Option<&str>| -> Vec<usize> {
        match m {
            Mention::Free(n) => free.get(n.as_str()).cloned().unwrap_or_default(),
            Mention::Method(n) => methods.get(n.as_str()).cloned().unwrap_or_default(),
            Mention::Qualified(ty, n) => {
                let ty = if ty == "Self" { self_ty.unwrap_or("Self") } else { ty.as_str() };
                let aliased = aliases.get(ty).into_iter().flatten().map(String::as_str);
                std::iter::once(ty)
                    .chain(aliased)
                    .filter_map(|t| by_ty.get(&(t, n.as_str())))
                    .flatten()
                    .copied()
                    .collect()
            }
        }
    };
    g.refs = mentions
        .iter()
        .zip(&self_tys)
        .map(|(ms, ty)| ms.iter().flat_map(|m| resolve(m, ty.as_deref())).collect())
        .collect();
    g.roots.extend(root_mentions.iter().flat_map(|m| resolve(m, None)));

    let empty: Vec<usize> = Vec::new();
    for (caller, callees) in calls.iter().enumerate() {
        // Resolves a typed receiver chain: `segs[0]` is `self` or a named
        // var; later segments walk struct-field types.
        let recv_type = |segs: &[String]| -> Option<String> {
            let mut ty = match segs[0].as_str() {
                "self" => self_tys[caller].clone(),
                base => vars[caller]
                    .iter()
                    .rev()
                    .find(|(v, _)| v == base)
                    .map(|(_, t)| t.clone()),
            };
            for seg in &segs[1..] {
                ty = ty.and_then(|t| fields.get(&(t, seg.clone())).cloned());
            }
            ty
        };
        let mut out: BTreeMap<usize, u32> = BTreeMap::new();
        for (callee, &line) in callees.iter().zip(&call_lines[caller]) {
            let resolved_ty: String;
            let targets: &Vec<usize> = match callee {
                Callee::Free(n) => free.get(n.as_str()).unwrap_or(&empty),
                Callee::Qualified(ty, n) => {
                    let ty = if ty == "Self" {
                        self_tys[caller].as_deref().unwrap_or("Self")
                    } else {
                        ty.as_str()
                    };
                    by_ty.get(&(ty, n.as_str())).unwrap_or(&empty)
                }
                Callee::SelfMethod(n) => {
                    match self_tys[caller].as_deref().and_then(|ty| by_ty.get(&(ty, n.as_str())))
                    {
                        Some(v) => v,
                        None => methods_in
                            .get(&(crates[caller].as_str(), n.as_str()))
                            .unwrap_or(&empty),
                    }
                }
                Callee::PathMethod(segs, n) => match recv_type(segs) {
                    // A resolved receiver type binds the call: a non-
                    // first-party type (Vec, Option…) yields no edge.
                    Some(ty) => {
                        resolved_ty = ty;
                        by_ty.get(&(resolved_ty.as_str(), n.as_str())).unwrap_or(&empty)
                    }
                    None => methods_in
                        .get(&(crates[caller].as_str(), n.as_str()))
                        .unwrap_or(&empty),
                },
                Callee::Method(n) => {
                    methods_in.get(&(crates[caller].as_str(), n.as_str())).unwrap_or(&empty)
                }
            };
            for &t in targets {
                if t != caller {
                    out.entry(t).or_insert(line);
                }
            }
        }
        g.edges.push(out.into_iter().collect());
    }
    g
}

/// Computes the findings of one transitive rule family via BFS from each
/// `scoped` node. The roots are never descended into from another root:
/// each carries the obligation itself and is reported from its own BFS.
/// `exempt` consults workspace allow-annotations at a leaf site (and marks
/// them used).
pub(crate) fn transitive_diags(
    graph: &Graph,
    scoped: &dyn Fn(usize) -> bool,
    leaf_kind: LeafKind,
    rule: Rule,
    root_label: &str,
    exempt: &mut dyn FnMut(usize, &Site) -> bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for root in (0..graph.nodes.len()).filter(|&n| scoped(n)) {
        // BFS with parent pointers; `from[n] = (parent, edge_line)`.
        let mut from: BTreeMap<usize, (usize, u32)> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(n) = queue.pop_front() {
            if n != root {
                // Leaf check: any non-exempt site of the family?
                let hit = graph.nodes[n]
                    .sites
                    .iter()
                    .filter(|s| s.kind == leaf_kind)
                    .find(|s| !exempt(n, s));
                if let Some(site) = hit {
                    // Reconstruct the chain root → … → n.
                    let mut chain = vec![n];
                    let mut cur = n;
                    while let Some(&(p, _)) = from.get(&cur) {
                        chain.push(p);
                        cur = p;
                        if cur == root {
                            break;
                        }
                    }
                    chain.reverse();
                    let names: Vec<&str> =
                        chain.iter().map(|&k| graph.nodes[k].display.as_str()).collect();
                    let leaf = &graph.nodes[n];
                    diags.push(Diagnostic::new(
                        &graph.files[graph.nodes[root].file],
                        from[&chain[1]].1,
                        rule,
                        format!(
                            "{root_label} `{}` transitively reaches {} in `{}` ({}:{}); chain: {}",
                            graph.nodes[root].display,
                            site.desc,
                            leaf.display,
                            graph.files[leaf.file],
                            site.line,
                            names.join(" -> "),
                        ),
                    ));
                }
            }
            for &(next, line) in &graph.edges[n] {
                if next == root || from.contains_key(&next) || scoped(next) {
                    continue;
                }
                from.insert(next, (n, line));
                queue.push_back(next);
            }
        }
    }
    diags
}

/// U-DEAD: the `crates/*/src` fns that no root reaches over the resolved
/// calls and the mention edges.
pub(crate) fn dead_diags(graph: &Graph) -> Vec<Diagnostic> {
    let mut live = vec![false; graph.nodes.len()];
    let mut stack = graph.roots.clone();
    while let Some(n) = stack.pop() {
        if !std::mem::replace(&mut live[n], true) {
            stack.extend(graph.edges[n].iter().map(|&(t, _)| t));
            stack.extend(&graph.refs[n]);
        }
    }
    graph
        .nodes
        .iter()
        .zip(live)
        .filter(|(n, live)| !live && in_library(&graph.files[n.file]))
        .map(|(n, _)| {
            Diagnostic::new(
                &graph.files[n.file],
                n.line,
                Rule::UDead,
                format!(
                    "`{}` is reached from no `fn main`, trait method, `#[doc(hidden)]` hook or const table; delete it or declare it a test hook",
                    n.display
                ),
            )
        })
        .collect()
}

/// Renders the graph as deterministic DOT: nodes and edges sorted, one
/// line each, suitable as a CI artifact.
pub(crate) fn to_dot(graph: &Graph) -> String {
    let label = |n: &Node| format!("{}:{} {}", graph.files[n.file], n.line, n.display);
    let mut out = String::from("digraph mmr_callgraph {\n");
    for n in &graph.nodes {
        let shape = if n.hot { " [shape=box]" } else { "" };
        out.push_str(&format!("  \"{}\"{};\n", label(n), shape));
    }
    for (caller, outs) in graph.edges.iter().enumerate() {
        for &(callee, _) in outs {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\";\n",
                label(&graph.nodes[caller]),
                label(&graph.nodes[callee])
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::{find_test_regions, parse_fields, parse_items};

    fn graph_of(src: &str, hot_lines: &[u32]) -> Graph {
        let lexed = lex(src);
        let tests = find_test_regions(&lexed.tokens);
        let fns = parse_items(&lexed.tokens, hot_lines, &tests);
        let sites = collect_sites(&lexed.tokens, &fns);
        let mut fields = BTreeMap::new();
        for (s, f, t) in parse_fields(&lexed.tokens) {
            fields.insert((s, f), t);
        }
        build(vec![("a.rs".to_string(), fns, sites)], &fields, &BTreeMap::new(), &[])
    }

    #[test]
    fn field_typed_receivers_resolve_precisely() {
        let g = graph_of(
            "struct Inner;\nimpl Inner { fn get(&self) {} }\nstruct Outer { inner: Inner }\nimpl Outer { fn go(&self) { self.inner.get(); } }",
            &[],
        );
        let go = g.nodes.iter().position(|n| n.display == "Outer::go").expect("go");
        let get = g.nodes.iter().position(|n| n.display == "Inner::get").expect("get");
        assert_eq!(g.edges[go], vec![(get, 4)]);
    }

    #[test]
    fn std_typed_receivers_produce_no_edges() {
        // `buf` is a Vec: `.push()` must not resolve to the unrelated
        // first-party `Other::push` in another crate.
        let lexed = lex("impl S { fn go(&self, buf: &mut Vec<u8>) { buf.push(1); } }\nstruct S;");
        let fns = parse_items(&lexed.tokens, &[], &[]);
        let sites = collect_sites(&lexed.tokens, &fns);
        let other = lex("struct Other;\nimpl Other { fn push(&mut self) { grow(); } }");
        let ofns = parse_items(&other.tokens, &[], &[]);
        let osites = collect_sites(&other.tokens, &ofns);
        let g = build(
            vec![
                ("crates/a/src/x.rs".to_string(), fns, sites),
                ("crates/b/src/y.rs".to_string(), ofns, osites),
            ],
            &BTreeMap::new(),
            &BTreeMap::new(),
            &[],
        );
        let go = g.nodes.iter().position(|n| n.display == "S::go").expect("go");
        assert!(g.edges[go].is_empty(), "{:?}", g.edges[go]);
    }

    #[test]
    fn edges_resolve_free_and_method_calls() {
        let g = graph_of(
            "fn a() { b(); }\nfn b() { }\nstruct S;\nimpl S { fn m(&self) { a(); self.n(); } fn n(&self) {} }",
            &[],
        );
        assert_eq!(g.nodes.len(), 4);
        let idx = |name: &str| g.nodes.iter().position(|n| n.display == name).expect("node");
        let (a, b, m, n) = (idx("a"), idx("b"), idx("S::m"), idx("S::n"));
        assert_eq!(g.edges[a], vec![(b, 1)]);
        assert!(g.edges[m].iter().any(|&(t, _)| t == a));
        assert!(g.edges[m].iter().any(|&(t, _)| t == n));
    }

    #[test]
    fn chain_is_reported_with_shortest_path() {
        let g = graph_of(
            "// mmr-lint: hot\nfn hot() { mid(); }\nfn mid() { leaf(); }\nfn leaf() { let v = Vec::new(); }",
            &[1],
        );
        let diags = transitive_diags(
            &g,
            &|i| g.nodes[i].hot,
            LeafKind::Alloc,
            Rule::ATrans,
            "hot fn",
            &mut |_, _| false,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        let d = &diags[0];
        assert_eq!(d.line, 2, "anchored at the hot fn's call site");
        assert!(d.message.contains("chain: hot -> mid -> leaf"), "{}", d.message);
    }

    #[test]
    fn covered_nodes_are_not_descended() {
        // hot calls another hot fn that allocates: the callee's own direct
        // A-rules cover it, so no transitive finding is reported.
        let g = graph_of(
            "// mmr-lint: hot\nfn a() { b(); }\n// mmr-lint: hot\nfn b() { let v = Vec::new(); }",
            &[1, 3],
        );
        let diags = transitive_diags(
            &g,
            &|i| g.nodes[i].hot,
            LeafKind::Alloc,
            Rule::ATrans,
            "hot fn",
            &mut |_, _| false,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_code_is_what_no_root_reaches() {
        // `A::f` reaches `B::f` through the alias; `Vec::g` names no `B::g`.
        let lexed = lex("type A = B;\nstruct B;\nimpl B { fn f() {} fn g() {} }\nfn main() { A::f(); Vec::g(); }");
        let fns = parse_items(&lexed.tokens, &[], &[]);
        let sites = collect_sites(&lexed.tokens, &fns);
        let aliases = BTreeMap::from([("A".to_string(), vec!["B".to_string()])]);
        let g = build(vec![("crates/x/src/main.rs".into(), fns, sites)], &BTreeMap::new(), &aliases, &[]);
        let dead: Vec<String> = dead_diags(&g).iter().map(|d| d.render()).collect();
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].starts_with("crates/x/src/main.rs:3: U-DEAD: `B::g`"), "{dead:?}");
    }

    #[test]
    fn dot_is_deterministic_and_complete() {
        let g = graph_of("fn a() { b(); }\nfn b() {}", &[]);
        let dot = to_dot(&g);
        assert!(dot.contains("\"a.rs:1 a\" -> \"a.rs:2 b\";"), "{dot}");
        assert_eq!(dot, to_dot(&g));
    }

    #[test]
    fn sites_cover_all_three_families() {
        // Allocation, growth and panic sites, each with the direct rule it
        // trips in its own scope.
        let g = graph_of("fn f(xs: V, i: usize) { xs.to_vec(); xs.push(1); xs[i]; }", &[]);
        let sites: Vec<(LeafKind, Rule)> =
            g.nodes[0].sites.iter().map(|s| (s.kind, s.direct)).collect();
        assert_eq!(
            sites,
            [
                (LeafKind::Alloc, Rule::AAlloc),
                (LeafKind::Alloc, Rule::APush),
                (LeafKind::Panic, Rule::PIndex),
            ]
        );
    }
}
