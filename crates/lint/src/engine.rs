//! The analysis engine. Per file: annotation comments, `#[cfg(test)]`
//! regions, and the direct rules — the D-rules' token patterns here, the P-
//! and A-rules through [`graph::site_at`], the one matcher the chain rules
//! use too. Per workspace: the call graph over every analyzed file and the
//! interprocedural rule families (A-TRANS, P-TRANS, U-DEAD), then allow-application
//! and L-UNUSED reporting in one global pass — an allow on a leaf line can
//! be "used" by a call chain rooted in another file.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Rule};
use crate::graph::{self, LeafKind, Site};
use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::manifest::Manifest;
use crate::parse::{self, FnItem, Mention, Region};

/// Parsed `mmr-lint: allow(RULE, reason="...")` annotation.
#[derive(Debug)]
pub(crate) struct Allow {
    rule: Rule,
    /// Source line the annotation suppresses diagnostics on.
    target_line: u32,
    /// Line the annotation itself sits on (for L-UNUSED reporting).
    own_line: u32,
    used: bool,
}

/// One file's analysis, before the workspace-level pass.
pub(crate) struct FileAnalysis {
    path: String,
    /// Direct-rule findings, pre-allow-application.
    raw: Vec<Diagnostic>,
    /// Findings that no allow can suppress (L-REASON).
    fixed: Vec<Diagnostic>,
    allows: Vec<Allow>,
    fns: Vec<FnItem>,
    sites: Vec<Vec<Site>>,
    /// Struct field types declared in this file, for receiver resolution.
    fields: Vec<(String, String, String)>,
    /// Type aliases declared in this file, as `(alias, type)`.
    aliases: Vec<(String, String)>,
    /// Fn mentions in this file's `const` / `static` items and macro bodies.
    root_mentions: Vec<Mention>,
}

/// Runs annotation parsing, item parsing, site collection, and every
/// direct (single-site) rule over one file.
pub(crate) fn analyze_file(path: &str, src: &str, manifest: &Manifest) -> FileAnalysis {
    let lexed = lex(src);
    let tokens = &lexed.tokens;

    let mut fixed: Vec<Diagnostic> = Vec::new();
    let mut allows: Vec<Allow> = Vec::new();
    let mut hot_lines: Vec<u32> = Vec::new();

    // Pass 1: interpret annotation comments.
    for c in &lexed.comments {
        parse_annotations(c, tokens, &mut allows, &mut hot_lines, &mut fixed, path);
    }

    let test_regions = parse::find_test_regions(tokens);
    let fns = parse::parse_items(tokens, &hot_lines, &test_regions);
    let sites = graph::collect_sites(tokens, &fns);
    let hot_regions: Vec<Region> =
        fns.iter().filter(|f| f.hot).filter_map(|f| f.body).collect();
    let in_test = |i: usize| test_regions.iter().any(|r| r.contains(i));
    let in_hot = |i: usize| hot_regions.iter().any(|r| r.contains(i));

    // Pass 2: direct rules.
    let panic_free = manifest.is_panic_free(path);
    let index_free = manifest.is_index_free(path);
    let accounting = manifest.is_accounting(path);
    let time_exempt = manifest.is_time_exempt(path);

    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut push = |line: u32, rule: Rule, message: String| {
        raw.push(Diagnostic::new(path, line, rule, message));
    };

    for (i, t) in tokens.iter().enumerate() {
        if in_test(i) {
            continue;
        }

        // --- P- and A-lints: a site in its own rule's scope ---------------
        if let Some(site) = graph::site_at(tokens, i) {
            let scope = match (site.kind, site.direct) {
                (LeafKind::Panic, Rule::PIndex) => index_free.then_some("index-free module"),
                (LeafKind::Panic, _) => panic_free.then_some("panic-free module"),
                (LeafKind::Alloc, _) => in_hot(i).then_some("hot function"),
            };
            if let Some(scope) = scope {
                push(site.line, site.direct, format!("{} in {scope}", site.desc));
            }
        }

        // --- D-lints -----------------------------------------------------
        if t.kind == TokenKind::Float {
            if accounting {
                push(
                    t.line,
                    Rule::DFloat,
                    format!("float literal `{}` in integer-ledger accounting module", t.text),
                );
            }
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => {
                push(t.line, Rule::DHash, format!("use of `{}` (nondeterministic iteration order)", t.text));
            }
            "SystemTime" | "Instant" if !time_exempt => {
                push(t.line, Rule::DTime, format!("use of `std::time::{}` in simulation code", t.text));
            }
            "time" if !time_exempt && is_path_seg(tokens, i, "std") && !next_seg_is(tokens, i, "Duration") => {
                push(t.line, Rule::DTime, "use of `std::time` in simulation code".into());
            }
            "f32" | "f64" if accounting && !is_cast_suffix_context(tokens, i) => {
                push(t.line, Rule::DFloat, format!("`{}` type in integer-ledger accounting module", t.text));
            }
            _ => {}
        }
    }

    let fields = parse::parse_fields(tokens);
    let aliases = parse::parse_aliases(tokens);
    let root_mentions = parse::parse_root_mentions(tokens, &test_regions);
    FileAnalysis { path: path.to_string(), raw, fixed, allows, fns, sites, fields, aliases, root_mentions }
}

/// The workspace-level pass: builds the call graph over every analyzed
/// file, runs the interprocedural rules, applies allow-annotations
/// globally, and reports leftover allows as L-UNUSED.
pub(crate) fn finalize(
    files: Vec<FileAnalysis>,
    manifest: &Manifest,
) -> (Vec<Diagnostic>, graph::Graph) {
    let mut paths: Vec<String> = Vec::new();
    let mut raws: Vec<Vec<Diagnostic>> = Vec::new();
    let mut allows_by_file: Vec<Vec<Allow>> = Vec::new();
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut per_file = Vec::new();
    let mut fields: BTreeMap<(String, String), String> = BTreeMap::new();
    let mut aliases: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut root_mentions: Vec<Mention> = Vec::new();
    for f in files {
        paths.push(f.path.clone());
        raws.push(f.raw);
        out.extend(f.fixed);
        allows_by_file.push(f.allows);
        for (s, name, ty) in f.fields {
            fields.insert((s, name), ty);
        }
        for (alias, ty) in f.aliases {
            aliases.entry(alias).or_default().push(ty);
        }
        root_mentions.extend(f.root_mentions);
        per_file.push((f.path, f.fns, f.sites));
    }
    let g = graph::build(per_file, &fields, &aliases, &root_mentions);

    // Interprocedural rules. Callees carrying the same obligation as the
    // root are never descended into: their own direct rules (or their own
    // chains) report their problems exactly once.
    let hot: Vec<bool> = g.nodes.iter().map(|n| n.hot).collect();
    let panic_free: Vec<bool> =
        g.nodes.iter().map(|n| manifest.is_panic_free(&g.files[n.file])).collect();
    let mut trans: Vec<Diagnostic> = Vec::new();
    for (scoped, kind, rule, label) in [
        (&hot, LeafKind::Alloc, Rule::ATrans, "hot fn"),
        (&panic_free, LeafKind::Panic, Rule::PTrans, "panic-free fn"),
    ] {
        let mut exempt = |n: usize, s: &Site| {
            mark_allow(&mut allows_by_file[g.nodes[n].file], s.line, &[s.direct, rule])
        };
        trans.extend(graph::transitive_diags(&g, &|n| scoped[n], kind, rule, label, &mut exempt));
    }
    trans.extend(graph::dead_diags(&g));

    // Apply allow-annotations: direct findings against their own file's
    // allows, chain findings against the root call-site line.
    let idx_of: BTreeMap<String, usize> =
        paths.iter().enumerate().map(|(i, p)| (p.clone(), i)).collect();
    for (i, raw) in raws.into_iter().enumerate() {
        for d in raw {
            if !mark_allow(&mut allows_by_file[i], d.line, &[d.rule]) {
                out.push(d);
            }
        }
    }
    for d in trans {
        let i = idx_of[&d.file];
        if !mark_allow(&mut allows_by_file[i], d.line, &[d.rule]) {
            out.push(d);
        }
    }
    for (i, allows) in allows_by_file.iter().enumerate() {
        for a in allows {
            if !a.used {
                out.push(Diagnostic::new(
                    &paths[i],
                    a.own_line,
                    Rule::LUnused,
                    format!("allow({}) suppressed no diagnostic; remove it", a.rule.id()),
                ));
            }
        }
    }
    out.sort();
    (out, g)
}

/// Marks every allow targeting `line` with a rule in `rules` as used;
/// returns whether any matched.
fn mark_allow(allows: &mut [Allow], line: u32, rules: &[Rule]) -> bool {
    let mut any = false;
    for a in allows.iter_mut() {
        if a.target_line == line && rules.contains(&a.rule) {
            a.used = true;
            any = true;
        }
    }
    any
}

/// Parses `mmr-lint:` annotations out of one comment. Malformed annotations
/// become L-REASON diagnostics immediately.
fn parse_annotations(
    c: &Comment,
    tokens: &[Token],
    allows: &mut Vec<Allow>,
    hot_lines: &mut Vec<u32>,
    diags: &mut Vec<Diagnostic>,
    path: &str,
) {
    // Only comments that BEGIN with the marker are annotations; prose that
    // mentions `mmr-lint:` mid-sentence (docs, this linter's own source) is
    // not. The grammar is documented in DESIGN.md §7.
    let Some(rest) = c.text.strip_prefix("mmr-lint:") else { return };
    let body = rest.trim();
    if body == "hot" || body.starts_with("hot ") {
        // Marks the next `fn` (same line for trailing comments).
        hot_lines.push(c.line);
        return;
    }
    if let Some(rest) = body.strip_prefix("allow") {
        match parse_allow(rest.trim()) {
            Ok(rule) => {
                let target_line = if c.trailing {
                    c.line
                } else {
                    // Standalone comment: covers the next line holding code.
                    tokens
                        .iter()
                        .map(|t| t.line)
                        .find(|&l| l > c.line)
                        .unwrap_or(c.line)
                };
                allows.push(Allow { rule, target_line, own_line: c.line, used: false });
            }
            Err(why) => diags.push(Diagnostic::new(path, c.line, Rule::LReason, why)),
        }
    } else {
        diags.push(Diagnostic::new(
            path,
            c.line,
            Rule::LReason,
            format!("unrecognized mmr-lint annotation `{body}`; expected `hot` or `allow(RULE, reason=\"...\")`"),
        ));
    }
}

/// Parses `(RULE-ID, reason="non-empty")`. Returns the rule or a message
/// explaining the malformation.
fn parse_allow(s: &str) -> Result<Rule, String> {
    let inner = s
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(|| "allow annotation must be `allow(RULE, reason=\"...\")`".to_string())?;
    let (rule_part, reason_part) = inner
        .split_once(',')
        .ok_or_else(|| "allow annotation missing `, reason=\"...\"`".to_string())?;
    let rule = Rule::from_id(rule_part.trim())
        .ok_or_else(|| format!("unknown rule `{}` in allow annotation", rule_part.trim()))?;
    let reason = reason_part
        .trim()
        .strip_prefix("reason=")
        .ok_or_else(|| "allow annotation missing `reason=` key".to_string())?
        .trim();
    let quoted = reason
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| "allow reason must be a quoted string".to_string())?;
    if quoted.trim().is_empty() {
        return Err("allow reason must be non-empty".to_string());
    }
    Ok(rule)
}

/// Whether the `std` two tokens back makes `t` part of a `std::time` path.
fn is_path_seg(tokens: &[Token], i: usize, root: &str) -> bool {
    i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].is_ident(root)
}

/// Whether the path continues `::<seg>` after token `i`.
fn next_seg_is(tokens: &[Token], i: usize, seg: &str) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.text == "::")
        && tokens.get(i + 2).is_some_and(|t| t.is_ident(seg))
}

/// Whether an `f32`/`f64` ident is an `as` cast target or generic turbofish
/// used for *display-only* conversion — still flagged in accounting modules;
/// this hook exists so the policy is explicit and testable. Currently only
/// exempts `size_of::<f64>()`-style metadata queries.
fn is_cast_suffix_context(tokens: &[Token], i: usize) -> bool {
    // `size_of::<f64>` / `align_of::<f64>`
    i >= 3
        && tokens[i - 1].text == "<"
        && tokens[i - 2].text == "::"
        && tokens
            .get(i - 3)
            .is_some_and(|t| t.is_ident("size_of") || t.is_ident("align_of"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lints one file as a one-file workspace.
    fn check_file(path: &str, src: &str, manifest: &Manifest) -> Vec<Diagnostic> {
        finalize(vec![analyze_file(path, src, manifest)], manifest).0
    }

    fn manifest_all(path: &str) -> Manifest {
        Manifest::parse(&format!(
            "[panic_free]\nmodules = [\"{path}\"]\n[index_free]\nmodules = [\"{path}\"]\n[accounting]\nmodules = [\"{path}\"]\n"
        ))
        .expect("manifest parses")
    }

    fn run(src: &str) -> Vec<String> {
        let m = manifest_all("a.rs");
        check_file("a.rs", src, &m).iter().map(|d| d.render()).collect()
    }

    #[test]
    fn unwrap_flagged_only_outside_tests() {
        let out = run("fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod t { fn g(x: Option<u8>) { x.unwrap(); } }");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("P-UNWRAP"));
        assert!(out[0].starts_with("a.rs:1:"));
    }

    #[test]
    fn unwrap_or_not_flagged() {
        assert!(run("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses() {
        let out = run("fn f(x: Option<u8>) -> u8 { x.unwrap() } // mmr-lint: allow(P-UNWRAP, reason=\"test scaffold\")");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let out = run("// mmr-lint: allow(P-UNWRAP, reason=\"demo\")\nfn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn allow_without_reason_is_l_reason() {
        let out = run("fn f(x: Option<u8>) -> u8 { x.unwrap() } // mmr-lint: allow(P-UNWRAP)");
        assert!(out.iter().any(|d| d.contains("L-REASON")), "{out:?}");
        assert!(out.iter().any(|d| d.contains("P-UNWRAP")), "{out:?}");
    }

    #[test]
    fn stale_allow_is_l_unused() {
        let out = run("fn f() {} // mmr-lint: allow(P-UNWRAP, reason=\"gone\")");
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("L-UNUSED"));
    }

    #[test]
    fn hot_function_allocation_flagged() {
        let src = "// mmr-lint: hot\nfn step(&mut self) { let v = Vec::new(); self.buf.push(1); }\nfn cold(&mut self) { let v = Vec::new(); }";
        let out = run(src);
        assert!(out.iter().any(|d| d.contains("A-ALLOC") && d.contains(":2:")), "{out:?}");
        assert!(out.iter().any(|d| d.contains("A-PUSH") && d.contains(":2:")), "{out:?}");
        assert!(!out.iter().any(|d| d.contains(":3:")), "{out:?}");
    }

    #[test]
    fn indexing_heuristic() {
        let out = run("fn f(xs: &[u8], i: usize) -> u8 { xs[i] }");
        assert!(out.iter().any(|d| d.contains("P-INDEX")), "{out:?}");
        // Attribute and array-type brackets are not index expressions.
        let out = run("#[derive(Clone)]\nstruct S { a: [u8; 4] }");
        assert!(!out.iter().any(|d| d.contains("P-INDEX")), "{out:?}");
    }

    #[test]
    fn float_in_accounting() {
        let out = run("fn f() -> f64 { 1.5 }");
        assert!(out.iter().any(|d| d.contains("D-FLOAT") && d.contains("f64")), "{out:?}");
        assert!(out.iter().any(|d| d.contains("D-FLOAT") && d.contains("1.5")), "{out:?}");
    }

    #[test]
    fn hash_and_time_and_rng() {
        // No RNG name is a finding: the workspace's one RNG takes a seed to
        // construct, so a seed-free one cannot be written.
        let out = run("use std::collections::HashMap;\nfn f() { let t = std::time::Instant::now(); }\nfn g() { let r = thread_rng(); }");
        assert!(out.iter().any(|d| d.starts_with("a.rs:1: D-HASH")), "{out:?}");
        assert!(out.iter().any(|d| d.starts_with("a.rs:2: D-TIME")), "{out:?}");
        assert!(!out.iter().any(|d| d.starts_with("a.rs:3:")), "{out:?}");
    }

    #[test]
    fn duration_alone_is_not_flagged() {
        let out = run("use std::time::Duration;\nfn f(d: Duration) {}");
        assert!(!out.iter().any(|d| d.contains("D-TIME")), "{out:?}");
    }

    #[test]
    fn debug_assert_is_fine_but_assert_is_not() {
        let out = run("fn f(x: u8) { debug_assert!(x > 0); assert!(x > 0); }");
        let panics: Vec<_> = out.iter().filter(|d| d.contains("P-PANIC")).collect();
        assert_eq!(panics.len(), 1, "{out:?}");
    }

    #[test]
    fn trigger_words_in_strings_and_comments_ignored() {
        let out = run("// HashMap unwrap panic!\nfn f() { let s = \"Instant::now() .unwrap()\"; }");
        assert!(out.is_empty(), "{out:?}");
    }

    // The next three tests keep the names they had under the old hash-order
    // iteration rule (D-ITER). D-HASH subsumes it: every such iteration
    // depends on a hash binding, and D-HASH fires on that binding.

    /// The D-HASH findings of `src`, as line numbers.
    fn d_hash_lines(src: &str) -> Vec<u32> {
        let out = check_file("a.rs", src, &Manifest::default());
        out.iter().filter(|d| d.rule == Rule::DHash).map(|d| d.line).collect()
    }

    #[test]
    fn hash_iteration_is_d_iter() {
        let lines = d_hash_lines("fn f(m: &HashMap<u32, u32>) { for (k, v) in m.iter() { use_it(k, v); } }");
        assert!(lines.contains(&1), "{lines:?}");
        let lines = d_hash_lines("fn g() { let mut s = HashSet::new(); for x in s { touch(x); } }");
        assert!(lines.contains(&1), "{lines:?}");
    }

    #[test]
    fn hashy_name_in_one_fn_does_not_taint_another_fn() {
        let lines = d_hash_lines(
            "fn f() { let mut m = HashMap::new(); for k in m.keys() { touch(k); } }\n\
             fn g() { let mut m = BTreeMap::new(); for k in m.keys() { touch(k); } }",
        );
        assert_eq!(lines, vec![1]);
    }

    #[test]
    fn file_scope_hashy_binding_taints_all_fns() {
        let lines = d_hash_lines(
            "struct S { m: HashMap<u32, u32> }\n\
             fn f(s: &S) { for k in s.m.keys() { touch(k); } }",
        );
        assert!(lines.contains(&1), "{lines:?}");
    }

    // --- v2: transitive rules --------------------------------------------

    #[test]
    fn hot_fn_transitive_allocation_is_a_trans() {
        let out = run(
            "// mmr-lint: hot\nfn step() { helper(); }\nfn helper() { deeper(); }\nfn deeper() { let v = Vec::new(); }",
        );
        let chain: Vec<&String> = out.iter().filter(|d| d.contains("A-TRANS")).collect();
        assert_eq!(chain.len(), 1, "{out:?}");
        assert!(chain[0].starts_with("a.rs:2:"), "{chain:?}");
        assert!(chain[0].contains("step -> helper -> deeper"), "{chain:?}");
    }

    #[test]
    fn p_trans_reports_cross_file_chains() {
        let m = Manifest::parse("[panic_free]\nmodules = [\"router.rs\"]").expect("manifest");
        let a = analyze_file("router.rs", "fn step(x: Option<u8>) -> u8 { decode(x) }", &m);
        let b = analyze_file("util.rs", "fn decode(x: Option<u8>) -> u8 { x.unwrap() }", &m);
        let (diags, _) = finalize(vec![a, b], &m);
        let out: Vec<String> = diags.iter().map(|d| d.render()).collect();
        assert!(
            out.iter().any(|d| d.contains("P-TRANS")
                && d.starts_with("router.rs:1:")
                && d.contains("step -> decode")),
            "{out:?}"
        );
    }

    #[test]
    fn leaf_allow_exempts_the_chain_and_counts_as_used() {
        let m = Manifest::parse("[panic_free]\nmodules = [\"router.rs\"]").expect("manifest");
        let a = analyze_file("router.rs", "fn step(x: Option<u8>) -> u8 { decode(x) }", &m);
        let b = analyze_file(
            "util.rs",
            "fn decode(x: Option<u8>) -> u8 { x.unwrap() } // mmr-lint: allow(P-UNWRAP, reason=\"caller validates\")",
            &m,
        );
        let (diags, _) = finalize(vec![a, b], &m);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn callees_in_panic_free_files_are_not_re_reported() {
        // Both files designated: the callee's own direct P-UNWRAP covers it;
        // no chain is reported on top.
        let m =
            Manifest::parse("[panic_free]\nmodules = [\"router.rs\", \"util.rs\"]").expect("m");
        let a = analyze_file("router.rs", "fn step(x: Option<u8>) -> u8 { decode(x) }", &m);
        let b = analyze_file("util.rs", "fn decode(x: Option<u8>) -> u8 { x.unwrap() }", &m);
        let (diags, _) = finalize(vec![a, b], &m);
        let out: Vec<String> = diags.iter().map(|d| d.render()).collect();
        assert!(!out.iter().any(|d| d.contains("P-TRANS")), "{out:?}");
        assert!(out.iter().any(|d| d.contains("P-UNWRAP")), "{out:?}");
    }
}
