//! Item-level parsing on top of the token stream: `fn` items, `impl`
//! blocks, and the call/method-call expressions inside each function body.
//!
//! This is deliberately **not** a full Rust parser. It recovers exactly the
//! structure the interprocedural rules need — which function a token
//! belongs to, which type an `impl` block targets, and which names a body
//! calls — by brace/paren/angle matching over the lexer's token stream.
//! Known over-approximations (documented in DESIGN.md §7): method calls
//! resolve by name across all first-party impls (no trait dispatch, no
//! receiver type inference except a literal `self.` receiver), and module
//! paths collapse to their final segment.

use crate::lexer::Token;

/// Half-open token-index range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First token index covered.
    pub start: usize,
    /// One past the last token index covered.
    pub end: usize,
}

impl Region {
    /// Whether token index `i` falls inside the region.
    pub fn contains(&self, i: usize) -> bool {
        i >= self.start && i < self.end
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// `foo(..)` or `path::foo(..)` through a lowercase qualifier.
    Free(String),
    /// `Type::method(..)` (uppercase qualifier; `Self` resolves to the
    /// caller's impl type).
    Qualified(String, String),
    /// `self.method(..)` — resolved against the caller's impl type first.
    SelfMethod(String),
    /// `base.field….method(..)` — the receiver is a dotted path of plain
    /// identifiers rooted at `self` or a named local/param, resolved
    /// through declared variable and struct-field types.
    PathMethod(Vec<String>, String),
    /// `expr.method(..)` with an untypeable receiver — resolved by name
    /// across the caller's own crate (the documented over-approximation).
    Method(String),
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Who is (or may be) called.
    pub callee: Callee,
    /// 1-based source line of the call.
    pub line: u32,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` target type when the fn sits inside an impl block.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token range of the body including braces; `None` for body-less
    /// declarations (trait methods, extern fns).
    pub body: Option<Region>,
    /// Whether the fn is annotated `// mmr-lint: hot`.
    pub hot: bool,
    /// Whether the fn sits inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: bool,
    /// Call expressions in the body, excluding nested fns' bodies.
    pub calls: Vec<CallSite>,
    /// Declared variable types visible in the body: params plus annotated
    /// or constructor-initialized `let` bindings, as
    /// `(name, type-final-segment)` in declaration order.
    pub vars: Vec<(String, String)>,
}

impl FnItem {
    /// Display name: `Type::name` for methods, `name` for free fns.
    pub fn display(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Parses the fn items of one file. `hot_lines` are the source lines of
/// `// mmr-lint: hot` annotations (each marks the next `fn` at or below
/// it, matching the engine's hot-region rule); `test_regions` are the
/// `#[cfg(test)]` token regions.
pub fn parse_items(tokens: &[Token], hot_lines: &[u32], test_regions: &[Region]) -> Vec<FnItem> {
    let impls = find_impl_regions(tokens);
    let mut fns = find_fn_items(tokens, &impls, test_regions);
    mark_hot(tokens, &mut fns, hot_lines);
    extract_calls(tokens, &mut fns);
    for f in &mut fns {
        f.vars = parse_vars(tokens, f.start, f.body);
    }
    fns
}

/// Given `#` at `i` opening an attribute, returns the index one past its `]`.
pub(crate) fn skip_attribute(tokens: &[Token], i: usize) -> usize {
    let mut depth = 1u32;
    let mut j = i + 2;
    while j < tokens.len() && depth > 0 {
        if tokens[j].is_punct('[') {
            depth += 1;
        } else if tokens[j].is_punct(']') {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Collects struct field types from one file as
/// `(struct, field, type-final-segment)` triples. Feeds receiver-type
/// resolution for `self.field.method(..)` calls.
pub fn parse_fields(tokens: &[Token]) -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("struct")
            && tokens.get(i + 1).is_some_and(|t| t.kind == crate::lexer::TokenKind::Ident)
        {
            let name = tokens[i + 1].text.clone();
            let mut j = i + 2;
            if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_angles(tokens, j);
            }
            // Tuple structs (`(`) and unit structs (`;`) carry no named
            // fields we can resolve through.
            if tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                let end = skip_item(tokens, j);
                let mut depth = 0i32;
                let mut k = j;
                while k < end.min(tokens.len()) {
                    let t = &tokens[k];
                    if t.is_punct('{') {
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                    } else if depth == 1
                        && t.kind == crate::lexer::TokenKind::Ident
                        && tokens.get(k + 1).is_some_and(|n| n.is_punct(':'))
                    {
                        let prev = k.checked_sub(1).and_then(|p| tokens.get(p));
                        let field_pos = prev.is_some_and(|p| {
                            p.is_punct('{') || p.is_punct(',') || p.is_punct(')') || p.is_ident("pub")
                        });
                        if field_pos {
                            let (ty, after) = read_type_path(tokens, k + 2);
                            if !ty.is_empty() {
                                out.push((name.clone(), t.text.clone(), ty));
                            }
                            k = after;
                            continue;
                        }
                    }
                    k += 1;
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Collects `(name, type)` pairs for a fn's params and its annotated or
/// constructor-initialized `let` bindings. Types collapse to their final
/// path segment with generics stripped (`&mut Vec<Flit>` → `Vec`).
fn parse_vars(tokens: &[Token], fn_start: usize, body: Option<Region>) -> Vec<(String, String)> {
    let mut out = Vec::new();
    // Params: between the signature's outer parens at depth 1.
    let sig_end = body.map_or(tokens.len(), |b| b.start);
    let mut i = fn_start;
    while i < sig_end && !tokens[i].is_punct('(') {
        i += 1;
    }
    let mut depth = 0i32;
    while i < sig_end {
        let t = &tokens[i];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1
            && t.kind == crate::lexer::TokenKind::Ident
            && !t.is_ident("self")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct(':'))
        {
            let (ty, after) = read_type_path(tokens, i + 2);
            if !ty.is_empty() {
                out.push((t.text.clone(), ty));
            }
            i = after;
            continue;
        }
        i += 1;
    }
    // Lets inside the body.
    let Some(b) = body else { return out };
    let mut i = b.start;
    while i < b.end.min(tokens.len()) {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = tokens.get(j) else { break };
            if name_tok.kind == crate::lexer::TokenKind::Ident && !is_expr_keyword(&name_tok.text)
            {
                let name = name_tok.text.clone();
                if tokens.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                    // `let name: Type = ..`
                    let (ty, after) = read_type_path(tokens, j + 2);
                    if !ty.is_empty() {
                        out.push((name, ty));
                    }
                    i = after;
                    continue;
                }
                if tokens.get(j + 1).is_some_and(|t| t.is_punct('=')) {
                    // `let name = Type::ctor(..)` / `let name = Type { .. }`:
                    // the last uppercase-initial path segment is the type.
                    let mut k = j + 2;
                    let mut ty = None;
                    while let Some(t) = tokens.get(k) {
                        if t.kind == crate::lexer::TokenKind::Ident {
                            if t.text.chars().next().is_some_and(char::is_uppercase) {
                                ty = Some(t.text.clone());
                            }
                            k += 1;
                            if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
                                k = skip_angles(tokens, k);
                            }
                            if tokens.get(k).is_some_and(|t| t.text == "::") {
                                k += 1;
                                continue;
                            }
                        }
                        break;
                    }
                    let ctor_pos = tokens.get(k).is_some_and(|t| {
                        t.is_punct('(') || t.is_punct('{')
                    });
                    if let (Some(ty), true) = (ty, ctor_pos) {
                        out.push((name, ty));
                    }
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Finds `#[cfg(test)]` / `#[test]` regions: the attribute plus the item it
/// annotates (brace-matched, or up to `;` for brace-less items). A file that
/// opens with `#![cfg(test)]` — a test module in a file of its own — is one
/// region from end to end.
pub fn find_test_regions(tokens: &[Token]) -> Vec<Region> {
    if let [hash, bang, open, rest @ ..] = tokens {
        let attr = rest.iter().take_while(|t| !t.is_punct(']'));
        if hash.is_punct('#') && bang.is_punct('!') && open.is_punct('[')
            && attr.into_iter().any(|t| t.is_ident("test"))
        {
            return vec![Region { start: 0, end: tokens.len() }];
        }
    }
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Scan the attribute body for `test` / `cfg(..test..)`.
            let j = skip_attribute(tokens, i);
            if tokens[i..j].iter().any(|t| t.is_ident("test") || t.is_ident("tests")) {
                // Skip any further attributes, then the item itself.
                let mut k = j;
                while k < tokens.len()
                    && tokens[k].is_punct('#')
                    && tokens.get(k + 1).is_some_and(|t| t.is_punct('['))
                {
                    k = skip_attribute(tokens, k);
                }
                let end = skip_item(tokens, k);
                regions.push(Region { start: i, end });
                i = end;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Given the first token of an item, returns the index one past its end:
/// past the matching `}` of its first brace at depth 0, or past the first
/// top-level `;` for brace-less items (`use`, `type`, …). A `}` met first
/// closes the enclosing block, so a struct's last field or a struct
/// literal's last initialiser ends there, not at the next item.
pub fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    let mut paren = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct(';') && paren <= 0 {
            return i + 1;
        } else if t.is_punct('}') && paren <= 0 {
            return i;
        } else if t.is_punct('{') && paren <= 0 {
            let mut depth = 1i32;
            i += 1;
            while i < tokens.len() && depth > 0 {
                if tokens[i].is_punct('{') {
                    depth += 1;
                } else if tokens[i].is_punct('}') {
                    depth -= 1;
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

/// One `impl` block: its target type and brace-matched body region.
struct ImplRegion {
    ty: String,
    body: Region,
}

/// Whether the `impl` at `i` begins an impl item (as opposed to an
/// `impl Trait` type position such as `-> impl Iterator` or
/// `(impl Fn(..))`). Item position follows nothing, `}`, `;`, `]` (an
/// attribute), or `{` (module body).
fn is_item_impl(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|j| tokens.get(j)) {
        None => true,
        Some(p) => p.is_punct('}') || p.is_punct(';') || p.is_punct(']') || p.is_punct('{'),
    }
}

/// Skips a generic-argument list starting at `<`, honoring `->` arrows
/// whose `>` must not count as a closer. Returns the index one past the
/// matching `>`.
fn skip_angles(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = i > 0 && tokens[i - 1].is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    i
}

/// Reads a type path (`a::b::Type<..>`) starting at `i`; returns the final
/// segment and the index one past the path.
fn read_type_path(tokens: &[Token], mut i: usize) -> (String, usize) {
    // Skip reference/pointer sigils.
    while tokens
        .get(i)
        .is_some_and(|t| t.is_punct('&') || t.is_punct('*') || t.is_ident("mut") || t.is_ident("const") || t.is_ident("dyn"))
    {
        i += 1;
    }
    let mut last = String::new();
    while let Some(t) = tokens.get(i) {
        if t.kind == crate::lexer::TokenKind::Ident {
            last = t.text.clone();
            i += 1;
            if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
                i = skip_angles(tokens, i);
            }
            if tokens.get(i).is_some_and(|t| t.text == "::") {
                i += 1;
                continue;
            }
        }
        break;
    }
    (last, i)
}

/// Finds every `impl` block and its target type. `impl Trait for Type`
/// records `Type`; `impl Type` records `Type`.
fn find_impl_regions(tokens: &[Token]) -> Vec<ImplRegion> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") && is_item_impl(tokens, i) {
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|t| t.is_punct('<')) {
                j = skip_angles(tokens, j);
            }
            let (first_ty, after) = read_type_path(tokens, j);
            let mut ty = first_ty;
            let mut k = after;
            if tokens.get(k).is_some_and(|t| t.is_ident("for")) {
                let (target, after_for) = read_type_path(tokens, k + 1);
                ty = target;
                k = after_for;
            }
            // Skip the where clause (if any) to the body `{`.
            while k < tokens.len() && !tokens[k].is_punct('{') {
                k += 1;
            }
            if k < tokens.len() && !ty.is_empty() {
                let end = skip_item(tokens, k);
                out.push(ImplRegion { ty, body: Region { start: k, end } });
                i = k + 1; // descend: nested items stay inside the region
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Finds every `fn` item, resolving its impl type and body region.
fn find_fn_items(
    tokens: &[Token],
    impls: &[ImplRegion],
    test_regions: &[Region],
) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let Some(name_tok) = tokens.get(i + 1) else {
                break;
            };
            if name_tok.kind != crate::lexer::TokenKind::Ident {
                i += 1;
                continue;
            }
            // Innermost impl region containing this fn wins.
            let self_ty = impls
                .iter()
                .filter(|r| r.body.contains(i))
                .min_by_key(|r| r.body.end - r.body.start)
                .map(|r| r.ty.clone());
            let body = find_fn_body(tokens, i + 2);
            out.push(FnItem {
                name: name_tok.text.clone(),
                self_ty,
                line: tokens[i].line,
                start: i,
                body,
                hot: false,
                in_test: test_regions.iter().any(|r| r.contains(i)),
                calls: Vec::new(),
                vars: Vec::new(),
            });
        }
        i += 1;
    }
    out
}

/// Scans a fn signature from just past the name to the body `{` (or `;`
/// for body-less declarations) and brace-matches the body.
fn find_fn_body(tokens: &[Token], mut i: usize) -> Option<Region> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            // `->` return arrows must not close a generic list.
            if !(i > 0 && tokens[i - 1].is_punct('-')) {
                angle = (angle - 1).max(0);
            }
        } else if t.is_punct(';') && paren <= 0 && bracket <= 0 {
            return None;
        } else if t.is_punct('{') && paren <= 0 && bracket <= 0 && angle <= 0 {
            let end = skip_item(tokens, i);
            return Some(Region { start: i, end });
        }
        i += 1;
    }
    None
}

/// Marks hot fns: each annotation line marks the first `fn` whose keyword
/// sits at or below it (same rule the engine uses for hot regions).
fn mark_hot(tokens: &[Token], fns: &mut [FnItem], hot_lines: &[u32]) {
    for &line in hot_lines {
        if let Some(f) = fns
            .iter_mut()
            .filter(|f| tokens[f.start].line >= line)
            .min_by_key(|f| f.start)
        {
            f.hot = true;
        }
    }
}

/// Keywords that look like call syntax but are not calls.
fn is_expr_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while" | "match" | "for" | "loop" | "return" | "fn" | "in" | "as" | "let"
            | "mut" | "ref" | "move" | "else" | "await" | "box" | "unsafe" | "where" | "use"
            | "pub" | "crate" | "super" | "mod" | "impl" | "dyn" | "const" | "static" | "type"
    )
}

/// Extracts call sites from every fn body, attributing each to the
/// innermost enclosing fn (so nested fns own their calls). Attribute
/// bodies `#[...]` are skipped.
fn extract_calls(tokens: &[Token], fns: &mut [FnItem]) {
    // Sort fn indices so the innermost (latest-starting) body wins lookup.
    let mut order: Vec<usize> = (0..fns.len()).collect();
    order.sort_by_key(|&k| fns[k].start);
    let owner_of = |i: usize, fns: &[FnItem]| -> Option<usize> {
        order
            .iter()
            .copied()
            .filter(|&k| fns[k].body.is_some_and(|b| b.contains(i)))
            .max_by_key(|&k| fns[k].start)
    };

    let mut i = 0;
    while i < tokens.len() {
        // Skip attributes wholesale: `derive(..)`, `cfg(..)` are not calls.
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i = skip_attribute(tokens, i);
            continue;
        }
        if let Some(site) = call_at(tokens, i) {
            if let Some(owner) = owner_of(i, fns) {
                if !fns[owner].in_test {
                    fns[owner].calls.push(site);
                }
            }
        }
        i += 1;
    }
}

/// Recognizes a call expression whose callee name sits at token `i`.
fn call_at(tokens: &[Token], i: usize) -> Option<CallSite> {
    let t = &tokens[i];
    if t.kind != crate::lexer::TokenKind::Ident || is_expr_keyword(&t.text) {
        return None;
    }
    // The callee name must be followed by `(`, optionally through a
    // turbofish `::<..>`.
    let mut after = i + 1;
    if tokens.get(after).is_some_and(|n| n.text == "::")
        && tokens.get(after + 1).is_some_and(|n| n.is_punct('<'))
    {
        after = skip_angles(tokens, after + 1);
    }
    if !tokens.get(after).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
    // `fn name(` is a declaration, not a call.
    if prev.is_some_and(|p| p.is_ident("fn")) {
        return None;
    }
    let line = t.line;
    let name = t.text.clone();
    if prev.is_some_and(|p| p.is_punct('.')) {
        // Walk the dotted receiver path back: `base.f1.f2.method(` yields
        // segments [base, f1, f2] when every hop is a plain identifier.
        let mut segs: Vec<String> = Vec::new();
        let mut dot = i - 1; // index of the `.` before the method name
        loop {
            let Some(seg_idx) = dot.checked_sub(1) else {
                segs.clear();
                break;
            };
            let seg = &tokens[seg_idx];
            if seg.kind != crate::lexer::TokenKind::Ident || is_expr_keyword(&seg.text) {
                // `).method(`, `].method(`, `.0.method(`, `}.method(` —
                // untypeable receiver.
                if !seg.is_ident("self") {
                    segs.clear();
                    break;
                }
            }
            segs.push(seg.text.clone());
            match seg_idx.checked_sub(1).and_then(|j| tokens.get(j)) {
                Some(p) if p.is_punct('.') => dot = seg_idx - 1,
                // `Enum::VARIANT.method(` — qualified receiver, untypeable.
                Some(p) if p.text == "::" => {
                    segs.clear();
                    break;
                }
                _ => break,
            }
        }
        segs.reverse();
        if segs.len() == 1 && segs[0] == "self" {
            return Some(CallSite { callee: Callee::SelfMethod(name), line });
        }
        if !segs.is_empty() {
            return Some(CallSite { callee: Callee::PathMethod(segs, name), line });
        }
        return Some(CallSite { callee: Callee::Method(name), line });
    }
    if prev.is_some_and(|p| p.text == "::") {
        let qual = i.checked_sub(2).and_then(|j| tokens.get(j));
        if let Some(q) = qual {
            if q.kind == crate::lexer::TokenKind::Ident
                && q.text.chars().next().is_some_and(char::is_uppercase)
            {
                return Some(CallSite { callee: Callee::Qualified(q.text.clone(), name), line });
            }
            // Generic qualifier `Vec::<u8>::new` — the qualifier is `>`;
            // walk back over the turbofish to the type name.
            if q.is_punct('>') {
                return None; // rare; skip rather than mis-resolve
            }
        }
        // Module-qualified free call (`mem::swap`, `self::helper`).
        return Some(CallSite { callee: Callee::Free(name), line });
    }
    // Plain `name(..)`: tuple-struct/variant constructors start uppercase
    // and are not calls we track; macros are `name!(..)` and never reach
    // here (the `!` breaks the `(` adjacency).
    if name.chars().next().is_some_and(char::is_uppercase) {
        return None;
    }
    Some(CallSite { callee: Callee::Free(name), line })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        let lexed = lex(src);
        let tests = find_test_regions(&lexed.tokens);
        parse_items(&lexed.tokens, &[], &tests)
    }

    #[test]
    fn finds_free_and_impl_fns() {
        let fns = parse("fn a() {}\nstruct S;\nimpl S { fn b(&self) {} }\nimpl Clone for S { fn clone(&self) -> S { S } }");
        let names: Vec<String> = fns.iter().map(FnItem::display).collect();
        assert_eq!(names, vec!["a", "S::b", "S::clone"]);
    }

    #[test]
    fn impl_with_generics_and_paths() {
        let fns = parse("impl<T: Copy> Wrapper<T> { fn get(&self) -> T { self.0 } }\nimpl fmt::Display for Id { fn fmt(&self) {} }");
        let names: Vec<String> = fns.iter().map(FnItem::display).collect();
        assert_eq!(names, vec!["Wrapper::get", "Id::fmt"]);
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let fns = parse("fn make() -> impl Iterator<Item = u8> { [1u8].into_iter() }\nfn after() {}");
        assert_eq!(fns.len(), 2);
        assert!(fns.iter().all(|f| f.self_ty.is_none()));
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn call_kinds_are_classified() {
        let fns =
            parse("fn f(&self) { helper(); self.step(); other.run(); Flit::new(); mem::swap(a, b); }");
        let calls = &fns[0].calls;
        assert_eq!(calls.len(), 5, "{calls:?}");
        assert_eq!(calls[0].callee, Callee::Free("helper".into()));
        assert_eq!(calls[1].callee, Callee::SelfMethod("step".into()));
        assert_eq!(calls[2].callee, Callee::PathMethod(vec!["other".into()], "run".into()));
        assert_eq!(calls[3].callee, Callee::Qualified("Flit".into(), "new".into()));
        assert_eq!(calls[4].callee, Callee::Free("swap".into()));
    }

    #[test]
    fn constructors_macros_and_keywords_are_not_calls() {
        let fns = parse("fn f() { if (x) {} ; let s = Some(1); vec!(1); #[cfg(feature = \"x\")] g(); }");
        let calls = &fns[0].calls;
        assert_eq!(calls.len(), 1, "{calls:?}");
        assert_eq!(calls[0].callee, Callee::Free("g".into()));
    }

    #[test]
    fn turbofish_methods_are_calls() {
        let fns = parse("fn f(v: &[u8]) { v.iter().collect::<Vec<_>>(); }");
        let names: Vec<&Callee> = fns[0].calls.iter().map(|c| &c.callee).collect();
        assert!(names.contains(&&Callee::Method("collect".into())), "{names:?}");
    }

    #[test]
    fn test_fns_do_not_record_calls() {
        let fns = parse("fn live() { helper(); }\n#[cfg(test)]\nmod t { fn dead() { helper(); } }");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].calls.len(), 1);
        assert!(fns[1].in_test);
        assert!(fns[1].calls.is_empty());
    }

    #[test]
    fn a_test_field_ends_with_its_struct() {
        let fns = parse("struct S {\n    #[cfg(test)]\n    t: (u8, u8),\n}\nimpl S { fn live(&self) {} }");
        assert!(!fns[0].in_test, "{fns:?}");
    }

    #[test]
    fn a_file_level_test_module_is_one_test_region() {
        let fns = parse("#![cfg(test)]\nfn helper() { x.unwrap(); }\n#[test]\nfn t() { helper(); }");
        assert!(fns.iter().all(|f| f.in_test), "{fns:?}");
        let fns = parse("#![allow(dead_code)]\nfn live() { helper(); }");
        assert!(!fns[0].in_test, "other inner attributes designate nothing");
    }

    #[test]
    fn nested_fn_owns_its_calls() {
        let fns = parse("fn outer() { fn inner() { leaf(); } inner(); }");
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer");
        let inner = fns.iter().find(|f| f.name == "inner").expect("inner");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, Callee::Free("inner".into()));
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].callee, Callee::Free("leaf".into()));
    }

    #[test]
    fn where_clauses_and_complex_returns_parse() {
        let fns = parse(
            "fn apply<F>(f: F) -> Vec<u8> where F: Fn(u8) -> bool { run(f) }\nfn next() {}",
        );
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_some());
        assert_eq!(fns[0].calls.len(), 1);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let fns = parse("trait T { fn required(&self); fn provided(&self) { self.required(); } }");
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn hot_annotation_marks_the_next_fn() {
        let lexed = lex("// mmr-lint: hot\nfn fast() {}\nfn slow() {}");
        let fns = parse_items(&lexed.tokens, &[1], &[]);
        assert!(fns[0].hot);
        assert!(!fns[1].hot);
    }
}
