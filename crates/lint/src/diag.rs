//! Diagnostics: rule IDs, findings, and deterministic rendering.

use std::fmt;

/// Every rule the linter knows. The discriminant order defines the sort
/// order of same-line diagnostics, so output is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// HashMap/HashSet in first-party code (iteration order feeds stats).
    DHash,
    /// std::time / SystemTime / Instant in simulation crates.
    DTime,
    /// Float literals/types in integer-ledger accounting modules.
    DFloat,
    /// `.unwrap()` in a panic-free module.
    PUnwrap,
    /// `.expect(..)` in a panic-free module.
    PExpect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert!`
    /// family in a panic-free module.
    PPanic,
    /// Bare slice indexing `x[i]` in an index-free module.
    PIndex,
    /// A function in a panic-free module transitively reaches a panicking
    /// site (`unwrap`/`expect`/`panic!`/bare indexing) in a first-party
    /// callee outside the designated modules.
    PTrans,
    /// Allocating constructor (`Vec::new`, `Box::new`, `vec!`, `format!`,
    /// `to_vec`, `collect`, `clone` of owned containers…) in a hot function.
    AAlloc,
    /// `.push(..)` / `.insert(..)` growth calls in a hot function.
    APush,
    /// A `// mmr-lint: hot` function transitively reaches an allocating
    /// site in a first-party callee.
    ATrans,
    /// A library fn that no entry point reaches over the call graph.
    UDead,
    /// An `mmr-lint: allow(...)` annotation that is malformed or carries no
    /// non-empty `reason=`.
    LReason,
    /// An allow annotation that suppressed nothing (stale escape hatch).
    LUnused,
}

/// All rules, in ID order. The fixture meta-test iterates this.
pub const ALL_RULES: [Rule; 14] = [
    Rule::DHash,
    Rule::DTime,
    Rule::DFloat,
    Rule::PUnwrap,
    Rule::PExpect,
    Rule::PPanic,
    Rule::PIndex,
    Rule::PTrans,
    Rule::AAlloc,
    Rule::APush,
    Rule::ATrans,
    Rule::UDead,
    Rule::LReason,
    Rule::LUnused,
];

impl Rule {
    /// Stable ID as written in annotations and printed in diagnostics.
    pub fn id(self) -> &'static str {
        match self {
            Rule::DHash => "D-HASH",
            Rule::DTime => "D-TIME",
            Rule::DFloat => "D-FLOAT",
            Rule::PUnwrap => "P-UNWRAP",
            Rule::PExpect => "P-EXPECT",
            Rule::PPanic => "P-PANIC",
            Rule::PIndex => "P-INDEX",
            Rule::PTrans => "P-TRANS",
            Rule::AAlloc => "A-ALLOC",
            Rule::APush => "A-PUSH",
            Rule::ATrans => "A-TRANS",
            Rule::UDead => "U-DEAD",
            Rule::LReason => "L-REASON",
            Rule::LUnused => "L-UNUSED",
        }
    }

    /// One-line description for `--list-rules` and the docs table.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::DHash => "HashMap/HashSet in first-party code: iteration order is nondeterministic and can reach stats or serialized output; use BTreeMap/BTreeSet or sorted iteration",
            Rule::DTime => "std::time (SystemTime/Instant/Duration clocks) in simulation code: wall-clock reads break byte-identical sweeps; simulated time must come from flit-cycle counters",
            Rule::DFloat => "float literal or f32/f64 type in an integer-ledger accounting module: credit/quota arithmetic must stay exact",
            Rule::PUnwrap => ".unwrap() in a designated panic-free module: convert to a typed error, audited counter, or graceful skip",
            Rule::PExpect => ".expect(..) in a designated panic-free module: convert to a typed error, audited counter, or graceful skip",
            Rule::PPanic => "panic!/unreachable!/todo!/unimplemented!/assert! in a designated panic-free module",
            Rule::PIndex => "bare slice indexing x[i] in a designated index-free module: use get()/get_mut() and handle None",
            Rule::PTrans => "function in a [panic_free] module transitively reaches unwrap/expect/panic!/bare indexing in a first-party callee outside the designated modules (call chain reported)",
            Rule::AAlloc => "allocating call (Vec::new, vec!, format!, Box::new, to_vec, collect, String::new, with_capacity) inside a `// mmr-lint: hot` function",
            Rule::APush => "growth call (.push/.insert/.extend/.resize) inside a `// mmr-lint: hot` function: may reallocate; reuse preallocated buffers and annotate amortized cases",
            Rule::ATrans => "`// mmr-lint: hot` function transitively reaches an allocating call in a first-party callee (call chain reported)",
            Rule::UDead => "fn under crates/*/src that no entry point reaches: no `fn main`, trait method, `#[doc(hidden)]` test hook or const/static table or macro body calls or names it (reachability over the call graph, by name)",
            Rule::LReason => "mmr-lint allow annotation that is malformed or lacks a non-empty reason=\"...\"",
            Rule::LUnused => "mmr-lint allow annotation that suppressed no diagnostic: remove the stale escape hatch",
        }
    }

    /// Parses an ID as written in an allow annotation.
    pub fn from_id(s: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// Human message (what was found, not why the rule exists). A chain
    /// finding ends with its call chain, `chain: root -> .. -> leaf`.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(file: &str, line: u32, rule: Rule, message: String) -> Diagnostic {
        Diagnostic { file: file.to_string(), line, rule, message }
    }

    /// Renders the canonical single-line form used in golden tests and CI
    /// logs: `file:line: RULE-ID: message`.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule.id(), self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("D-NOPE"), None);
    }

    #[test]
    fn render_is_stable() {
        let d = Diagnostic::new("crates/x/src/a.rs", 7, Rule::PUnwrap, "call to .unwrap()".into());
        assert_eq!(d.render(), "crates/x/src/a.rs:7: P-UNWRAP: call to .unwrap()");
    }
}
