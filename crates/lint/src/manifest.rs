//! `lint.toml` — the machine-readable manifest that designates which
//! modules each rule family applies to.
//!
//! The format is a deliberately tiny TOML subset (tables of string-array
//! keys), parsed by hand so the linter stays free of registry dependencies.
//! Paths are workspace-relative prefixes: a designation of
//! `"crates/core/src/linksched.rs"` covers that file, and
//! `"crates/net/src"` covers the whole directory.
//!
//! Sections:
//!
//! ```toml
//! [paths]
//! exclude = ["vendor", "target"]        # never linted at all
//!
//! [deterministic]                        # D-HASH scope is global;
//! time_exempt = ["crates/bench"]         # D-TIME applies outside these
//!
//! [accounting]                           # D-FLOAT: integer-ledger modules
//! modules = ["crates/core/src/llr.rs"]
//!
//! [panic_free]                           # P-UNWRAP / P-EXPECT / P-PANIC,
//! modules = ["crates/core/src/router.rs"]  # plus P-TRANS roots
//!
//! [index_free]                           # P-INDEX (stricter, opt-in)
//! modules = ["crates/core/src/llr.rs"]
//! ```
//!
//! A-lints need no section: the direct rules trigger only inside functions
//! annotated `// mmr-lint: hot`, wherever those live (and A-TRANS follows
//! the call graph out of them).

use std::fmt;
use std::path::Path;

/// Parsed manifest.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    /// Path prefixes excluded from linting entirely.
    pub exclude: Vec<String>,
    /// Path prefixes where `std::time` use is legitimate (benchmarks).
    pub time_exempt: Vec<String>,
    /// Integer-ledger accounting modules (D-FLOAT scope).
    pub accounting: Vec<String>,
    /// Hot-path modules that must not panic (P-UNWRAP/P-EXPECT/P-PANIC
    /// directly; P-TRANS transitively through first-party callees).
    pub panic_free: Vec<String>,
    /// Modules that must not use bare slice indexing (P-INDEX).
    pub index_free: Vec<String>,
}

/// Manifest syntax error with a line number.
#[derive(Debug)]
pub struct ManifestError {
    /// 1-based line of the offending manifest entry.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

impl Manifest {
    /// Parses the TOML-subset text. Unknown sections and keys are errors:
    /// a typo in the manifest must not silently un-designate a module.
    pub fn parse(src: &str) -> Result<Manifest, ManifestError> {
        let mut m = Manifest::default();
        let mut section = String::new();
        let mut lines = src.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let line_no = idx as u32 + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: keep consuming until the closing bracket.
            if line.contains('[') && line.contains('=') && !line.contains(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont).trim().to_string();
                    let done = cont.contains(']');
                    line.push_str(&cont);
                    if done {
                        break;
                    }
                }
            }
            let line = line.as_str();
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "paths" | "deterministic" | "accounting" | "panic_free" | "index_free" => {}
                    other => {
                        return Err(ManifestError {
                            line: line_no,
                            message: format!("unknown section [{other}]"),
                        })
                    }
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ManifestError {
                    line: line_no,
                    message: format!("expected `key = [..]`, got `{line}`"),
                });
            };
            let key = key.trim();
            let values = parse_string_array(value.trim()).ok_or_else(|| ManifestError {
                line: line_no,
                message: format!("value for `{key}` must be an array of strings on one line"),
            })?;
            let target = match (section.as_str(), key) {
                ("paths", "exclude") => &mut m.exclude,
                ("deterministic", "time_exempt") => &mut m.time_exempt,
                ("accounting", "modules") => &mut m.accounting,
                ("panic_free", "modules") => &mut m.panic_free,
                ("index_free", "modules") => &mut m.index_free,
                _ => {
                    return Err(ManifestError {
                        line: line_no,
                        message: format!("unknown key `{key}` in section [{section}]"),
                    })
                }
            };
            target.extend(values);
        }
        Ok(m)
    }

    /// Whether `path` (workspace-relative, `/`-separated) is excluded.
    pub fn is_excluded(&self, path: &str) -> bool {
        matches_any(path, &self.exclude)
    }

    /// Whether `path` may legitimately read wall-clock time (D-TIME off).
    pub fn is_time_exempt(&self, path: &str) -> bool {
        matches_any(path, &self.time_exempt)
    }

    /// Whether `path` is an integer-ledger accounting module (D-FLOAT on).
    pub fn is_accounting(&self, path: &str) -> bool {
        matches_any(path, &self.accounting)
    }

    /// Whether `path` is a designated panic-free module (P-lints on).
    pub fn is_panic_free(&self, path: &str) -> bool {
        matches_any(path, &self.panic_free)
    }

    /// Whether `path` must avoid bare slice indexing (P-INDEX on).
    pub fn is_index_free(&self, path: &str) -> bool {
        matches_any(path, &self.index_free)
    }
}

/// Prefix match on `/`-separated path components: `crates/net/src` covers
/// `crates/net/src/setup.rs` but not `crates/net/src2/x.rs`.
fn matches_any(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| {
        path == p || (path.starts_with(p.as_str()) && path.as_bytes().get(p.len()) == Some(&b'/'))
    })
}

/// Normalizes an OS path to the `/`-separated workspace-relative form the
/// manifest uses.
pub fn normalize(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn strip_comment(line: &str) -> &str {
    // Good enough for this subset: `#` inside quotes would break this, but
    // manifest paths never contain `#` and parse_string_array re-validates.
    match line.find('#') {
        Some(i) if line[..i].matches('"').count().is_multiple_of(2) => &line[..i],
        _ => line,
    }
}

/// Parses `["a", "b"]` (single-line). Returns None on any malformation.
fn parse_string_array(s: &str) -> Option<Vec<String>> {
    let inner = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in split_top_level(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let unquoted = part.strip_prefix('"')?.strip_suffix('"')?;
        if unquoted.contains('"') {
            return None;
        }
        out.push(unquoted.to_string());
    }
    Some(out)
}

fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_sections() {
        let m = Manifest::parse(
            r#"
# comment
[paths]
exclude = ["vendor", "target"]

[deterministic]
time_exempt = ["crates/bench"]

[accounting]
modules = ["crates/core/src/llr.rs"]

[panic_free]
modules = ["crates/core/src/router.rs", "crates/net/src/setup.rs"]

[index_free]
modules = ["crates/core/src/llr.rs"]
"#,
        )
        .expect("parses");
        assert!(m.is_excluded("vendor/proptest/src/lib.rs"));
        assert!(!m.is_excluded("vendors/x.rs"));
        assert!(m.is_time_exempt("crates/bench/examples/perfbench/main.rs"));
        assert!(m.is_accounting("crates/core/src/llr.rs"));
        assert!(m.is_panic_free("crates/net/src/setup.rs"));
        assert!(!m.is_panic_free("crates/net/src/driver.rs"));
    }

    #[test]
    fn multi_line_arrays_parse() {
        let m = Manifest::parse(
            "[panic_free]\nmodules = [\n    \"crates/a.rs\", # trailing comment\n    \"crates/b.rs\",\n]\n",
        )
        .expect("parses");
        assert!(m.is_panic_free("crates/a.rs"));
        assert!(m.is_panic_free("crates/b.rs"));
    }

    #[test]
    fn unknown_section_is_an_error() {
        assert!(Manifest::parse("[panicfree]\nmodules = []").is_err());
        assert!(Manifest::parse("[paths]\nincl = []").is_err());
        assert!(Manifest::parse("[paths]\nexclude = vendor").is_err());
        // The scopes of the deleted D-ITER and S-SHARD rules are typos now.
        let err = |src| Manifest::parse(src).unwrap_err().to_string();
        assert_eq!(err("[shard_safe]\nmodules = []"), "lint.toml:1: unknown section [shard_safe]");
        assert_eq!(
            err("[deterministic]\niter_strict = []"),
            "lint.toml:2: unknown key `iter_strict` in section [deterministic]"
        );
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let m = Manifest::parse("[panic_free]\nmodules = [\"crates/net/src\"]").expect("parses");
        assert!(m.is_panic_free("crates/net/src/setup.rs"));
        assert!(m.is_panic_free("crates/net/src"));
        assert!(!m.is_panic_free("crates/net/src2/x.rs"));
    }

    /// The workspace manifest designates `crates/net/src/network` and
    /// `crates/core/src/router` as directories, so a file added to the
    /// simulator or the router cannot silently leave the panic-free wall;
    /// the session layer above them (`recovery.rs`, `admission.rs`) is
    /// inside the wall too.
    #[test]
    fn every_network_source_file_is_panic_free_scoped() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifest = std::fs::read_to_string(root.join("lint.toml")).expect("workspace lint.toml");
        let m = Manifest::parse(&manifest).expect("parses");
        for dir in ["crates/net/src/network", "crates/core/src/router"] {
            let mut seen = 0;
            for entry in std::fs::read_dir(root.join(dir)).expect("a designated directory") {
                let name = entry.expect("readable entry").file_name();
                let name = name.to_str().expect("utf-8 file name");
                if name.ends_with(".rs") {
                    assert!(m.is_panic_free(&format!("{dir}/{name}")), "{dir}/{name} left P-* scope");
                    seen += 1;
                }
            }
            assert!(seen > 0, "{dir} holds sources");
        }
        for file in ["crates/net/src/recovery.rs", "crates/net/src/admission.rs"] {
            assert!(root.join(file).is_file(), "{file} moved; update lint.toml");
            assert!(m.is_panic_free(file), "{file} left P-* scope");
        }
    }
}
