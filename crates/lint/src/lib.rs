//! `mmr-lint` — workspace static analysis for the MMR simulator.
//!
//! Enforces, at CI time, the three properties the simulator's correctness
//! story rests on:
//!
//! - **Determinism (D-lints)**: byte-identical sweeps at any `--jobs`
//!   require no hash-order iteration, no wall-clock reads, and exact
//!   integer arithmetic in credit/quota ledgers.
//! - **Panic-freedom (P-lints)**: the per-flit-cycle data path (router,
//!   schedulers, VC memory, LLR, the network delivery path) must degrade
//!   via typed errors or audited counters, never by panicking mid-campaign.
//! - **No hot-path allocation (A-lints)**: functions annotated
//!   `// mmr-lint: hot` must not allocate; scheduler inner loops are
//!   fixed-work, fixed-time structures (cf. Tiny Tera's scheduler design).
//!
//! Dead library code is not this tool's question: `tools/reach.sh` asks the
//! compiler which fns under `crates/*/src` have a caller (U-DEAD, DESIGN.md
//! §7). The tool is self-contained: its own tokenizer ([`lexer`]) and a tiny
//! TOML-subset manifest parser ([`manifest`]). See `DESIGN.md` §7 for the
//! rule table, the audit that decided it, and the annotation grammar.

pub mod diag;
mod engine;
mod graph;
pub mod lexer;
pub mod manifest;
mod parse;

pub use diag::{Diagnostic, Rule, ALL_RULES};
pub use manifest::Manifest;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of a full analysis run: the diagnostics plus the call graph
/// they were computed over (for `--emit-callgraph`).
pub struct Analysis {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    graph: graph::Graph,
}

impl Analysis {
    /// Renders the workspace call graph as deterministic DOT: nodes are
    /// `file:line name` (hot fns boxed), edges are resolved calls.
    pub fn callgraph_dot(&self) -> String {
        graph::to_dot(&self.graph)
    }
}

/// Analyzes a batch of sources as one workspace: the call graph spans all
/// of them, so interprocedural rules see cross-file chains. Each entry is
/// `(workspace-relative path, source text)`.
pub fn analyze_sources(files: &[(&str, &str)], manifest: &Manifest) -> Analysis {
    let analyses =
        files.iter().map(|(p, s)| engine::analyze_file(p, s, manifest)).collect::<Vec<_>>();
    let (diagnostics, graph) = engine::finalize(analyses, manifest);
    Analysis { diagnostics, graph }
}

/// The workspace-relative paths of the `.rs` files under `root`, sorted,
/// skipping manifest-excluded prefixes plus the built-in `target` / `.git` /
/// hidden directories — the file set every workspace pass runs over.
pub fn workspace_sources(root: &Path, manifest: &Manifest) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, manifest, &mut files)?;
    files.sort();
    Ok(files)
}

/// Analyzes [`workspace_sources`] as one workspace (direct rules plus
/// call-graph rules).
pub fn analyze_workspace(root: &Path, manifest: &Manifest) -> io::Result<Analysis> {
    let mut sources = Vec::new();
    for rel in workspace_sources(root, manifest)? {
        let src = fs::read_to_string(root.join(&rel))?;
        sources.push((rel, src));
    }
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    Ok(analyze_sources(&refs, manifest))
}

fn collect_rs_files(
    root: &Path,
    dir: &Path,
    manifest: &Manifest,
    out: &mut Vec<String>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let rel = match path.strip_prefix(root) {
            Ok(r) => manifest::normalize(r),
            Err(_) => continue,
        };
        if manifest.is_excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, manifest, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Loads the manifest at `path`, or the empty manifest when the file does
/// not exist (every path-scoped rule then applies nowhere; global rules
/// still run).
pub fn load_manifest(path: &Path) -> Result<Manifest, String> {
    match fs::read_to_string(path) {
        Ok(src) => Manifest::parse(&src).map_err(|e| e.to_string()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Manifest::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_walk_skips_excluded_dirs() {
        let tmp = std::env::temp_dir().join(format!("mmr-lint-walk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(tmp.join("src")).expect("mkdir");
        fs::create_dir_all(tmp.join("vendor/dep/src")).expect("mkdir");
        fs::write(tmp.join("src/a.rs"), "use std::collections::HashMap;\n").expect("write");
        fs::write(tmp.join("vendor/dep/src/b.rs"), "use std::collections::HashMap;\n")
            .expect("write");
        let m = Manifest::parse("[paths]\nexclude = [\"vendor\"]").expect("manifest");
        let diags = analyze_workspace(&tmp, &m).expect("walk").diagnostics;
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "src/a.rs");
        let _ = fs::remove_dir_all(&tmp);
    }
}
