//! `mmr-lint` CLI.
//!
//! ```text
//! mmr-lint [--deny-all] [--root DIR] [--manifest FILE]
//!          [--emit-callgraph PATH] [--list-rules] [FILE ...]
//! ```
//!
//! With no FILE arguments, analyzes every `.rs` file under `--root`
//! (default: current directory) as one workspace — the call graph spans
//! all files, so A-TRANS/P-TRANS chains cross crate boundaries.
//! With FILE arguments, analyzes exactly those files as one batch (paths
//! relative to `--root`) — this is how a fixture group's golden output is
//! regenerated. `--emit-callgraph PATH` additionally writes the resolved
//! call graph as deterministic DOT.
//!
//! Exit codes: 0 = clean (or findings without `--deny-all`), 1 = findings
//! under `--deny-all`, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use mmr_lint::{analyze_sources, analyze_workspace, load_manifest, Analysis, ALL_RULES};

struct Options {
    deny_all: bool,
    list_rules: bool,
    root: PathBuf,
    manifest: Option<PathBuf>,
    callgraph: Option<PathBuf>,
    files: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny_all: false,
        list_rules: false,
        root: PathBuf::from("."),
        manifest: None,
        callgraph: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a directory")?)
            }
            "--manifest" => {
                opts.manifest = Some(PathBuf::from(args.next().ok_or("--manifest needs a file")?))
            }
            "--emit-callgraph" => {
                opts.callgraph =
                    Some(PathBuf::from(args.next().ok_or("--emit-callgraph needs a path")?))
            }
            "--help" | "-h" => {
                println!(
                    "mmr-lint [--deny-all] [--root DIR] [--manifest FILE] [--emit-callgraph PATH] [--list-rules] [FILE ...]"
                );
                std::process::exit(0);
            }
            f if !f.starts_with('-') => opts.files.push(f.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mmr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for r in ALL_RULES {
            println!("{:<10} {}", r.id(), r.describe());
        }
        return ExitCode::SUCCESS;
    }

    let manifest_path = opts.manifest.clone().unwrap_or_else(|| opts.root.join("lint.toml"));
    let manifest = match load_manifest(&manifest_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("mmr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let analysis: Analysis = if opts.files.is_empty() {
        match analyze_workspace(&opts.root, &manifest) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("mmr-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        // Named files are analyzed as one batch so chains span them.
        let mut sources: Vec<(String, String)> = Vec::new();
        for rel in &opts.files {
            let rel = rel.trim_start_matches("./").to_string();
            match std::fs::read_to_string(opts.root.join(&rel)) {
                Ok(s) => sources.push((rel, s)),
                Err(e) => {
                    eprintln!("mmr-lint: {rel}: {e}");
                    return ExitCode::from(2);
                }
            };
        }
        let refs: Vec<(&str, &str)> =
            sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
        analyze_sources(&refs, &manifest)
    };
    let diags = &analysis.diagnostics;

    if let Some(path) = &opts.callgraph {
        if let Err(e) = std::fs::write(path, analysis.callgraph_dot()) {
            eprintln!("mmr-lint: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    for d in diags {
        println!("{}", d.render());
    }
    if !diags.is_empty() {
        eprintln!("mmr-lint: {} diagnostic(s)", diags.len());
    }

    if opts.deny_all && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
