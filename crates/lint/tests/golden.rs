//! Golden tests: each fixture group under `tests/fixtures/` must produce
//! exactly the diagnostics recorded in its `.expected` file, and together
//! the fixtures must exercise every rule the linter knows about.
//!
//! A group is one or more fixture files analyzed as a single workspace so
//! interprocedural rules (A-TRANS, P-TRANS chains) can resolve cross-file
//! calls; the golden output lives next to the first file. Every fixture
//! file belongs to exactly one group, and every group trips the linter.
//! Regenerate an `.expected` file after an intentional rule change with:
//!
//! ```text
//! cargo run -p mmr-lint -- --root crates/lint/tests/fixtures \
//!     --manifest crates/lint/tests/fixtures/lint.toml <group files...> \
//!     > crates/lint/tests/fixtures/<first file>.expected
//! ```
//! (drop the trailing `mmr-lint: N diagnostic(s)` summary line).

use std::fs;
use std::path::PathBuf;

use mmr_lint::{analyze_sources, load_manifest, Manifest, ALL_RULES};

/// Fixture groups: the files in each inner slice are linted together as one
/// workspace; the `.expected` golden output is named after the first file.
const FIXTURES: &[&[&str]] = &[
    &["determinism"],
    &["accounting"],
    &["panic_free"],
    &["indexing"],
    &["hot_alloc"],
    &["annotations"],
    &["a_trans"],
    &["p_trans", "p_trans_helper"],
    &["d_iter"],
    // U-DEAD reports only under `crates/*/src`, so its group is laid out
    // like a workspace: a library module and an example's `main`.
    &["crates/demo/src/u_dead", "crates/demo/examples/u_dead_main"],
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_manifest() -> Manifest {
    load_manifest(&fixtures_dir().join("lint.toml")).expect("fixture lint.toml parses")
}

fn group_diagnostics(group: &[&str], manifest: &Manifest) -> Vec<String> {
    let dir = fixtures_dir();
    let sources: Vec<(String, String)> = group
        .iter()
        .map(|name| {
            let path = format!("{name}.rs");
            let src = fs::read_to_string(dir.join(&path)).expect("fixture readable");
            (path, src)
        })
        .collect();
    let refs: Vec<(&str, &str)> =
        sources.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();
    analyze_sources(&refs, manifest).diagnostics.iter().map(|d| d.render()).collect()
}

#[test]
fn fixtures_match_golden_output() {
    let dir = fixtures_dir();
    let manifest = fixture_manifest();
    for group in FIXTURES {
        let expected = fs::read_to_string(dir.join(format!("{}.expected", group[0])))
            .expect("golden readable");
        let got: String =
            group_diagnostics(group, &manifest).iter().map(|d| format!("{d}\n")).collect();
        assert_eq!(got, expected, "diagnostics drifted for fixture group `{}`", group[0]);
    }
}

#[test]
fn every_fixture_group_violates_something() {
    // A group emptied by accident would pass its golden trivially.
    let manifest = fixture_manifest();
    for group in FIXTURES {
        let diags = group_diagnostics(group, &manifest);
        assert!(!diags.is_empty(), "fixture group `{}` produced no diagnostics", group[0]);
    }
}

#[test]
fn every_fixture_file_is_in_exactly_one_group() {
    // A fixture outside every group is never linted; one in two groups is
    // pinned twice. Companion files (`*_helper.rs`, an example's `main`)
    // carry no violations of their own and only matter as call-graph
    // neighbours of their group head.
    let mut on_disk: Vec<String> = Vec::new();
    let mut dirs = vec![fixtures_dir()];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).expect("fixtures dir readable") {
            let path = entry.expect("readable entry").path();
            let rel = path.strip_prefix(fixtures_dir()).expect("under fixtures").to_string_lossy();
            match rel.strip_suffix(".rs") {
                _ if path.is_dir() => dirs.push(path.clone()),
                Some(name) => on_disk.push(name.to_string()),
                None => {}
            }
        }
    }
    on_disk.sort();
    let mut grouped: Vec<String> =
        FIXTURES.iter().flat_map(|g| g.iter().map(|f| f.to_string())).collect();
    grouped.sort();
    assert_eq!(grouped, on_disk, "fixture files and FIXTURES groups disagree");
}

#[test]
fn every_rule_has_fixture_coverage() {
    // Meta-test: adding a rule without a fixture demonstrating it fails here.
    let dir = fixtures_dir();
    let all_expected: String = FIXTURES
        .iter()
        .map(|group| {
            fs::read_to_string(dir.join(format!("{}.expected", group[0])))
                .expect("golden readable")
        })
        .collect();
    for rule in ALL_RULES {
        assert!(
            all_expected.contains(&format!(" {}: ", rule.id())),
            "rule {} appears in no fixture's golden output",
            rule.id()
        );
    }
}

#[test]
fn transitive_goldens_record_call_chains() {
    // The interprocedural fixtures must pin the rendered chain, not just the
    // rule firing: a chain-reconstruction regression shows up byte-exactly.
    let dir = fixtures_dir();
    for (name, hops) in [
        ("a_trans", "chain: step -> refill -> grow"),
        ("p_trans", "chain: service -> helper_value"),
    ] {
        let expected =
            fs::read_to_string(dir.join(format!("{name}.expected"))).expect("golden readable");
        assert!(expected.contains(hops), "`{name}.expected` lost its call chain");
    }
}

#[test]
fn workspace_manifest_designations_resolve() {
    // The real lint.toml must parse, and the paths it designates must exist:
    // a renamed module must not silently fall out of the lint wall.
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root")
        .to_path_buf();
    let manifest = load_manifest(&repo_root.join("lint.toml")).expect("workspace lint.toml parses");
    for group in [
        &manifest.time_exempt,
        &manifest.accounting,
        &manifest.panic_free,
        &manifest.index_free,
    ] {
        for path in group {
            assert!(
                repo_root.join(path).exists(),
                "lint.toml designates `{path}`, which does not exist"
            );
        }
    }
}
