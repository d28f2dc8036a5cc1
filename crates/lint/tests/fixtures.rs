//! Fixture corpus self-test: every `fixtures/bad/wNNN_*.rs` must trip
//! the rule named by its filename prefix, every `fixtures/good/*.rs`
//! must come back completely clean (all rules enabled), and the
//! workspace itself must lint clean — the tool gates CI, so a rule that
//! silently stops firing is itself a regression.

use std::path::{Path, PathBuf};
use wilocator_lint::{analyze_file_all_rules, find_workspace_root, run_workspace};

fn fixture_files(kind: &str) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(kind);
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no fixtures under {}", dir.display());
    out
}

/// `w001_hashmap_iter.rs` → `"W001"`.
fn expected_code(path: &Path) -> String {
    let name = path.file_stem().expect("file stem").to_string_lossy();
    let prefix = name.split('_').next().expect("wNNN_ prefix");
    assert!(
        prefix.len() == 4 && prefix.starts_with('w'),
        "bad fixture name {name}: want wNNN_<slug>.rs"
    );
    prefix.to_ascii_uppercase()
}

#[test]
fn bad_fixtures_trip_their_rule() {
    let mut seen = std::collections::BTreeSet::new();
    for path in fixture_files("bad") {
        let want = expected_code(&path);
        let text = std::fs::read_to_string(&path).expect("read fixture");
        let violations = analyze_file_all_rules(&path.to_string_lossy(), &text);
        assert!(
            violations.iter().any(|v| v.rule.code() == want),
            "{}: expected a {want} violation, got: {:?}",
            path.display(),
            violations.iter().map(|v| v.rule.code()).collect::<Vec<_>>()
        );
        seen.insert(want);
    }
    for code in [
        "W001", "W002", "W003", "W005", "W006", "W007", "W008", "W009", "W010", "W011", "W012",
        "W013",
    ] {
        assert!(seen.contains(code), "no bad fixture exercises {code}");
    }
}

/// `//~ WNNN` markers in bad fixtures pin the exact reported site: the
/// named rule must fire on that line, not merely somewhere in the file.
#[test]
fn bad_fixture_markers_pin_rule_and_line() {
    let mut checked = 0;
    for path in fixture_files("bad") {
        let text = std::fs::read_to_string(&path).expect("read fixture");
        let violations = analyze_file_all_rules(&path.to_string_lossy(), &text);
        for (idx, line) in text.lines().enumerate() {
            let Some(at) = line.find("//~ ") else {
                continue;
            };
            let code = line[at + 4..].trim();
            assert!(
                violations
                    .iter()
                    .any(|v| v.rule.code() == code && v.line == idx + 1),
                "{}:{}: expected {code} here, got: {:?}",
                path.display(),
                idx + 1,
                violations
                    .iter()
                    .map(|v| format!("{}@{}", v.rule.code(), v.line))
                    .collect::<Vec<_>>()
            );
            checked += 1;
        }
    }
    assert!(checked >= 4, "marker corpus shrank: {checked} markers");
}

#[test]
fn good_fixtures_are_clean() {
    let mut seen = std::collections::BTreeSet::new();
    for path in fixture_files("good") {
        let want = expected_code(&path);
        let text = std::fs::read_to_string(&path).expect("read fixture");
        let violations = analyze_file_all_rules(&path.to_string_lossy(), &text);
        assert!(
            violations.is_empty(),
            "{}: expected clean, got:\n{}",
            path.display(),
            violations
                .iter()
                .map(|v| v.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
        seen.insert(want);
    }
    for code in [
        "W001", "W002", "W003", "W005", "W006", "W007", "W008", "W009", "W010", "W011", "W012",
        "W013",
    ] {
        assert!(seen.contains(code), "no good fixture exercises {code}");
    }
}

#[test]
fn workspace_is_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let violations = run_workspace(&root);
    assert!(
        violations.is_empty(),
        "workspace lint regressed:\n{}",
        violations
            .iter()
            .map(|v| v.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
