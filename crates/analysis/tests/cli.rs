//! Drives the `aq-lint` binary: its exit code is the CI gate, so the
//! contract — 0 clean, 1 violations, 2 usage error — is tested on the
//! real executable against this crate's miniature fixture trees.

use std::path::PathBuf;
use std::process::{Command, Output};

fn aq_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aq-lint"))
        .args(args)
        .output()
        .expect("spawn aq-lint")
}

fn tree(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures/unused-allow")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn a_clean_tree_exits_0() {
    let out = aq_lint(&["--root", &tree("escapes")]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "aq-lint: clean\n");
}

#[test]
fn a_tree_with_violations_exits_1_and_reports_exactly_the_tagged_lines() {
    let root = tree("fires");
    let rel = "crates/core/src/calc.rs";
    let text = std::fs::read_to_string(PathBuf::from(&root).join(rel)).expect("read fixture");
    let mut expected: Vec<String> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("expect-lint: unused-allow"))
        .map(|(i, _)| format!("{rel}:{}: [unused-allow]", i + 1))
        .collect();
    assert!(!expected.is_empty(), "fixture tags no line");
    expected.push(format!("aq-lint: {} violation(s)", expected.len()));

    let out = aq_lint(&["--root", &root]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), expected.len(), "{stdout}");
    for (got, want) in lines.iter().zip(&expected) {
        assert!(
            got.starts_with(want.as_str()),
            "got `{got}`, want `{want}…`"
        );
    }

    // Same verdict, machine-readable.
    let json = aq_lint(&["--root", &root, "--format", "json"]);
    assert_eq!(json.status.code(), Some(1), "{json:?}");
    let doc = String::from_utf8_lossy(&json.stdout);
    assert!(
        doc.contains(&format!("\"total\": {}", expected.len() - 1)),
        "{doc}"
    );
}

#[test]
fn removed_and_unknown_options_are_usage_errors() {
    for args in [
        &["ratchet"][..],
        &["ratchet", "--update"],
        &["--ledger", "x.json"],
        &["--format", "sarif"],
        &["--format"],
        &["--root"],
        &["--no-such-flag"],
    ] {
        let out = aq_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed diagnostics");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("aq-lint: "),
            "{args:?}: {out:?}"
        );
    }
}

#[test]
fn rules_lists_the_catalog() {
    let out = aq_lint(&["--rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let catalog: Vec<&str> = aq_analysis::rules::RULES.iter().map(|r| r.name).collect();
    assert_eq!(names, catalog);
    assert_eq!(names.len(), 7);
}
