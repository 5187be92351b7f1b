//! Tier-1 gate for the determinism lint engine (`crates/analysis`).
//!
//! Three halves:
//!
//! 1. the whole workspace tree must be lint-clean — any new use of a
//!    banned nondeterminism pattern fails CI here with a `file:line`
//!    diagnostic unless explicitly sanctioned with
//!    `// aq-lint: allow(<rule>)`;
//! 2. a fixture self-test proving the engine itself works: for every line
//!    rule there is a fixture in `crates/analysis/fixtures/` whose
//!    `expect-lint:`-tagged lines must each produce exactly that
//!    diagnostic, and whose `aq-lint: allow(...)` lines must produce
//!    none; `unused-allow` has a fires/escapes pair of miniature
//!    workspace trees beside them (the `aq-lint` binary is driven over
//!    those in `crates/analysis/tests/cli.rs`), linted the same way. A
//!    rule that silently stopped firing (or an escape hatch that stopped
//!    suppressing) fails here, so the clean-tree check in part 1 cannot
//!    rot into a no-op;
//! 3. output determinism: two engine runs over the same tree must render
//!    byte-identical JSON, which is what CI uploads as an artifact.

use std::collections::BTreeSet;
use std::path::Path;

use aq_analysis::rules::RULES;
use aq_analysis::{lint_file, lint_workspace};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_tree_is_lint_clean() {
    let diags = lint_workspace(workspace_root()).expect("workspace walk failed");
    assert!(
        diags.is_empty(),
        "determinism lint violations (sanction intentional ones with \
         `// aq-lint: allow(<rule>)`):\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn repeated_runs_render_identical_json() {
    let one = lint_workspace(workspace_root()).expect("walk 1");
    let two = lint_workspace(workspace_root()).expect("walk 2");
    let render_one = aq_analysis::output::render_json(&one);
    let render_two = aq_analysis::output::render_json(&two);
    assert_eq!(render_one, render_two, "JSON output is not byte-stable");
}

/// (fixture file, rule under test, synthetic in-scope path to lint as).
const FIXTURES: &[(&str, &str, &str)] = &[
    (
        "no_hash_collections.rs",
        "no-hash-collections",
        "crates/core/src/fixture.rs",
    ),
    (
        "no_wall_clock.rs",
        "no-wall-clock",
        "crates/netsim/src/fixture.rs",
    ),
    (
        "no_float_eq.rs",
        "no-float-eq",
        "crates/netsim/src/fixture.rs",
    ),
    (
        "no_narrowing_cast.rs",
        "no-narrowing-cast",
        "crates/netsim/src/fixture.rs",
    ),
    (
        "no_thread_in_sim.rs",
        "no-thread-in-sim",
        "crates/netsim/src/fixture.rs",
    ),
    (
        "no_cross_shard_mutation.rs",
        "no-cross-shard-mutation",
        "crates/netsim/src/shard.rs",
    ),
    (
        "unused-allow/fires/crates/core/src/calc.rs",
        "unused-allow",
        "crates/core/src/calc.rs",
    ),
];

/// The clean twin of the `unused-allow` fires fixture: the same kinds of
/// directive, each still consumed by a violation.
const UNUSED_ALLOW_ESCAPES: &str = "unused-allow/escapes/crates/core/src/calc.rs";

fn read_fixture(file: &str) -> String {
    let path = workspace_root().join("crates/analysis/fixtures").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_rule_has_a_fixture() {
    let covered: BTreeSet<&str> = FIXTURES.iter().map(|(_, rule, _)| *rule).collect();
    let rules: BTreeSet<&str> = RULES.iter().map(|r| r.name).collect();
    assert_eq!(
        covered, rules,
        "every rule needs a fixture in crates/analysis/fixtures/, and every fixture a rule"
    );
}

#[test]
fn fixtures_fire_exactly_on_tagged_lines_and_escapes_suppress() {
    for (file, rule, lint_as) in FIXTURES {
        let text = read_fixture(file);

        // Lines tagged `expect-lint: <rule>` are the expected diagnostics.
        let expected: BTreeSet<(usize, String)> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(&format!("expect-lint: {rule}")))
            .map(|(i, _)| (i + 1, (*rule).to_string()))
            .collect();
        assert!(
            !expected.is_empty(),
            "{file}: fixture has no `expect-lint: {rule}` lines"
        );

        // Every fixture must also demonstrate the escape hatch, both
        // trailing and standalone-preceding.
        let escapes = text.matches("aq-lint: allow(").count();
        assert!(
            escapes >= 2,
            "{file}: expected at least two `aq-lint: allow(...)` escapes, found {escapes}"
        );

        let actual: BTreeSet<(usize, String)> = lint_file(lint_as, &text)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect();

        let missing: Vec<_> = expected.difference(&actual).collect();
        let unexpected: Vec<_> = actual.difference(&expected).collect();
        assert!(
            missing.is_empty() && unexpected.is_empty(),
            "{file} linted as {lint_as}:\n  rule did not fire on: {missing:?}\n  \
             unexpected diagnostics (escape hatch broken or cross-rule noise): {unexpected:?}"
        );
    }

    let escapes = read_fixture(UNUSED_ALLOW_ESCAPES);
    assert!(
        escapes.matches("aq-lint: allow(").count() >= 2,
        "{UNUSED_ALLOW_ESCAPES}: expected a trailing and a standalone allow"
    );
    let diags = lint_file("crates/core/src/calc.rs", &escapes);
    assert!(
        diags.is_empty(),
        "{UNUSED_ALLOW_ESCAPES}: a consumed allow must not fire: {diags:?}"
    );
}

/// Regression for the scanner: banned identifiers inside raw strings,
/// raw byte strings, and escape-bearing byte strings are data, and the
/// scanner must resynchronize correctly after each literal flavor.
#[test]
fn raw_string_fixture_produces_only_the_tagged_diagnostic() {
    let text = read_fixture("raw_strings.rs");
    let expected: BTreeSet<(usize, String)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("expect-lint: no-float-eq"))
        .map(|(i, _)| (i + 1, "no-float-eq".to_string()))
        .collect();
    assert_eq!(expected.len(), 1, "fixture should tag exactly one line");
    let actual: BTreeSet<(usize, String)> = lint_file("crates/netsim/src/fixture.rs", &text)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(
        actual, expected,
        "raw-string contents leaked into lintable code (or the scanner lost sync)"
    );
}

#[test]
fn diagnostics_are_ordered_and_positioned() {
    // The engine's output must be deterministic: (path, line) ordered, so
    // CI diffs are stable run to run.
    let diags = lint_workspace(workspace_root()).expect("workspace walk failed");
    let keys: Vec<(&str, usize)> = diags.iter().map(|d| (d.path.as_str(), d.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics are not in (path, line) order");
}
