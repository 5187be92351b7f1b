//! The workspace lint policy still fires where it should.
//!
//! The determinism rules are clippy lints: `disallowed-types` and
//! `disallowed-methods` in the root `clippy.toml`, plus crate-level
//! `float_cmp` and `cast_possible_truncation` in the sim crates. A
//! sanctioned site carries `#[expect(..., reason = "...")]`, which turns
//! into `unfulfilled_lint_expectations` once nothing under it fires. CI
//! runs clippy with `-D warnings`, so a clean tree proves nothing unless
//! each rule is shown to fire: these tests lint `tests/lint_fixture`, a
//! package of planted violations, and need `cargo clippy` installed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

use aq_bench::json::{self, Json};

/// The crate-level opt-ins, as each sim-state `lib.rs` must spell them.
const FLOAT_CMP: &str = "#![cfg_attr(not(test), warn(clippy::float_cmp))]";
const CAST_TRUNCATION: &str = "#![warn(clippy::cast_possible_truncation)]";
/// The clippy lints of the policy.
const LINTS: [&str; 4] = [
    "disallowed_methods",
    "disallowed_types",
    "float_cmp",
    "cast_possible_truncation",
];
const FIXTURE: &str = "tests/lint_fixture/src/lib.rs";
const TAG: &str = "// expect-lint: ";
type Findings = BTreeSet<(Option<u64>, String)>;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `json[path[0]][path[1]]…`, if every key is there.
fn at<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, k| j.get(k))
}

/// `(number, text)` of each fixture line.
fn lines() -> Vec<(u64, String)> {
    (1..).zip(read(FIXTURE).lines().map(String::from)).collect()
}

/// (line, lint code) of the fixture's `// expect-lint: <code>` tags.
fn tagged() -> Findings {
    let tag = |(n, l): (u64, String)| Some((Some(n), l.split(TAG).nth(1)?.trim().to_string()));
    lines().into_iter().filter_map(tag).collect()
}

/// (line, lint code) of every diagnostic of one `cargo clippy --all-targets`
/// over the fixture (lib and lib-test builds; the fixture is one file, so
/// the line is the whole position), and whether the lib-test build was
/// linted. Run once, shared by the tests.
fn clippy() -> &'static (Findings, bool) {
    static RUN: OnceLock<(Findings, bool)> = OnceLock::new();
    RUN.get_or_init(|| {
        let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_fixture");
        let out = Command::new(env!("CARGO"))
            .arg("clippy")
            .args(["--offline", "--all-targets", "--message-format=json"])
            .args(["--manifest-path", "tests/lint_fixture/Cargo.toml"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .env("CARGO_TARGET_DIR", target)
            // The fixture must read the root clippy.toml, at the lint
            // levels its own source sets.
            .env_remove("CLIPPY_CONF_DIR")
            .env_remove("RUSTFLAGS")
            .output()
            .expect("spawn cargo");
        assert!(
            out.status.success(),
            "`cargo clippy` on the lint fixture failed (clippy must be installed):\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (mut found, mut test_build, yes) = (BTreeSet::new(), false, Json::Bool(true));
        for record in String::from_utf8_lossy(&out.stdout).lines() {
            let record = json::parse(record).expect("a clippy JSON record");
            test_build |= at(&record, &["profile", "test"]) == Some(&yes);
            let Some(msg) = at(&record, &["message"]) else {
                continue;
            };
            let code = at(msg, &["code", "code"]).and_then(Json::as_str);
            let spans = at(msg, &["spans"]).and_then(Json::as_arr).unwrap_or(&[]);
            let primary = spans.iter().find(|s| at(s, &["is_primary"]) == Some(&yes));
            let line = primary.and_then(|s| at(s, &["line_start"])?.as_u64());
            found.insert((line, code.unwrap_or("(no code)").to_string()));
        }
        (found, test_build)
    })
}

#[test]
fn every_rule_has_a_planted_violation() {
    let mut rules: BTreeSet<String> = LINTS.iter().map(|l| format!("clippy::{l}")).collect();
    rules.insert("unfulfilled_lint_expectations".into());
    let codes: BTreeSet<String> = tagged().into_iter().map(|(_, c)| c).collect();
    assert_eq!(codes, rules, "every rule needs a tagged plant");
}

#[test]
fn every_disallowed_path_is_planted() {
    let mut list = "";
    for entry in read("clippy.toml").lines() {
        list = entry.strip_suffix(" = [").unwrap_or(list);
        if let Some((_, rest)) = entry.split_once("path = \"") {
            let path = &rest[..rest.find('"').expect("a closing quote")];
            // The whole path: `AtomicU8` must not pass for `AtomicU16`.
            let rest = |l: &str| l.split(path).nth(1).map(str::to_string);
            let whole = |l: &str| rest(l).is_some_and(|r| !r.starts_with(char::is_alphanumeric));
            let tag = format!("{TAG}clippy::{}", list.replace('-', "_"));
            let planted = lines().iter().any(|(_, l)| l.ends_with(&tag) && whole(l));
            assert!(planted, "`{path}` is banned but not planted as `{tag}`");
        }
    }
}

#[test]
fn every_tagged_line_draws_its_lint() {
    let missing: Vec<_> = tagged().difference(&clippy().0).cloned().collect();
    assert!(missing.is_empty(), "rule did not fire on: {missing:?}");
}

#[test]
fn sanctioned_expects_stay_silent() {
    for lint in LINTS {
        let attr = format!("#[expect(clippy::{lint},");
        let sanctioned = |l: &String| l.starts_with(&attr) && !l.contains(TAG);
        assert!(lines().iter().any(|(_, l)| sanctioned(l)), "no `{attr}`");
    }
    let leaked: Vec<_> = clippy().0.difference(&tagged()).cloned().collect();
    assert!(leaked.is_empty(), "untagged diagnostics: {leaked:?}");
}

#[test]
fn test_code_is_linted_with_float_cmp_off() {
    let (found, test_build) = clippy();
    assert!(test_build, "the lib-test build was not linted");
    let start = lines().into_iter().find(|(_, l)| l == "#[cfg(test)]");
    let start = start.expect("a `#[cfg(test)]` module").0;
    let in_tests: Vec<_> = found.iter().filter(|(n, _)| *n >= Some(start)).collect();
    assert!(in_tests.is_empty(), "test code drew: {in_tests:?}");
}

#[test]
fn sim_crates_opt_into_the_crate_level_lints() {
    let has_attr = |text: &str, attr: &str| text.lines().any(|l| l.trim() == attr);
    let fixture = read(FIXTURE);
    assert!(has_attr(&fixture, FLOAT_CMP) && has_attr(&fixture, CAST_TRUNCATION));
    for krate in ["core", "netsim", "transport", "baselines", "workloads"] {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        let cast = has_attr(&lib, CAST_TRUNCATION) || !matches!(krate, "core" | "netsim");
        assert!(
            has_attr(&lib, FLOAT_CMP) && cast,
            "crates/{krate}: an opt-in is missing"
        );
    }
}
