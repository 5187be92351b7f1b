//! Pass 2b — cross-file semantic rules over the workspace index.
//!
//! Line rules ([`crate::rules::check_line`]) can only see one tokenized
//! line; these rules see the whole [`WorkspaceIndex`] and catch the
//! cross-file invariants that actually break reproduction runs: an RNG
//! constructed off the seed path, a registry scenario no trend rule or
//! baseline watches. (Invariants the compiler can hold are not lints: the
//! `DropCause` → counter → report-column chain is an exhaustive `match`
//! in `aq-netsim` plus two unit tests.) Each rule returns [`Candidate`]s; the engine in
//! [`crate::lint_workspace`] applies `aq-lint: allow(...)` suppression and
//! final ordering.

use crate::index::WorkspaceIndex;

/// A semantic-rule violation before allow-suppression.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Workspace-relative path the diagnostic anchors to.
    pub path: String,
    /// 1-based anchor line.
    pub line: usize,
    /// Rule name (one of the `Semantic` entries in [`crate::rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

/// Run every index-based semantic rule. (`unused-allow` is not here: it
/// depends on which suppressions the other rules consumed, so the engine
/// evaluates it last.)
pub fn check_workspace(index: &WorkspaceIndex) -> Vec<Candidate> {
    let mut out = Vec::new();
    rng_provenance(index, &mut out);
    registry_coverage(index, &mut out);
    out
}

/// RNG type names whose associated constructors are audited: any
/// `<Name ending in Rng>::method(...)` call that is not one of the seeded
/// constructors is flagged. The OS-entropy constructors are already banned
/// by `no-os-entropy`; this rule additionally catches the *entropy-free
/// but unseeded* ones (`default`, `new`, `from_rng` of an ambient
/// generator) that still break (scenario, seed) purity.
const SEEDED_CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed"];

/// RNG assoc-fn members that are not constructors at all (trait plumbing
/// and instance-style calls routed through the type).
const NON_CONSTRUCTORS: &[&str] = &[
    "next_u32",
    "next_u64",
    "fill_bytes",
    "try_fill_bytes",
    "gen_range",
];

fn rng_provenance(index: &WorkspaceIndex, out: &mut Vec<Candidate>) {
    for file in &index.files {
        // The vendored rand stub legitimately implements the constructors
        // it re-exports; everything else must go through the seed path.
        if file.rel_path.starts_with("vendor/") {
            continue;
        }
        for q in &file.qual_paths {
            if !q.called
                || !q.base.ends_with("Rng")
                || SEEDED_CONSTRUCTORS.contains(&q.member.as_str())
                || NON_CONSTRUCTORS.contains(&q.member.as_str())
            {
                continue;
            }
            out.push(Candidate {
                path: file.rel_path.clone(),
                line: q.line,
                rule: "rng-provenance",
                message: format!(
                    "`{}::{}` constructs an RNG off the seed path; derive it \
                     with seed_from_u64/from_seed from a propagated seed",
                    q.base, q.member
                ),
            });
        }
    }
}

fn registry_coverage(index: &WorkspaceIndex, out: &mut Vec<Candidate>) {
    // The scenario registry: `name: "..."` fields of ScenarioDef literals
    // in a `src/registry.rs`. Silent when the tree has none.
    let Some(registry) = index
        .files
        .iter()
        .find(|f| f.rel_path.ends_with("src/registry.rs"))
    else {
        return;
    };
    let scenarios: Vec<(&str, usize)> = registry
        .field_strings
        .iter()
        .filter(|f| f.field == "name" && f.in_literal.as_deref() == Some("ScenarioDef"))
        .map(|f| (f.value.as_str(), f.line))
        .collect();
    if scenarios.is_empty() {
        return;
    }

    // Trend rules: `scenario: "..."` fields in a `src/trends.rs`.
    let trend_file = index
        .files
        .iter()
        .find(|f| f.rel_path.ends_with("src/trends.rs"));
    let trends: Vec<(&str, usize)> = trend_file
        .map(|f| {
            f.field_strings
                .iter()
                .filter(|fs| fs.field == "scenario")
                .map(|fs| (fs.value.as_str(), fs.line))
                .collect()
        })
        .unwrap_or_default();

    for (scenario, line) in &scenarios {
        if !trends.iter().any(|(t, _)| t == scenario) {
            out.push(Candidate {
                path: registry.rel_path.clone(),
                line: *line,
                rule: "registry-coverage",
                message: format!(
                    "scenario `{scenario}` has no trend rule in {}",
                    trend_file.map_or("crates/harness/src/trends.rs", |f| f.rel_path.as_str())
                ),
            });
        }
        if !index.baseline_scenarios.contains_key(*scenario) {
            out.push(Candidate {
                path: registry.rel_path.clone(),
                line: *line,
                rule: "registry-coverage",
                message: format!(
                    "scenario `{scenario}` has no committed baseline sweep \
                     under baselines/expected/"
                ),
            });
        }
    }

    if let Some(trend_file) = trend_file {
        for (scenario, line) in &trends {
            if !scenarios.iter().any(|(s, _)| s == scenario) {
                out.push(Candidate {
                    path: trend_file.rel_path.clone(),
                    line: *line,
                    rule: "registry-coverage",
                    message: format!(
                        "trend rule names scenario `{scenario}`, which is not \
                         in {}; the rule is dangling",
                        registry.rel_path
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{index_file, WorkspaceIndex};
    use crate::scan::scan;

    fn ws(files: &[(&str, &str)]) -> WorkspaceIndex {
        let mut idx = WorkspaceIndex::default();
        for (path, src) in files {
            idx.files.push(index_file(path, &scan(src)));
        }
        idx
    }

    fn rules_fired(cands: &[Candidate]) -> Vec<(&str, &str, usize)> {
        cands
            .iter()
            .map(|c| (c.rule, c.path.as_str(), c.line))
            .collect()
    }

    #[test]
    fn rng_provenance_flags_unseeded_constructors_only() {
        let idx = ws(&[(
            "crates/workloads/src/gen.rs",
            "let a = SmallRng::seed_from_u64(seed);\n\
             let b = SmallRng::from_rng(&mut a);\n\
             let c = StdRng::default();\n\
             let d: SmallRng = other;\n",
        )]);
        let fired = check_workspace(&idx);
        assert_eq!(
            rules_fired(&fired),
            vec![
                ("rng-provenance", "crates/workloads/src/gen.rs", 2),
                ("rng-provenance", "crates/workloads/src/gen.rs", 3),
            ]
        );
    }

    #[test]
    fn rng_provenance_skips_vendor() {
        let idx = ws(&[("vendor/rand/src/lib.rs", "let r = SmallRng::from_rng(x);\n")]);
        assert!(check_workspace(&idx).is_empty());
    }

    #[test]
    fn registry_coverage_cross_checks_trends_and_baselines() {
        let registry = "pub const SCENARIOS: &[ScenarioDef] = &[\n\
             ScenarioDef { name: \"covered\", params: &[ParamDef { name: \"n\" }] },\n\
             ScenarioDef { name: \"orphan\", params: &[] },\n];\n";
        let trends = "pub const DEFAULT_RULES: &[TrendRule] = &[\n\
             TrendRule::AtLeast { scenario: \"covered\", min: 1 },\n\
             TrendRule::AtLeast { scenario: \"ghost\", min: 1 },\n];\n";
        let mut idx = ws(&[
            ("crates/workloads/src/registry.rs", registry),
            ("crates/harness/src/trends.rs", trends),
        ]);
        idx.baseline_scenarios
            .insert("covered".to_string(), vec!["smoke".to_string()]);
        let fired = check_workspace(&idx);
        let got = rules_fired(&fired);
        // `orphan`: no trend rule + no baseline; `ghost`: dangling.
        assert_eq!(
            got,
            vec![
                ("registry-coverage", "crates/workloads/src/registry.rs", 3),
                ("registry-coverage", "crates/workloads/src/registry.rs", 3),
                ("registry-coverage", "crates/harness/src/trends.rs", 3),
            ],
            "{fired:?}"
        );
        // ParamDef names never masquerade as scenarios.
        assert!(!fired.iter().any(|c| c.message.contains("`n`")));
    }

    #[test]
    fn registry_coverage_silent_without_a_registry() {
        let idx = ws(&[("crates/harness/src/trends.rs", "fn f() {}\n")]);
        assert!(check_workspace(&idx).is_empty());
    }
}
