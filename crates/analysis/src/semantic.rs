//! Pass 2b — cross-file semantic rules over the workspace index.
//!
//! Line rules ([`crate::rules::check_line`]) can only see one tokenized
//! line; these rules see the whole [`WorkspaceIndex`] and catch the
//! cross-file invariants that actually break reproduction runs: an RNG
//! constructed off the seed path. (Invariants the compiler or a unit test
//! can hold are not lints: the `DropCause` → counter → report-column chain
//! is an exhaustive `match` in `aq-netsim` plus two unit tests, and
//! scenario-registry ↔ trend-rule ↔ committed-baseline coverage is
//! `trends::tests::default_rules_cover_every_registered_scenario` in
//! `aq-harness`.) Each rule returns [`Candidate`]s; the engine in
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
}
