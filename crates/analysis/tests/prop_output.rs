//! Property tests for the diagnostic output layer: the engine's sort is
//! stable and input-order invariant (so two walks of the same tree render
//! byte-identical documents), and the JSON renderer round-trips through
//! the workspace's own parser (`aq_bench::json`) with nothing lost —
//! including messages that need escaping.

use std::cmp::Ordering;

use aq_analysis::output::{per_rule_counts, render_json};
use aq_analysis::Diagnostic;
use proptest::prelude::*;

const PATHS: &[&str] = &[
    "crates/core/src/config.rs",
    "crates/netsim/src/stats.rs",
    "crates/workloads/src/registry.rs",
    "examples/scalability.rs",
];
const RULES: &[&str] = &["no-wall-clock", "no-float-eq", "unused-allow"];
// Deliberately escape-hostile messages and snippets.
const MESSAGES: &[&str] = &[
    "use of `thread_rng`",
    "`==` on a floating-point operand",
    "scenario \"udp_tcp_share\" has no baseline",
    "path C:\\sim\\run with\ttab",
    "multi\nline",
];

fn diag(spec: (usize, u64, usize, usize)) -> Diagnostic {
    let (path, line, rule, msg) = spec;
    Diagnostic {
        path: PATHS[path % PATHS.len()].to_string(),
        line: line as usize,
        rule: RULES[rule % RULES.len()].to_string(),
        message: MESSAGES[msg % MESSAGES.len()].to_string(),
        snippet: MESSAGES[(msg + 1) % MESSAGES.len()].to_string(),
    }
}

fn engine_sort(diags: &mut [Diagnostic]) {
    diags.sort_by(engine_cmp);
}

/// The engine's ordering: (path, line, rule, message).
fn engine_cmp(a: &Diagnostic, b: &Diagnostic) -> Ordering {
    (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
}

proptest! {
    /// Sorting is idempotent, and the rendered document does not depend
    /// on the order diagnostics were discovered in — the property that
    /// makes `aq-lint --format json` byte-identical across runs.
    #[test]
    fn sorted_render_is_input_order_invariant(
        specs in prop::collection::vec((0usize..8, 1u64..400, 0usize..8, 0usize..8), 0..32),
        rot in 0usize..32,
    ) {
        let mut canonical: Vec<Diagnostic> = specs.iter().copied().map(diag).collect();
        engine_sort(&mut canonical);

        // Idempotence: re-sorting changes nothing.
        let mut twice = canonical.clone();
        engine_sort(&mut twice);
        prop_assert_eq!(&twice, &canonical);

        // Input-order invariance: rotate the discovery order, re-sort,
        // and the rendered bytes must be identical.
        let mut rotated: Vec<Diagnostic> = specs.iter().copied().map(diag).collect();
        if !rotated.is_empty() {
            let mid = rot % rotated.len();
            rotated.rotate_left(mid);
        }
        engine_sort(&mut rotated);
        prop_assert_eq!(render_json(&rotated), render_json(&canonical));
    }

    /// The JSON document survives a round trip through the workspace's
    /// own parser: every field of every diagnostic, the per-rule counts,
    /// and the total.
    #[test]
    fn json_round_trips_through_aq_bench_json(
        specs in prop::collection::vec((0usize..8, 1u64..400, 0usize..8, 0usize..8), 0..32),
    ) {
        let mut diags: Vec<Diagnostic> = specs.iter().copied().map(diag).collect();
        engine_sort(&mut diags);
        let text = render_json(&diags);
        let doc = aq_bench::json::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("render_json is unparseable: {e}")))?;

        let total = doc.get("total").and_then(|t| t.as_u64());
        prop_assert_eq!(total, Some(diags.len() as u64));

        let arr = doc
            .get("diagnostics")
            .and_then(|a| a.as_arr())
            .ok_or_else(|| TestCaseError::fail("no diagnostics array"))?;
        prop_assert_eq!(arr.len(), diags.len());
        for (got, want) in arr.iter().zip(&diags) {
            prop_assert_eq!(got.get("path").and_then(|v| v.as_str()), Some(want.path.as_str()));
            prop_assert_eq!(got.get("line").and_then(|v| v.as_u64()), Some(want.line as u64));
            prop_assert_eq!(got.get("rule").and_then(|v| v.as_str()), Some(want.rule.as_str()));
            prop_assert_eq!(
                got.get("message").and_then(|v| v.as_str()),
                Some(want.message.as_str())
            );
            prop_assert_eq!(
                got.get("snippet").and_then(|v| v.as_str()),
                Some(want.snippet.as_str())
            );
        }

        let counts = doc
            .get("counts")
            .and_then(|c| c.as_obj())
            .ok_or_else(|| TestCaseError::fail("no counts object"))?;
        let want_counts = per_rule_counts(&diags);
        prop_assert_eq!(counts.len(), want_counts.len());
        for ((got_rule, got_n), (want_rule, want_n)) in counts.iter().zip(&want_counts) {
            prop_assert_eq!(got_rule.as_str(), want_rule.as_str());
            prop_assert_eq!(got_n.as_u64(), Some(*want_n as u64));
        }
    }
}
