//! # aq-analysis — determinism lint engine
//!
//! A dependency-free, source-level lint engine for the Augmented Queue
//! workspace. The repository's headline claim is *reproducibility*: the
//! same scenario and seed must produce byte-identical results on any
//! machine. What the compiler can hold, it holds (every RNG is seeded
//! because the vendored `rand` has no other constructor — pinned by the
//! `compile_fail` doctests in the root `src/lib.rs`); this crate checks
//! the rest in one pass per file:
//!
//! 1. [`mod@scan`] splits the file into code and comment text, once;
//! 2. the *line rules* ([`rules::RULES`]) run token heuristics over one
//!    line at a time (hash-ordered collections in simulator state,
//!    wall-clock reads, float equality, narrowing casts on 64-bit
//!    counters, threads in sim crates, shared mutability in the sharded
//!    driver);
//! 3. the allow audit reports every `aq-lint: allow(...)` that names no
//!    rule (`unknown-rule-in-allow`) or that step 2 did not consume
//!    (`unused-allow`).
//!
//! Diagnostics carry `file:line` positions and come back in a stable
//! (path, line, rule, message) order; [`output`] renders them as text or
//! JSON byte-identically across runs. A violation that is deliberate is
//! suppressed per line with the escape hatch
//!
//! ```text
//! let masked = x as u32; // aq-lint: allow(no-narrowing-cast)
//! ```
//!
//! or with a standalone `// aq-lint: allow(<rule>)` comment on the line
//! directly above. `tests/static_analysis.rs` at the workspace root runs
//! [`lint_workspace`] over the tree and fails on any unsuppressed
//! violation; `crates/analysis/fixtures/` holds fixtures proving that
//! every rule both fires and honors its escape.

pub mod output;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

use rules::{allow_ledger, check_line, in_scope, RULES};
use scan::{scan, tokens};

/// One lint finding, positioned at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward-slash separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name, e.g. `no-wall-clock`.
    pub rule: String,
    /// What was found on the line.
    pub message: String,
    /// The offending line's code text, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: `{}`",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Lint one file's text: the line rules in line order, then the audit of
/// its `aq-lint: allow(...)` directives. `rel_path` is the
/// workspace-relative path (forward slashes) used both for rule scoping
/// and in diagnostics.
pub fn lint_file(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let lines = scan(text);
    let ledger = allow_ledger(&lines);
    let diag = |line: usize, rule: &str, message: String| {
        let l = &lines[line - 1];
        let code = l.code.trim();
        Diagnostic {
            path: rel_path.to_string(),
            line,
            rule: rule.to_string(),
            message,
            snippet: if code.is_empty() {
                l.comment.trim()
            } else {
                code
            }
            .to_string(),
        }
    };
    let rules: Vec<_> = RULES
        .iter()
        .filter(|r| in_scope(r.name, rel_path))
        .collect();
    let mut out = Vec::new();
    // Which ledger entries swallowed a diagnostic.
    let mut used = vec![false; ledger.len()];
    for (idx, line) in lines.iter().enumerate() {
        let toks = tokens(&line.code);
        if toks.is_empty() {
            continue;
        }
        for rule in &rules {
            let messages = check_line(rule.name, &toks);
            if messages.is_empty() {
                continue;
            }
            let mut allowed = false;
            for (e, used) in ledger.iter().zip(&mut used) {
                if e.effective_line == idx + 1 && e.rule == rule.name {
                    *used = true;
                    allowed = true;
                }
            }
            if !allowed {
                out.extend(messages.into_iter().map(|m| diag(idx + 1, rule.name, m)));
            }
        }
    }
    for (e, used) in ledger.iter().zip(used) {
        if rules::rule(&e.rule).is_none() {
            // Typos in the escape hatch must not silently suppress
            // nothing: an allow() naming an unknown rule is a violation.
            out.push(diag(
                e.directive_line,
                "unknown-rule-in-allow",
                format!("`aq-lint: allow({})` names no known rule", e.rule),
            ));
        } else if !used {
            out.push(diag(
                e.directive_line,
                "unused-allow",
                if e.effective_line == 0 {
                    format!("`aq-lint: allow({})` guards no code line", e.rule)
                } else {
                    format!("`aq-lint: allow({})` suppresses nothing; delete it", e.rule)
                },
            ));
        }
    }
    out
}

/// Deterministically collect every lintable `.rs` file under `root`
/// (workspace-relative, sorted). Skips build output, VCS metadata, and
/// this crate's own lint fixtures (which violate the rules on purpose).
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    walk(root, Path::new(""), &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(abs: &Path, rel: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(abs)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel_child = rel.join(name);
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            if rel_child == Path::new("crates/analysis/fixtures") {
                continue;
            }
            walk(&path, &rel_child, files)?;
        } else if name.ends_with(".rs") {
            files.push(rel_child);
        }
    }
    Ok(())
}

/// [`lint_file`] over every source file in the workspace rooted at
/// `root`. Diagnostics come back in (path, line, rule, message) order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    for rel in collect_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        out.extend(lint_file(&rel_str, &text));
    }
    out.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_file_reports_position_and_rule() {
        let diags = lint_file(
            "crates/core/src/x.rs",
            "use std::collections::BTreeMap;\nuse std::collections::HashMap;\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[0].rule, "no-hash-collections");
        assert!(diags[0].to_string().starts_with("crates/core/src/x.rs:2:"));
    }

    #[test]
    fn allow_escape_suppresses_only_named_rule() {
        let src = "let a = x as u32; // aq-lint: allow(no-narrowing-cast)\n\
                   let b = y as u32; // aq-lint: allow(no-float-eq)\n";
        let diags = lint_file("crates/netsim/src/x.rs", src);
        let fired: Vec<(usize, &str)> = diags.iter().map(|d| (d.line, d.rule.as_str())).collect();
        // Line 2's cast fires, and the allow that missed it is stale.
        assert_eq!(fired, [(2, "no-narrowing-cast"), (2, "unused-allow")]);
    }

    #[test]
    fn an_allow_with_no_code_below_it_is_flagged_with_its_comment_as_snippet() {
        let diags = lint_file(
            "crates/core/src/x.rs",
            "let a = 1;\n// aq-lint: allow(no-float-eq)\n",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].line, diags[0].rule.as_str()), (2, "unused-allow"));
        assert!(diags[0].message.contains("guards no code line"));
        assert_eq!(diags[0].snippet, "// aq-lint: allow(no-float-eq)");
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let diags = lint_file(
            "crates/core/src/x.rs",
            "let a = 1; // aq-lint: allow(no-such-rule)\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unknown-rule-in-allow");
    }

    #[test]
    fn out_of_scope_files_are_clean() {
        let diags = lint_file(
            "crates/core/tests/t.rs",
            "use std::collections::HashMap;\nlet x = a as u32;\n",
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let diags = lint_file(
            "crates/core/src/x.rs",
            "// HashMap is banned here\nlet s = \"HashMap\";\n",
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn raw_strings_do_not_fire() {
        // Regression for the scanner's raw/byte-string handling: banned
        // identifiers inside raw string literals are data, not code.
        let diags = lint_file(
            "crates/core/src/x.rs",
            "let a = r#\"HashMap thread_rng\"#;\nlet b = b\"x\\\"HashMap\\\"y\";\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
