//! # aq-analysis — determinism lint engine
//!
//! A dependency-free, source-level lint engine for the Augmented Queue
//! workspace. The repository's headline claim is *reproducibility*: the
//! same scenario and seed must produce byte-identical results on any
//! machine. The compiler cannot enforce that property, so this crate
//! checks it in two passes:
//!
//! 1. **Pass 1** ([`index`]) scans every source file once and builds a
//!    lightweight [`index::WorkspaceIndex`] — qualified paths and the
//!    per-file `aq-lint: allow(...)` ledger.
//! 2. **Pass 2** runs two rule classes (see [`rules::RULES`]):
//!    *line rules*, token heuristics over one line at a time (hash-ordered
//!    collections in simulator state, wall-clock reads, OS entropy, float
//!    equality, narrowing casts on 64-bit counters, threads in sim
//!    crates); and *semantic rules* ([`semantic`]), cross-file checks over
//!    the index (RNG seed provenance, stale allows).
//!
//! Diagnostics carry `file:line` positions and come back in a stable
//! (path, line, rule, message) order; [`output`] renders them as text,
//! JSON, or SARIF byte-identically across runs, and [`ratchet`] gates CI
//! on a committed per-rule violation ledger whose counts can only go
//! down. A violation that is deliberate is suppressed per line with the
//! escape hatch
//!
//! ```text
//! let masked = x as u32; // aq-lint: allow(no-narrowing-cast)
//! ```
//!
//! or with a standalone `// aq-lint: allow(<rule>)` comment on the line
//! directly above. Suppressions are themselves audited: an allow that no
//! longer suppresses anything trips the `unused-allow` rule.
//! `tests/static_analysis.rs` at the workspace root runs
//! [`lint_workspace`] over the tree and fails on any unsuppressed
//! violation; `crates/analysis/fixtures/` holds fixtures proving that
//! every rule both fires and honors its escape.

pub mod index;
pub mod output;
pub mod ratchet;
pub mod rules;
pub mod scan;
pub mod semantic;

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use rules::{allow_ledger, allowed_per_line, check_line, in_scope, RuleKind, RULES};
use scan::{scan, tokens, ScannedLine};

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

/// Suppressions consumed in one file: the (effective line, rule) pairs
/// whose `allow(...)` actually swallowed a diagnostic. The `unused-allow`
/// rule reports every ledger entry that never lands in this set.
type UsedAllows = BTreeSet<(usize, String)>;

/// Run the line rules (and the unknown-rule-in-allow audit) over one
/// scanned file, recording which suppressions were used.
fn line_pass(
    rel_path: &str,
    lines: &[ScannedLine],
    allowed: &[Vec<String>],
    used: &mut UsedAllows,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Typos in the escape hatch must not silently suppress nothing:
        // an allow() naming an unknown rule is itself a violation.
        for name in &allowed[idx] {
            if !RULES.iter().any(|r| r.name == *name) {
                out.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: idx + 1,
                    rule: "unknown-rule-in-allow".to_string(),
                    message: format!("`aq-lint: allow({name})` names no known rule"),
                    snippet: line.code.trim().to_string(),
                });
            }
        }
        if line.code.trim().is_empty() {
            continue;
        }
        let toks = tokens(&line.code);
        if toks.is_empty() {
            continue;
        }
        for rule in RULES {
            if rule.kind != RuleKind::Line || !in_scope(rule.name, rel_path) {
                continue;
            }
            let messages = check_line(rule.name, &toks);
            if messages.is_empty() {
                continue;
            }
            if allowed[idx].iter().any(|a| a == rule.name) {
                used.insert((idx + 1, rule.name.to_string()));
                continue;
            }
            for message in messages {
                out.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: idx + 1,
                    rule: rule.name.to_string(),
                    message,
                    snippet: line.code.trim().to_string(),
                });
            }
        }
    }
    out
}

/// Lint a single file's text with the line rules. `rel_path` is the
/// workspace-relative path (forward slashes) used both for rule scoping
/// and in diagnostics. Semantic rules need the whole workspace and run
/// only under [`lint_workspace`].
pub fn lint_file(rel_path: &str, text: &str) -> Vec<Diagnostic> {
    let lines = scan(text);
    let allowed = allowed_per_line(&lines);
    let mut used = UsedAllows::new();
    line_pass(rel_path, &lines, &allowed, &mut used)
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

/// Lint every source file in the workspace rooted at `root`: line rules,
/// then the index-based semantic rules, then the `unused-allow` audit
/// over what the first two left unconsumed. Diagnostics come back in
/// (path, line, rule, message) order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut out = Vec::new();
    let mut files: Vec<(String, Vec<ScannedLine>, Vec<Vec<String>>)> = Vec::new();
    for rel in collect_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let lines = scan(&text);
        let allowed = allowed_per_line(&lines);
        files.push((rel_str, lines, allowed));
    }

    // Pass 1: the workspace index.
    let index = index::WorkspaceIndex {
        files: files
            .iter()
            .map(|(rel_str, lines, _)| index::index_file(rel_str, lines))
            .collect(),
    };

    // Pass 2a: line rules, tracking which allows each file consumed.
    let mut used: Vec<UsedAllows> = Vec::with_capacity(files.len());
    for (rel_str, lines, allowed) in &files {
        let mut u = UsedAllows::new();
        out.extend(line_pass(rel_str, lines, allowed, &mut u));
        used.push(u);
    }

    // Pass 2b: semantic rules over the index, same escape hatch.
    for c in semantic::check_workspace(&index) {
        let Some(fi) = files.iter().position(|(p, _, _)| *p == c.path) else {
            continue;
        };
        let (_, lines, allowed) = &files[fi];
        if c.line >= 1
            && allowed
                .get(c.line - 1)
                .is_some_and(|a| a.iter().any(|r| r == c.rule))
        {
            used[fi].insert((c.line, c.rule.to_string()));
            continue;
        }
        out.push(Diagnostic {
            path: c.path,
            line: c.line,
            rule: c.rule.to_string(),
            message: c.message,
            snippet: lines
                .get(c.line.wrapping_sub(1))
                .map(|l| l.code.trim().to_string())
                .unwrap_or_default(),
        });
    }

    // Pass 2c: the `unused-allow` audit. An entry is stale when nothing
    // consumed it; `allow(unused-allow)` on the same guarded line
    // sanctions the whole group (and is itself exempt, as are unknown
    // rule names — those already fired `unknown-rule-in-allow` above).
    for (fi, (rel_str, lines, _)) in files.iter().enumerate() {
        let ledger = allow_ledger(lines);
        let sanctioned_groups: BTreeSet<usize> = ledger
            .iter()
            .filter(|e| e.rule == "unused-allow")
            .map(|e| e.effective_line)
            .collect();
        for e in &ledger {
            if e.rule == "unused-allow" || rules::rule(&e.rule).is_none() {
                continue;
            }
            if e.effective_line > 0 && used[fi].contains(&(e.effective_line, e.rule.clone())) {
                continue;
            }
            if sanctioned_groups.contains(&e.effective_line) {
                continue;
            }
            let line = &lines[e.directive_line - 1];
            let snippet = if line.code.trim().is_empty() {
                line.comment.trim().to_string()
            } else {
                line.code.trim().to_string()
            };
            out.push(Diagnostic {
                path: rel_str.clone(),
                line: e.directive_line,
                rule: "unused-allow".to_string(),
                message: if e.effective_line == 0 {
                    format!("`aq-lint: allow({})` guards no code line", e.rule)
                } else {
                    format!("`aq-lint: allow({})` suppresses nothing; delete it", e.rule)
                },
                snippet,
            });
        }
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
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 2);
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
