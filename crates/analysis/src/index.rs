//! Pass 1 — the lightweight workspace index.
//!
//! The line rules (pass 2a) see one tokenized line at a time; the
//! semantic rules (pass 2b, [`crate::semantic`]) need *cross-file* facts:
//! which qualified paths are called where, which string literals name
//! scenarios, and which committed baselines cover them. This module derives those facts from the same
//! [`mod@crate::scan`] tokenizer — it is an index, not an AST: just enough
//! structure for the rules, tolerant of code it does not understand.
//!
//! Everything is ordered deterministically (files sorted by path, items
//! in source order) so diagnostics derived from the index are byte-stable
//! run to run.

use std::collections::BTreeMap;

use crate::scan::{tokens, ScannedLine, Token};

/// A `Base::member` qualified-path occurrence.
#[derive(Debug, Clone)]
pub struct QualPath {
    /// 1-based line.
    pub line: usize,
    /// Path base (the segment before `::`).
    pub base: String,
    /// Path member (the segment after `::`).
    pub member: String,
    /// Whether the member is immediately called (`Base::member(...)`).
    pub called: bool,
}

/// A `field: "literal"` struct-literal member whose value is a string.
#[derive(Debug, Clone)]
pub struct FieldString {
    /// Field name.
    pub field: String,
    /// The string literal's contents.
    pub value: String,
    /// 1-based line.
    pub line: usize,
    /// Name of the innermost enclosing struct literal (`ScenarioDef { .. }`
    /// records `ScenarioDef`; enum-variant literals record the variant).
    /// `None` when the literal context could not be determined.
    pub in_literal: Option<String>,
}

/// Index of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Workspace-relative path, forward-slash separated.
    pub rel_path: String,
    /// `Base::member` occurrences.
    pub qual_paths: Vec<QualPath>,
    /// `field: "literal"` struct-literal members.
    pub field_strings: Vec<FieldString>,
}

/// The whole-workspace index consumed by [`crate::semantic`].
#[derive(Debug, Clone, Default)]
pub struct WorkspaceIndex {
    /// Per-file indexes, sorted by `rel_path`.
    pub files: Vec<FileIndex>,
    /// Scenario names found in committed baseline sweeps, mapped to the
    /// baseline names (`smoke`, `extended`, ...) that cover them.
    pub baseline_scenarios: BTreeMap<String, Vec<String>>,
}

/// Build a [`FileIndex`] from already-scanned lines (so the engine scans
/// each file exactly once for both passes).
pub fn index_file(rel_path: &str, lines: &[ScannedLine]) -> FileIndex {
    let mut idx = FileIndex {
        rel_path: rel_path.to_string(),
        ..FileIndex::default()
    };

    // Flatten to a (token, line) stream; string literals were blanked by
    // the scanner, so `"` puncts mark where each literal sits.
    let mut stream: Vec<(Token, usize)> = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        for t in tokens(&line.code) {
            stream.push((t, li + 1));
        }
    }

    index_qual_paths(&stream, &mut idx);
    index_field_strings(lines, &stream, &mut idx);
    idx
}

/// Extract `Base::member` pairs and whether each is called.
fn index_qual_paths(stream: &[(Token, usize)], idx: &mut FileIndex) {
    for i in 0..stream.len().saturating_sub(2) {
        let (Token::Ident(base), line) = (&stream[i].0, stream[i].1) else {
            continue;
        };
        let Token::Punct(sep) = &stream[i + 1].0 else {
            continue;
        };
        if sep != "::" {
            continue;
        }
        let Token::Ident(member) = &stream[i + 2].0 else {
            continue;
        };
        let called = matches!(stream.get(i + 3), Some((Token::Punct(p), _)) if p == "(");
        idx.qual_paths.push(QualPath {
            line,
            base: base.clone(),
            member: member.clone(),
            called,
        });
    }
}

/// Extract `field: "literal"` struct-literal members, labeling each with
/// its innermost enclosing struct-literal name. The literal tracker is a
/// heuristic: an uppercase identifier directly followed by `{` (not
/// preceded by `impl`/`for`/`trait`/`struct`/`enum`/`union`/`mod`) opens
/// a literal scope that closes at its matching `}`.
fn index_field_strings(lines: &[ScannedLine], stream: &[(Token, usize)], idx: &mut FileIndex) {
    let mut depth: u32 = 0;
    let mut literal_stack: Vec<(String, u32)> = Vec::new();
    // `"` puncts seen so far on the current line. Each complete literal on
    // a line contributes two (open + close), so the literal opening at
    // quote-punct number q is the line's (q / 2)-th string. (A line that
    // *starts* inside a multi-line string shifts this pairing, but such a
    // line cannot also start a struct-literal field value.)
    let mut quotes_on_line = 0usize;
    let mut cur_line = 0usize;

    for i in 0..stream.len() {
        let (t, line) = (&stream[i].0, stream[i].1);
        if line != cur_line {
            cur_line = line;
            quotes_on_line = 0;
        }
        let Token::Punct(p) = t else { continue };
        match p.as_str() {
            "{" => {
                // `Name {` opens a struct-literal scope.
                if let Some((Token::Ident(name), _)) = i.checked_sub(1).map(|j| &stream[j]) {
                    let kw_before = i
                        .checked_sub(2)
                        .map(|j| &stream[j].0)
                        .and_then(Token::ident);
                    let item_kw = matches!(
                        kw_before,
                        Some("impl" | "for" | "trait" | "struct" | "enum" | "union" | "mod")
                    );
                    if !item_kw && name.chars().next().is_some_and(char::is_uppercase) {
                        literal_stack.push((name.clone(), depth));
                    }
                }
                depth += 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if literal_stack.last().is_some_and(|(_, d)| *d == depth) {
                    literal_stack.pop();
                }
            }
            "\"" => quotes_on_line += 1,
            ":" => {
                // `field : "` — the `"` punct marks the blanked literal.
                // (`::` is a single token, so its halves never land here.)
                let field = i
                    .checked_sub(1)
                    .map(|j| &stream[j].0)
                    .and_then(Token::ident);
                let is_str = matches!(stream.get(i + 1), Some((Token::Punct(q), l)) if q == "\"" && *l == line);
                if let (Some(field), true) = (field, is_str) {
                    if let Some(value) = lines[line - 1].strings.get(quotes_on_line / 2) {
                        idx.field_strings.push(FieldString {
                            field: field.to_string(),
                            value: value.clone(),
                            line,
                            in_literal: literal_stack.last().map(|(n, _)| n.clone()),
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn idx(src: &str) -> FileIndex {
        index_file("crates/x/src/lib.rs", &scan(src))
    }

    #[test]
    fn qual_paths_record_call_position() {
        let i = idx("let r = SmallRng::seed_from_u64(seed);\nlet k = DropCause::Taildrop;\n");
        let called: Vec<(&str, &str, bool)> = i
            .qual_paths
            .iter()
            .map(|q| (q.base.as_str(), q.member.as_str(), q.called))
            .collect();
        assert!(called.contains(&("SmallRng", "seed_from_u64", true)));
        assert!(called.contains(&("DropCause", "Taildrop", false)));
    }

    #[test]
    fn field_strings_know_their_enclosing_literal() {
        let i = idx("const R: &[ScenarioDef] = &[ScenarioDef {\n    \
             name: \"fairness_flows\",\n    \
             params: &[ParamDef { name: \"n_flows\", default: \"4\" }],\n}];\n");
        let by_value: Vec<(&str, &str, Option<&str>)> = i
            .field_strings
            .iter()
            .map(|f| (f.field.as_str(), f.value.as_str(), f.in_literal.as_deref()))
            .collect();
        assert!(by_value.contains(&(("name"), "fairness_flows", Some("ScenarioDef"))));
        assert!(by_value.contains(&(("name"), "n_flows", Some("ParamDef"))));
        assert!(by_value.contains(&(("default"), "4", Some("ParamDef"))));
    }

    #[test]
    fn impl_blocks_do_not_open_literal_scopes() {
        let i = idx(
            "impl StatsHub {\n    fn f(&self) { let t = TrendRule::AtLeast { \
                     scenario: \"cc_mix\", min: 1.0 }; }\n}\n",
        );
        let f = &i.field_strings[0];
        assert_eq!(f.value, "cc_mix");
        assert_eq!(f.in_literal.as_deref(), Some("AtLeast"));
    }
}
