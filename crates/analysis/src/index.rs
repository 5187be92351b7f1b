//! Pass 1 — the lightweight workspace index.
//!
//! The line rules (pass 2a) see one tokenized line at a time; the
//! semantic rules (pass 2b, [`crate::semantic`]) need *cross-file* facts:
//! which qualified paths are called where. This module derives those
//! facts from the same [`mod@crate::scan`] tokenizer — it is an index,
//! not an AST: just enough structure for the rules, tolerant of code it
//! does not understand.
//!
//! Everything is ordered deterministically (files sorted by path, items
//! in source order) so diagnostics derived from the index are byte-stable
//! run to run.

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

/// Index of one source file.
#[derive(Debug, Clone, Default)]
pub struct FileIndex {
    /// Workspace-relative path, forward-slash separated.
    pub rel_path: String,
    /// `Base::member` occurrences.
    pub qual_paths: Vec<QualPath>,
}

/// The whole-workspace index consumed by [`crate::semantic`].
#[derive(Debug, Clone, Default)]
pub struct WorkspaceIndex {
    /// Per-file indexes, sorted by `rel_path`.
    pub files: Vec<FileIndex>,
}

/// Build a [`FileIndex`] from already-scanned lines (so the engine scans
/// each file exactly once for both passes).
pub fn index_file(rel_path: &str, lines: &[ScannedLine]) -> FileIndex {
    let mut idx = FileIndex {
        rel_path: rel_path.to_string(),
        ..FileIndex::default()
    };

    // Flatten to a (token, line) stream.
    let mut stream: Vec<(Token, usize)> = Vec::new();
    for (li, line) in lines.iter().enumerate() {
        for t in tokens(&line.code) {
            stream.push((t, li + 1));
        }
    }

    index_qual_paths(&stream, &mut idx);
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
}
