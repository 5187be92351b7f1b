//! Line-oriented Rust source scanner.
//!
//! The lint rules operate on *code text* only: string/char literal contents
//! and comments must not trigger them (a doc comment mentioning
//! `thread_rng` is fine), while comments must still be visible separately
//! so the `// aq-lint: allow(<rule>)` escape hatch works. This module
//! performs that split with a small state machine that understands line
//! comments, nested block comments, string/char literals (including raw
//! strings and byte strings), and lifetimes.
//!
//! This is not a full lexer — it tracks just enough structure to blank out
//! the regions the rules must ignore, preserving column positions.

/// One source line, split into lintable code and comment text.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// The line with comments removed and literal contents blanked with
    /// spaces (delimiters kept), columns preserved.
    pub code: String,
    /// Concatenated text of every comment on the line.
    pub comment: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    /// Inside `/* ... */`, tracking nesting depth.
    Block(u32),
    /// Inside a `"..."` string literal.
    Str,
    /// Inside a raw string; the payload is the number of `#`s.
    RawStr(u32),
}

/// Split `text` into [`ScannedLine`]s.
pub fn scan(text: &str) -> Vec<ScannedLine> {
    let mut out = Vec::new();
    let mut state = State::Code;
    for line in text.lines() {
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            match state {
                State::Code => match c {
                    '/' if next == Some('/') => {
                        comment.push_str(&chars[i..].iter().collect::<String>());
                        i = chars.len();
                    }
                    '/' if next == Some('*') => {
                        state = State::Block(1);
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    }
                    // `b"..."` byte strings support the same escapes as
                    // ordinary strings (`\"` does not close them), so they
                    // must take the escape-aware path. Routing them through
                    // the raw-string state used to let an escaped quote
                    // terminate the literal early and leak its remainder
                    // into lintable code.
                    'b' if next == Some('"') => {
                        state = State::Str;
                        code.push(' ');
                        code.push('"');
                        i += 2;
                    }
                    'r' | 'b' if is_raw_string_start(&chars, i) => {
                        let (hashes, consumed) = raw_string_open(&chars, i);
                        state = State::RawStr(hashes);
                        for _ in 0..consumed {
                            code.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        i += consumed;
                    }
                    '\'' => {
                        // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                        let consumed = char_or_lifetime(&chars, i);
                        code.push('\'');
                        for _ in 1..consumed {
                            code.push(' ');
                        }
                        i += consumed;
                    }
                    _ => {
                        code.push(c);
                        i += 1;
                    }
                },
                State::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        comment.push(' ');
                        state = if depth == 1 {
                            code.push_str("  ");
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                State::Str => match c {
                    '\\' => {
                        code.push_str("  ");
                        i += 2;
                    }
                    '"' => {
                        state = State::Code;
                        code.push('"');
                        i += 1;
                    }
                    _ => {
                        code.push(' ');
                        i += 1;
                    }
                },
                State::RawStr(hashes) => {
                    if c == '"' && closes_raw_string(&chars, i, hashes) {
                        state = State::Code;
                        code.push('"');
                        for _ in 0..hashes {
                            code.push(' ');
                        }
                        i += 1 + hashes as usize;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
            }
        }
        // A string continuing past the end of line keeps its state; a
        // line comment never does.
        out.push(ScannedLine { code, comment });
    }
    out
}

/// Does a *raw* string (`r"`, `r#"`, `br"`, `br#"`, ...) start at `i`?
/// Plain `b"..."` byte strings are escape-aware and handled by the caller
/// through the ordinary string state.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Reject identifiers ending in r/b, e.g. `var"..."` cannot occur but
    // `for r in ..` could be followed by `"` only across tokens; requiring
    // the literal to start a token keeps this simple: previous char must
    // not be alphanumeric or `_`.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    match chars.get(j) {
        Some('r') => {
            j += 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
            chars.get(j) == Some(&'"')
        }
        _ => false,
    }
}

/// Number of `#`s and total chars consumed by a raw-string opener at `i`.
fn raw_string_open(chars: &[char], i: usize) -> (u32, usize) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
    }
    let mut hashes = 0;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    // Consume the opening quote too.
    (hashes, j - i + 1)
}

/// Does the `"` at `i` close a raw string with `hashes` `#`s?
fn closes_raw_string(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Chars consumed by a `'`-introduced token: a char literal consumes
/// through its closing quote; a lifetime consumes only the `'`.
fn char_or_lifetime(chars: &[char], i: usize) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: find the closing quote.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' {
                j += 1;
            }
            j - i + 1
        }
        Some(c) if *c != '\'' && chars.get(i + 2) == Some(&'\'') => {
            3 // 'a'
        }
        _ => 1,
    }
}

/// Simple token over blanked code text (see [`tokens`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal (int or float, with suffix if any).
    Number(String),
    /// Operator / punctuation, multi-char ops kept whole.
    Punct(String),
}

impl Token {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Is this token a floating-point literal (`1.0`, `1e9`, `2f64`)?
    pub fn is_float_literal(&self) -> bool {
        let Token::Number(s) = self else { return false };
        s.contains('.')
            || s.ends_with("f32")
            || s.ends_with("f64")
            || (s.contains(['e', 'E'])
                && !s.starts_with("0x")
                && !s.starts_with("0X")
                && !s.starts_with("0b"))
    }
}

const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "==", "!=", "<=", ">=", "=>", "->", "::", "..", "&&", "||", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Tokenize blanked code text. Literal contents were already blanked by
/// [`scan`], so strings appear as bare `"` pairs and never produce
/// identifier or number tokens.
pub fn tokens(code: &str) -> Vec<Token> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token::Ident(chars[start..i].iter().collect()));
        } else if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < chars.len() {
                let ch = chars[i];
                if ch.is_alphanumeric() || ch == '_' {
                    i += 1;
                } else if ch == '.'
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                    && !chars[start..i].contains(&'.')
                {
                    i += 1; // decimal point of a float, not a `..` range
                } else if (ch == '+' || ch == '-')
                    && matches!(chars[i - 1], 'e' | 'E')
                    && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                    && !(chars[start] == '0'
                        && chars
                            .get(start + 1)
                            .is_some_and(|c| matches!(c, 'x' | 'X' | 'b' | 'B' | 'o' | 'O')))
                {
                    i += 1; // signed exponent of a float like `1e-9`
                } else {
                    break;
                }
            }
            out.push(Token::Number(chars[start..i].iter().collect()));
        } else {
            let rest: String = chars[i..chars.len().min(i + 3)].iter().collect();
            let matched = MULTI_PUNCT.iter().find(|op| rest.starts_with(**op));
            match matched {
                Some(op) => {
                    out.push(Token::Punct((*op).to_string()));
                    i += op.len();
                }
                None => {
                    out.push(Token::Punct(c.to_string()));
                    i += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> Vec<String> {
        scan(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_stripped_but_kept_as_comment() {
        let lines = scan("let x = 1; // thread_rng mention\n");
        assert!(!lines[0].code.contains("thread_rng"));
        assert!(lines[0].comment.contains("thread_rng"));
    }

    #[test]
    fn string_contents_are_blanked() {
        let c = code_of("let s = \"Instant::now\"; let t = 2;");
        assert!(!c[0].contains("Instant"));
        assert!(c[0].contains("let t = 2;"));
    }

    #[test]
    fn block_comments_span_lines_and_nest() {
        let c = code_of("a /* x\n /* y */ still\n done */ b");
        assert!(c[0].starts_with('a'));
        assert!(!c[1].contains("still"));
        assert!(c[2].trim_start().ends_with('b'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = code_of(r##"let s = r#"HashMap"#; let u = 3;"##);
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let u = 3;"));
    }

    #[test]
    fn byte_strings_honor_escaped_quotes() {
        // Regression: `b"..."` used to be scanned as a raw string, so the
        // escaped quote closed it early and leaked the tail into code.
        let c = code_of(r#"let s = b"a\"HashMap\"b"; let u = 3;"#);
        assert!(!c[0].contains("HashMap"), "leaked: {:?}", c[0]);
        assert!(c[0].contains("let u = 3;"));
        // Raw byte strings stay raw: `\"` is a backslash then a real close.
        let c = code_of(r##"let s = br"x\"; HashMap"##);
        assert!(c[0].contains("HashMap"), "raw byte string over-blanked");
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let c = code_of("fn f<'a>(x: &'a str) { let c = 'z'; let d = '\\n'; }");
        assert!(c[0].contains("'a"));
        assert!(!c[0].contains('z'));
    }

    #[test]
    fn multiline_strings_keep_state() {
        let c = code_of("let s = \"SystemTime::now\nHashSet\"; let ok = 1;");
        assert!(!c[0].contains("SystemTime"));
        assert!(!c[1].contains("HashSet"));
        assert!(c[1].contains("let ok = 1;"));
    }

    #[test]
    fn tokenizer_splits_operators_and_floats() {
        let toks = tokens("a == 1.0 && b != c as f64 .. 0..10");
        assert!(toks.contains(&Token::Punct("==".into())));
        assert!(toks.contains(&Token::Punct("!=".into())));
        assert!(toks.contains(&Token::Number("1.0".into())));
        assert!(toks.contains(&Token::Punct("..".into())));
        assert!(Token::Number("1.0".into()).is_float_literal());
        assert!(Token::Number("2e9".into()).is_float_literal());
        assert!(Token::Number("3f64".into()).is_float_literal());
        assert!(!Token::Number("10".into()).is_float_literal());
        assert!(!Token::Number("0x1E".into()).is_float_literal());
    }
}
