//! JSON writer for the benchmark's own artifacts. The reader is
//! `aq_bench::json`; the value tree is shared.

use aq_bench::json::Json;

/// Render `doc` compactly. Numbers print with every digit `f64` holds.
///
/// # Panics
/// Panics on a NaN or infinite number: no metric may be one.
pub fn render(doc: &Json) -> String {
    let mut out = String::new();
    write(doc, &mut out);
    out
}

/// An object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn write(doc: &Json, out: &mut String) {
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            assert!(n.is_finite(), "non-finite number in benchmark output");
            out.push_str(&n.to_string());
        }
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, value)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(key, out);
                out.push(':');
                write(value, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_round_trips_through_the_repo_parser() {
        let doc = obj([
            ("s", Json::Str("a \"q\" \\ \n\t\u{1} é".to_string())),
            ("n", Json::Num(0.000_000_123_456_789)),
            ("big", Json::Num(28_325_076.0)),
            ("neg", Json::Num(-1.5)),
            ("b", Json::Bool(true)),
            ("z", Json::Null),
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Arr(vec![])])),
            ("o", obj::<&str>([])),
        ]);
        let text = render(&doc);
        assert_eq!(aq_bench::json::parse(&text).expect("parses"), doc);
        assert!(!text.contains('\n'), "one line: {text}");
    }
}
