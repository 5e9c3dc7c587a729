//! The JSON parser behind every input redspot reads (protocol lines,
//! traces, profiles, journals) on inputs that once aborted it or were
//! wrongly refused: nesting past its depth limit returns an error instead
//! of overflowing the stack, and escaped surrogate pairs decode.

use redspot_core::serve::serve_stdio;
use serde::Value;

fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn nesting_stops_at_128_levels() {
    let parsed: Value = serde_json::from_str(&nested(128)).expect("128 levels parse");
    let mut levels = 0;
    let mut v = &parsed;
    while let Value::Seq(items) = v {
        levels += 1;
        match items.first() {
            Some(inner) => v = inner,
            None => break,
        }
    }
    assert_eq!(levels, 128);
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
    let objects = format!("{}1{}", r#"{"a":"#.repeat(129), "}".repeat(129));
    assert!(serde_json::from_str::<Value>(&objects).is_err());
}

#[test]
fn a_line_of_open_brackets_is_an_error_not_an_abort() {
    let err = serde_json::from_str::<Value>(&"[".repeat(200_000)).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_fail() {
    let s: String = serde_json::from_str(r#""\ud83d\ude00""#).unwrap();
    assert_eq!(s, "\u{1F600}");
    let s: String = serde_json::from_str(r#""a\uD83D\uDE00b""#).unwrap();
    assert_eq!(s, "a\u{1F600}b");
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83d\ud83d""#,
        r#""\u+fff""#,
    ] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn serve_answers_a_deeply_nested_line_and_keeps_serving() {
    let script = format!(
        "{}\n{}\n",
        "[".repeat(200_000),
        r#"{"req":"open","market":"m","zones":1}"#
    );
    let mut out = Vec::new();
    let clean = serve_stdio(script.as_bytes(), &mut out).expect("session runs");
    assert!(!clean, "the bad line marks the session dirty");
    let text = String::from_utf8(out).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    assert_eq!(replies.len(), 2, "{text}");
    assert!(replies[0].contains(r#""ok":false"#), "{text}");
    assert!(replies[1].contains(r#""ok":true"#), "{text}");
}
