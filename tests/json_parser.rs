//! The JSON parser behind every input redspot reads (protocol lines,
//! traces, profiles, journals) on inputs that once aborted it or were
//! wrongly refused or accepted: nesting past its depth limit returns an
//! error instead of overflowing the stack, escaped surrogate pairs decode,
//! and numbers and strings follow RFC 8259.

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

#[test]
fn numbers_follow_rfc_8259() {
    for bad in [
        "01", "-01", "00", "1.", "1.e5", "1e", "1e+", "-", "--1", "1-2", "1.5.2",
    ] {
        assert!(serde_json::from_str::<Value>(bad).is_err(), "{bad}");
        let inside = format!("[{bad}]");
        assert!(serde_json::from_str::<Value>(&inside).is_err(), "{inside}");
    }
    assert!(serde_json::from_str::<u64>("01").is_err());
    for (good, want) in [
        ("0", Value::UInt(0)),
        ("-0", Value::Int(0)),
        ("0.5", Value::Float(0.5)),
        ("1e5", Value::Float(1e5)),
        ("1E+5", Value::Float(1e5)),
        ("-1.5e-3", Value::Float(-1.5e-3)),
        ("18446744073709551615", Value::UInt(u64::MAX)),
    ] {
        assert_eq!(serde_json::from_str::<Value>(good).unwrap(), want, "{good}");
        let inside = format!("[{good}]");
        assert_eq!(
            serde_json::from_str::<Value>(&inside).unwrap(),
            Value::Seq(vec![want]),
            "{inside}"
        );
    }
}

#[test]
fn strings_reject_raw_control_characters() {
    for raw in ["\"a\nb\"", "\"a\tb\"", "\"\r\n\"", "\"\0\"", "\"\u{1f}\""] {
        assert!(serde_json::from_str::<String>(raw).is_err(), "{raw:?}");
    }
    // Escaped, every one of them parses; the writer escapes them all.
    let controls: String = (0u8..0x20).map(char::from).collect();
    let json = serde_json::to_string(&controls).unwrap();
    assert!(json.bytes().all(|b| b >= 0x20), "{json:?}");
    assert_eq!(serde_json::from_str::<String>(&json).unwrap(), controls);
    // DEL is not a control character in JSON's sense.
    assert_eq!(
        serde_json::from_str::<String>("\"\u{7f}\"").unwrap(),
        "\u{7f}"
    );
}
