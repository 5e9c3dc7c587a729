//! The JSON parser and the `serve` request parser return on any input,
//! `Ok` or `Err`, and never panic: over arbitrary bytes (decoded as lossy
//! UTF-8, as a protocol line would be) and over structured junk built from
//! the inputs parsers get wrong — malformed numbers, deep nesting, bad
//! `\u` escapes, raw NUL and CRLF. Inputs stay at most a few hundred
//! bytes, because the vendored proptest does not shrink.

use proptest::prelude::*;
use redspot_core::serve::parse_request;
use serde::Value;

/// Fragments the structured inputs are spliced from: valid JSON, near
/// misses, and bytes that are never valid where they land.
const FRAGMENTS: &[&str] = &[
    // Numbers RFC 8259 forbids, and some it allows.
    "01",
    "-01",
    "00",
    "1.",
    "1.e5",
    "1e",
    "1e+",
    "-",
    "--1",
    "1-2",
    "1.5.2",
    "0",
    "-0",
    "1E+5",
    "-1.5e-3",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1e999",
    // Bad and good `\u` escapes.
    r#""\u12""#,
    r#""\uZZZZ""#,
    r#""\ud800""#,
    r#""\udc00\ud800""#,
    r#""😀""#,
    r#""\u"#,
    // Raw NUL, CRLF and other controls, inside and outside strings.
    "\0",
    "\"\0\"",
    "\r\n",
    "\"a\r\nb\"",
    "\t",
    // Structure.
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "null",
    "tru",
    r#"{"req":"open","market":"m","zones":1}"#,
    r#"{"req":"ingest","market":"m","prices":[[270]]}"#,
    r#"{"req":"advise","market":"m","work":3600,"deadline":7200}"#,
    r#""req""#,
    r#""zones":"#,
];

/// A structured input: up to 12 fragments, wrapped in `depth` levels of
/// arrays or objects (past the parser's 128-level limit at the top).
fn junk() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(0..FRAGMENTS.len(), 1..12),
        0usize..160,
        0u8..3,
    )
        .prop_map(|(picks, depth, wrap)| {
            let body: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            let (open, close) = match wrap {
                0 => ("[", "]"),
                1 => (r#"{"a":"#, "}"),
                _ => ("", ""),
            };
            format!("{}{body}{}", open.repeat(depth), close.repeat(depth))
        })
}

/// Parse `line` both ways. A panic fails the test; so does a value the
/// parser accepts but whose rendering it then refuses.
fn parse_both(line: &str) {
    if let Ok(v) = serde_json::from_str::<Value>(line) {
        let rendered = serde_json::to_string(&v).unwrap();
        assert!(
            serde_json::from_str::<Value>(&rendered).is_ok(),
            "{line:?} parsed, but its rendering {rendered:?} did not"
        );
    }
    let _ = parse_request(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..=256)) {
        parse_both(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn structured_junk_never_panics(line in junk()) {
        parse_both(&line);
    }
}

/// Every fragment alone, so each one is exercised whatever the RNG draws.
#[test]
fn every_fragment_alone_never_panics() {
    for f in FRAGMENTS {
        parse_both(f);
    }
}
