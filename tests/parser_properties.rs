//! The JSON parser, the `serve` request parser and the CSV trace importer
//! return on any input, `Ok` or `Err`, and never panic: over arbitrary
//! bytes (decoded as lossy UTF-8, as a protocol line would be; raw for
//! the importer) and over structured junk built from the inputs parsers
//! get wrong — malformed numbers, deep nesting, bad `\u` escapes, extreme
//! timestamps and prices, ragged rows, raw NUL, CRLF and truncated UTF-8.
//! A trace the importer accepts must also survive `end()` and `describe`.
//! Inputs stay at most a few hundred bytes, because the vendored proptest
//! does not shrink.

use proptest::prelude::*;
use redspot_core::serve::parse_request;
use redspot_trace::io::{describe, import_csv};
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

/// CSV cells: timestamps and prices at and past every limit, plus
/// separators and bytes that break a row.
const CSV_CELLS: &[&[u8]] = &[
    b"0",
    b"300",
    b"600",
    b"1099511627476",
    b"1099511627776",
    b"18446744073709551615",
    b"18446744073709551616",
    b"-300",
    b"0.27",
    b"3.07",
    b"1e3",
    b"99999999999999999999",
    b"18446744073709551.615",
    b"1e308",
    b"NaN",
    b"inf",
    b"-0.5",
    b"",
    b" 0.3 ",
    b"time_s",
    b",",
    b"\n",
    b"\r\n",
    b"\0",
    b"\xe2\x82",
    b"\xff",
];

/// A structured CSV: a header of 1–3 zones, then up to 12 rows of 1–4
/// cells each (so some rows are ragged), all drawn from [`CSV_CELLS`].
fn csv_junk() -> impl Strategy<Value = Vec<u8>> {
    (
        1usize..4,
        prop::collection::vec(prop::collection::vec(0..CSV_CELLS.len(), 1..5), 0..12),
    )
        .prop_map(|(zones, rows)| {
            let mut csv = b"time_s".to_vec();
            for z in 0..zones {
                csv.extend_from_slice(format!(",z{z}").as_bytes());
            }
            csv.push(b'\n');
            for row in rows {
                for (i, &cell) in row.iter().enumerate() {
                    if i > 0 {
                        csv.push(b',');
                    }
                    csv.extend_from_slice(CSV_CELLS[cell]);
                }
                csv.push(b'\n');
            }
            csv
        })
}

/// Import `bytes` as a CSV trace. A panic fails the test, in the import
/// or in `end()` and `describe` on a trace it accepted.
fn import(bytes: &[u8]) {
    if let Ok(set) = import_csv(bytes) {
        for zone in set.zones() {
            assert!(
                zone.end() > zone.start(),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        let _ = describe(&set);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn import_csv_on_structured_junk_never_panics(csv in csv_junk()) {
        import(&csv);
    }

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..=256)) {
        parse_both(&String::from_utf8_lossy(&bytes));
        import(&bytes);
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

/// Every CSV cell as the second row's timestamp and as its price, so each
/// limit is exercised whatever the RNG draws.
#[test]
fn every_csv_cell_alone_never_panics() {
    for cell in CSV_CELLS {
        let cell = String::from_utf8_lossy(cell);
        import(format!("time_s,z\n0,0.3\n{cell},0.3\n").as_bytes());
        import(format!("time_s,z\n0,0.3\n300,{cell}\n").as_bytes());
    }
}
