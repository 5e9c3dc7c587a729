//! The serve wire protocol: versioned line-JSON requests and responses.
//!
//! One request per line, one response per line, in order; pushed events
//! (interruption notices with attached re-decisions) are extra lines that
//! carry an `"event"` key instead of `"ok"`. Every response and event
//! carries `"v":` [`SERVE_PROTO_VERSION`] so clients can reject a daemon
//! speaking a different schema — the same discipline as the sweep shard
//! manifest.
//!
//! Request shapes (`"req"` selects the variant):
//!
//! ```json
//! {"req":"open","market":"m1","zones":3,"step":300,"start":0,"era":"classic","bid":810,"seed":0}
//! {"req":"ingest","market":"m1","at":0,"prices":[270,300,510]}
//! {"req":"advise","market":"m1","now":3600,"remaining_compute":72000,"remaining_time":82800}
//! {"req":"subscribe","market":"m1"}
//! {"req":"stats","market":"m1"}
//! {"req":"shutdown"}
//! ```
//!
//! Ingestion reuses `validate-trace`'s checked JSONL discipline: prices
//! must be finite, non-negative integer milli-dollar counts (floats,
//! negatives, and the `null` a non-finite float serializes to are all
//! rejected by [`check_price_fields`] on the raw tree before any typed
//! parse can coerce them), and sample timestamps must advance by exactly
//! one step per row.

use redspot_market::Era;
use redspot_trace::{Price, SimDuration, SimTime};
use serde::Value;

/// Protocol schema version stamped on every response and pushed event.
pub const SERVE_PROTO_VERSION: u32 = 1;

/// Most zones one market may have. The paper uses 3; `open` builds one
/// zone list and one price column per zone, so an unbounded count would
/// let one line ask the daemon for more memory than it has.
const MAX_ZONES: u64 = 32;

/// Keys that carry prices in serve requests. Shared with the CLI's
/// `validate-trace` (whose event-schema list is `bid`/`charged`/`rate`)
/// through [`check_price_fields`].
pub const SERVE_PRICE_FIELDS: &[&str] = &["prices", "bid"];

/// Reject malformed price values in a raw JSON tree *before* a typed
/// parse gets a chance to coerce them. `Price` is an integer milli-dollar
/// count, but the deserializer accepts any non-negative integral float
/// for a `u64` — so `"bid": 810.0` (or a value that was NaN/Infinity at
/// write time, which JSON renders as `null`) would slip through silently.
/// A price-named key holding a sequence (serve's `"prices":[...]` rows)
/// has each element checked as a scalar price. Returns `Err(reason)`
/// naming the offending field.
pub fn check_price_fields(value: &Value, fields: &[&str]) -> Result<(), String> {
    fn scalar(key: &str, v: &Value) -> Result<(), String> {
        match v {
            Value::UInt(_) => Ok(()),
            Value::Int(i) => Err(format!("price field '{key}' is negative ({i})")),
            Value::Float(f) => Err(format!(
                "price field '{key}' is not an integer milli-dollar count ({f})"
            )),
            Value::Null => Err(format!(
                "price field '{key}' is null (non-finite prices serialize as null)"
            )),
            other => Err(format!("price field '{key}' is not a number ({other:?})")),
        }
    }
    match value {
        Value::Map(entries) => {
            for (key, v) in entries {
                if fields.contains(&key.as_str()) {
                    match v {
                        Value::Seq(items) => items.iter().try_for_each(|item| scalar(key, item))?,
                        other => scalar(key, other)?,
                    }
                }
                check_price_fields(v, fields)?;
            }
            Ok(())
        }
        Value::Seq(items) => items
            .iter()
            .try_for_each(|item| check_price_fields(item, fields)),
        _ => Ok(()),
    }
}

/// Everything `open` needs to admit a market: its identity, trace grid,
/// and the experiment configuration advises are answered under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarketSpec {
    /// Market id (registry key).
    pub market: String,
    /// Number of availability zones (every ingest row carries one price
    /// per zone).
    pub zones: usize,
    /// First instant of the price grid.
    pub start: SimTime,
    /// Sampling step in seconds.
    pub step: u64,
    /// Billing/termination regime advises are computed under.
    pub era: Era,
    /// Bid cap — and, in the modern era, the capacity-reclaim threshold
    /// the sentinel classifies notices against.
    pub bid: Price,
    /// Experiment seed (advise determinism).
    pub seed: u64,
}

impl MarketSpec {
    /// The experiment configuration this market's advises run under: the
    /// paper's standard job over all of the market's zones, with the
    /// spec's bid, seed, and era applied. Exposed so offline comparators
    /// (tests, tools) can reproduce a daemon answer bit-for-bit.
    pub fn config(&self) -> crate::ExperimentConfig {
        let mut cfg = crate::ExperimentConfig::paper_default();
        cfg.zones = (0..self.zones).map(redspot_trace::ZoneId).collect();
        cfg.bid = self.bid;
        cfg.seed = self.seed;
        cfg.era = self.era;
        cfg
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit a new market.
    Open(MarketSpec),
    /// Append one aligned sample row (one price per zone) at `at`.
    Ingest {
        /// Target market.
        market: String,
        /// Sample timestamp; must be exactly the market's watermark.
        at: SimTime,
        /// One price per zone, in zone order.
        prices: Vec<Price>,
    },
    /// Evaluate the adaptive decision at `now`.
    Advise {
        /// Target market.
        market: String,
        /// Decision instant.
        now: SimTime,
        /// Compute remaining (seconds).
        remaining_compute: SimDuration,
        /// Wall time remaining until the deadline (seconds).
        remaining_time: SimDuration,
    },
    /// Receive this market's pushed events on this connection.
    Subscribe {
        /// Target market.
        market: String,
    },
    /// Report a market's ingestion/scan counters.
    Stats {
        /// Target market.
        market: String,
    },
    /// Stop the daemon.
    Shutdown,
}

fn find<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    serde::__find(m, key)
}

fn need<'a>(m: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    find(m, key).ok_or_else(|| format!("missing field `{key}`"))
}

fn as_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        other => Err(format!(
            "field `{key}` must be a non-negative integer, got {other:?}"
        )),
    }
}

fn as_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(format!("field `{key}` must be a string, got {other:?}")),
    }
}

fn market_of(m: &[(String, Value)]) -> Result<String, String> {
    Ok(as_str(need(m, "market")?, "market")?.to_string())
}

/// Parse one request line. Price-bearing fields are checked on the raw
/// tree first (the `validate-trace` discipline), so a float or negative
/// price is a parse error, not a silent coercion.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let raw: Value = serde_json::from_str(line).map_err(|e| format!("not valid JSON: {e}"))?;
    check_price_fields(&raw, SERVE_PRICE_FIELDS)?;
    let m = raw.as_map().ok_or("request must be a JSON object")?;
    let req = as_str(need(m, "req")?, "req")?;
    match req {
        "open" => {
            let zones = as_u64(need(m, "zones")?, "zones")?;
            if !(1..=MAX_ZONES).contains(&zones) {
                return Err(format!(
                    "field `zones` must be 1 to {MAX_ZONES}, got {zones}"
                ));
            }
            let zones = zones as usize;
            let step = match find(m, "step") {
                Some(v) => as_u64(v, "step")?,
                None => redspot_trace::PRICE_STEP,
            };
            if step == 0 {
                return Err("field `step` must be positive".into());
            }
            let start = match find(m, "start") {
                Some(v) => SimTime::from_secs(as_u64(v, "start")?),
                None => SimTime::ZERO,
            };
            let era = match find(m, "era") {
                Some(v) => Era::parse(as_str(v, "era")?)?,
                None => Era::Classic,
            };
            let bid = match find(m, "bid") {
                Some(v) => Price::from_millis(as_u64(v, "bid")?),
                None => Price::from_millis(810),
            };
            let seed = match find(m, "seed") {
                Some(v) => as_u64(v, "seed")?,
                None => 0,
            };
            Ok(Request::Open(MarketSpec {
                market: market_of(m)?,
                zones,
                start,
                step,
                era,
                bid,
                seed,
            }))
        }
        "ingest" => {
            let at = SimTime::from_secs(as_u64(need(m, "at")?, "at")?);
            let prices = match need(m, "prices")? {
                Value::Seq(items) => items
                    .iter()
                    .map(|v| Ok(Price::from_millis(as_u64(v, "prices")?)))
                    .collect::<Result<Vec<Price>, String>>()?,
                other => return Err(format!("field `prices` must be an array, got {other:?}")),
            };
            if prices.is_empty() {
                return Err("field `prices` must not be empty".into());
            }
            Ok(Request::Ingest {
                market: market_of(m)?,
                at,
                prices,
            })
        }
        "advise" => Ok(Request::Advise {
            market: market_of(m)?,
            now: SimTime::from_secs(as_u64(need(m, "now")?, "now")?),
            remaining_compute: SimDuration::from_secs(as_u64(
                need(m, "remaining_compute")?,
                "remaining_compute",
            )?),
            remaining_time: SimDuration::from_secs(as_u64(
                need(m, "remaining_time")?,
                "remaining_time",
            )?),
        }),
        "subscribe" => Ok(Request::Subscribe {
            market: market_of(m)?,
        }),
        "stats" => Ok(Request::Stats {
            market: market_of(m)?,
        }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request `{other}`")),
    }
}

/// Build a JSON object value from key/value pairs (insertion order kept).
pub(crate) fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render a response object (with the protocol version prepended) as one
/// JSON line.
pub(crate) fn line(mut entries: Vec<(&str, Value)>) -> String {
    entries.insert(0, ("v", Value::UInt(SERVE_PROTO_VERSION as u64)));
    serde_json::to_string(&obj(entries)).expect("value trees always render")
}

/// The `{"ok":false}` error line for a failed request.
pub(crate) fn error_line(why: &str) -> String {
    line(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(why.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_request_surface() {
        let open = parse_request(
            r#"{"req":"open","market":"m1","zones":3,"step":300,"era":"modern","bid":900}"#,
        )
        .unwrap();
        match open {
            Request::Open(spec) => {
                assert_eq!(spec.market, "m1");
                assert_eq!(spec.zones, 3);
                assert_eq!(spec.era, Era::Modern);
                assert_eq!(spec.bid, Price::from_millis(900));
                assert_eq!(spec.config().zones.len(), 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse_request(r#"{"req":"ingest","market":"m1","at":300,"prices":[270,280,290]}"#),
            Ok(Request::Ingest {
                market: "m1".into(),
                at: SimTime::from_secs(300),
                prices: vec![
                    Price::from_millis(270),
                    Price::from_millis(280),
                    Price::from_millis(290)
                ],
            })
        );
        assert!(matches!(
            parse_request(r#"{"req":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn rejects_unchecked_prices_like_validate_trace() {
        // Float, negative, and null prices are all schema errors on the
        // raw tree — the same checks validate-trace applies to event
        // logs, applied to the ingestion stream.
        for bad in [
            r#"{"req":"ingest","market":"m","at":0,"prices":[270.5]}"#,
            r#"{"req":"ingest","market":"m","at":0,"prices":[-3]}"#,
            r#"{"req":"ingest","market":"m","at":0,"prices":[null]}"#,
            r#"{"req":"open","market":"m","zones":1,"bid":810.0}"#,
        ] {
            assert!(parse_request(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn rejects_zone_counts_past_the_cap() {
        for zones in [0, MAX_ZONES + 1, 1_000_000_000_000] {
            let line = format!(r#"{{"req":"open","market":"m","zones":{zones}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert!(e.contains("`zones` must be 1 to 32"), "{e}");
        }
        let line = format!(r#"{{"req":"open","market":"m","zones":{MAX_ZONES}}}"#);
        assert!(parse_request(&line).is_ok());
    }

    #[test]
    fn responses_carry_the_protocol_version() {
        let l = line(vec![("ok", Value::Bool(true))]);
        assert!(
            l.starts_with(&format!("{{\"v\":{SERVE_PROTO_VERSION}")),
            "{l}"
        );
    }
}
