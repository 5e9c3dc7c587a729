//! The serve request router: one [`Server`] maps request lines to
//! response lines and fans interruption notices out to subscribers.
//!
//! The router is transport-agnostic — the TCP daemon and the CLI's stdio
//! mode both drive [`Server::handle_line`] and deliver the returned
//! [`Outcome`]: a reply for the requesting client, zero or more pushed
//! event lines with their target clients, and a shutdown signal. All
//! state (registry, subscriptions, error flag) is behind locks, so one
//! `Arc<Server>` is shared by every connection thread.

use super::proto::{self, parse_request, Request};
use super::registry::{Advice, Notice, Registry};
use serde::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// A pushed event line and the client it is addressed to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Push {
    /// Target client id.
    pub client: u64,
    /// The rendered event line (no trailing newline).
    pub line: String,
}

/// What one request line produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The reply to send back to the requesting client.
    pub reply: String,
    /// Event lines to deliver to subscribed clients (the requester
    /// included, if subscribed).
    pub pushes: Vec<Push>,
    /// Whether the daemon should stop accepting and exit.
    pub shutdown: bool,
}

/// Shared request router. See the module docs.
pub struct Server {
    registry: Registry,
    /// client id → market ids the client subscribed to.
    subs: RwLock<HashMap<u64, HashSet<String>>>,
    /// Sticky flag: any malformed or failed request line sets it, and the
    /// hosting process exits nonzero after shutdown (the CI smoke job's
    /// malformed-ingestion check rides on this).
    had_errors: AtomicBool,
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

impl Server {
    /// A server over an empty registry.
    pub fn new() -> Server {
        Server {
            registry: Registry::new(),
            subs: RwLock::new(HashMap::new()),
            had_errors: AtomicBool::new(false),
        }
    }

    /// The underlying market registry (tests, embedding).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether any request line failed since startup.
    pub fn had_errors(&self) -> bool {
        self.had_errors.load(Ordering::SeqCst)
    }

    /// Drop a disconnected client's subscriptions.
    pub fn forget_client(&self, client: u64) {
        self.subs.write().expect("subs lock").remove(&client);
    }

    /// Route `notices` to every subscriber of their markets, rendering
    /// each as an event line. Used by the daemon's sentinel thread and by
    /// the synchronous post-ingest poll.
    pub fn route_notices(&self, notices: &[Notice]) -> Vec<Push> {
        let subs = self.subs.read().expect("subs lock");
        let mut out = Vec::new();
        for n in notices {
            let line = notice_line(n);
            // Deterministic delivery order: by client id.
            let mut targets: Vec<u64> = subs
                .iter()
                .filter(|(_, markets)| markets.contains(&n.market))
                .map(|(&c, _)| c)
                .collect();
            targets.sort_unstable();
            out.extend(targets.into_iter().map(|client| Push {
                client,
                line: line.clone(),
            }));
        }
        out
    }

    /// Handle one request line from `client`.
    pub fn handle_line(&self, client: u64, raw: &str) -> Outcome {
        let line = raw.trim();
        if line.is_empty() {
            return Outcome {
                reply: String::new(),
                pushes: Vec::new(),
                shutdown: false,
            };
        }
        match parse_request(line) {
            Ok(req) => self.dispatch(client, req),
            Err(why) => self.fail(&why),
        }
    }

    /// Answer a failed request line with a protocol error, setting the
    /// sticky error flag.
    pub(crate) fn fail(&self, why: &str) -> Outcome {
        self.had_errors.store(true, Ordering::SeqCst);
        Outcome {
            reply: proto::error_line(why),
            pushes: Vec::new(),
            shutdown: false,
        }
    }

    fn ok(reply: String, pushes: Vec<Push>) -> Outcome {
        Outcome {
            reply,
            pushes,
            shutdown: false,
        }
    }

    fn dispatch(&self, client: u64, req: Request) -> Outcome {
        match req {
            Request::Open(spec) => {
                let market = spec.market.clone();
                match self.registry.open(spec) {
                    Ok(()) => Self::ok(
                        proto::line(vec![
                            ("ok", Value::Bool(true)),
                            ("req", Value::Str("open".into())),
                            ("market", Value::Str(market)),
                        ]),
                        Vec::new(),
                    ),
                    Err(why) => self.fail(&why),
                }
            }
            Request::Ingest { market, at, prices } => {
                match self.registry.ingest(&market, at, &prices) {
                    Ok(rows) => {
                        // The sentinel classifies at the new watermark
                        // synchronously, so a spike in the ingested row
                        // reaches subscribers before the ingest ack of
                        // the *next* row — no polling latency window.
                        let pushes = self.route_notices(&self.registry.poll_market(&market));
                        Self::ok(
                            proto::line(vec![
                                ("ok", Value::Bool(true)),
                                ("req", Value::Str("ingest".into())),
                                ("market", Value::Str(market)),
                                ("rows", Value::UInt(rows)),
                            ]),
                            pushes,
                        )
                    }
                    Err(why) => self.fail(&why),
                }
            }
            Request::Advise {
                market,
                now,
                remaining_compute,
                remaining_time,
            } => match self
                .registry
                .advise(&market, now, remaining_compute, remaining_time)
            {
                Ok(advice) => Self::ok(
                    proto::line(vec![
                        ("ok", Value::Bool(true)),
                        ("req", Value::Str("advise".into())),
                        ("market", Value::Str(market)),
                        ("now", Value::UInt(now.secs())),
                        ("advice", advice_value(&advice)),
                    ]),
                    Vec::new(),
                ),
                Err(why) => self.fail(&why),
            },
            Request::Subscribe { market } => {
                // Unknown markets are a usage error, caught here rather
                // than as silently-undelivered pushes.
                if let Err(why) = self.registry.stats(&market) {
                    return self.fail(&why);
                }
                self.subs
                    .write()
                    .expect("subs lock")
                    .entry(client)
                    .or_default()
                    .insert(market.clone());
                Self::ok(
                    proto::line(vec![
                        ("ok", Value::Bool(true)),
                        ("req", Value::Str("subscribe".into())),
                        ("market", Value::Str(market)),
                    ]),
                    Vec::new(),
                )
            }
            Request::Stats { market } => match self.registry.stats(&market) {
                Ok((stats, watermark)) => Self::ok(
                    proto::line(vec![
                        ("ok", Value::Bool(true)),
                        ("req", Value::Str("stats".into())),
                        ("market", Value::Str(market)),
                        ("rows", Value::UInt(stats.rows)),
                        ("watermark", Value::UInt(watermark.secs())),
                        ("cold_builds", Value::UInt(stats.cold_builds)),
                        ("warm_advises", Value::UInt(stats.warm_advises)),
                        ("notices", Value::UInt(stats.notices)),
                    ]),
                    Vec::new(),
                ),
                Err(why) => self.fail(&why),
            },
            Request::Shutdown => Outcome {
                reply: proto::line(vec![
                    ("ok", Value::Bool(true)),
                    ("req", Value::Str("shutdown".into())),
                ]),
                pushes: Vec::new(),
                shutdown: true,
            },
        }
    }
}

/// Render an [`Advice`] as a JSON value. Float fields use the exact
/// shortest-round-trip rendering, so a served advice compares
/// byte-identically against one derived offline from the same trace.
fn advice_value(a: &Advice) -> Value {
    proto::obj(vec![
        ("bid", Value::UInt(a.bid_millis)),
        (
            "zones",
            Value::Seq(a.zones.iter().map(|&z| Value::UInt(z as u64)).collect()),
        ),
        ("policy", Value::Str(a.policy.clone())),
        (
            "predicted_cost_millis",
            Value::Float(a.predicted_cost_millis),
        ),
        ("od_fallback_millis", Value::Float(a.od_fallback_millis)),
        ("forecast_on_demand", Value::Bool(a.forecast_on_demand)),
    ])
}

/// Render a sentinel [`Notice`] as a pushed event line.
fn notice_line(n: &Notice) -> String {
    let mut entries = vec![
        ("event", Value::Str("interruption".into())),
        ("market", Value::Str(n.market.clone())),
        ("zone", Value::UInt(n.zone as u64)),
        ("at", Value::UInt(n.at.secs())),
        ("price", Value::UInt(n.price.millis())),
        ("class", Value::Str(n.class.into())),
        ("terminate_at", Value::UInt(n.terminate_at.secs())),
    ];
    if let Some(a) = &n.advice {
        entries.push(("advice", advice_value(a)));
    }
    proto::line(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_and_feed(srv: &Server, rows: u64) {
        let r = srv.handle_line(
            0,
            r#"{"req":"open","market":"m1","zones":2,"era":"modern","bid":810}"#,
        );
        assert!(r.reply.contains("\"ok\":true"), "{}", r.reply);
        for i in 0..rows {
            let at = i * 300;
            let r = srv.handle_line(
                0,
                &format!(r#"{{"req":"ingest","market":"m1","at":{at},"prices":[270,300]}}"#),
            );
            assert!(r.reply.contains("\"ok\":true"), "{}", r.reply);
        }
    }

    #[test]
    fn advise_round_trip_over_the_wire() {
        let srv = Server::new();
        open_and_feed(&srv, 12 * 26);
        let r = srv.handle_line(
            0,
            r#"{"req":"advise","market":"m1","now":90000,"remaining_compute":72000,"remaining_time":82800}"#,
        );
        assert!(r.reply.contains("\"ok\":true"), "{}", r.reply);
        assert!(r.reply.contains("\"advice\":{\"bid\":"), "{}", r.reply);
        assert!(!srv.had_errors());
        let stats = srv.handle_line(0, r#"{"req":"stats","market":"m1"}"#);
        assert!(stats.reply.contains("\"cold_builds\":1"), "{}", stats.reply);
    }

    #[test]
    fn pushes_reach_only_subscribers_and_errors_stick() {
        let srv = Server::new();
        open_and_feed(&srv, 12);
        // Client 7 subscribes; client 9 does not.
        let r = srv.handle_line(7, r#"{"req":"subscribe","market":"m1"}"#);
        assert!(r.reply.contains("\"ok\":true"));
        let spike = srv.handle_line(
            9,
            &format!(
                r#"{{"req":"ingest","market":"m1","at":{},"prices":[270,5000]}}"#,
                12 * 300
            ),
        );
        assert_eq!(spike.pushes.len(), 1, "{:?}", spike.pushes);
        assert_eq!(spike.pushes[0].client, 7);
        assert!(
            spike.pushes[0].line.contains("\"class\":\"reclaim\""),
            "{}",
            spike.pushes[0].line
        );
        assert!(
            spike.pushes[0]
                .line
                .contains(&format!("\"terminate_at\":{}", 12 * 300 + 120)),
            "{}",
            spike.pushes[0].line
        );
        assert!(!srv.had_errors());

        // Subscribing to an unknown market and malformed lines both set
        // the sticky error flag.
        let bad = srv.handle_line(7, r#"{"req":"ingest","market":"m1","at":0,"prices":[1.5]}"#);
        assert!(bad.reply.contains("\"ok\":false"));
        assert!(srv.had_errors());

        // Disconnect drops the subscription.
        srv.forget_client(7);
        let spike2 = srv.handle_line(
            9,
            &format!(
                r#"{{"req":"ingest","market":"m1","at":{},"prices":[270,270]}}"#,
                13 * 300
            ),
        );
        assert!(spike2.pushes.is_empty());
    }

    #[test]
    fn shutdown_signals_and_blank_lines_are_ignored() {
        let srv = Server::new();
        let r = srv.handle_line(0, "  ");
        assert!(r.reply.is_empty() && !r.shutdown);
        let r = srv.handle_line(0, r#"{"req":"shutdown"}"#);
        assert!(r.shutdown);
        assert!(r.reply.contains("\"ok\":true"));
    }
}
