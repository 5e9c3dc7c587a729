//! PR-9 pins: the ownership inversion (Arc-backed [`TraceHandle`]
//! instead of borrowed `&TraceSet`) makes every hosted state machine
//! `Send`, and the serve daemon built on top of it answers advise
//! queries bit-identically to a direct in-process decision session —
//! even under concurrent clients sharing one market's warm scan.

use redspot::core::serve::{Advice, Daemon, MarketSpec, Server};
use redspot::core::{AdaptiveRunner, DecisionSession, Engine, Era, MarketCtx, PermutationScan};
use redspot::trace::{Price, PriceSeries, SimDuration, SimTime, TraceHandle, TraceSet};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn assert_send<T: Send>() {}

/// The whole hosted surface must be `Send`: the daemon moves these
/// across threads (market mutexes, sentinel sweeps, reader threads).
/// Before the ownership inversion, the `&'t TraceSet` lifetime made
/// every one of these unmovable; this test is the compile-time pin
/// against regressing to borrowed trace state.
#[test]
fn hosted_state_machines_are_send() {
    assert_send::<Engine>();
    assert_send::<AdaptiveRunner>();
    assert_send::<DecisionSession>();
    assert_send::<PermutationScan>();
    assert_send::<MarketCtx>();
    assert_send::<Server>();
    assert_send::<TraceHandle>();
}

/// One line-JSON client over TCP.
struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to daemon");
        Client {
            reader: BufReader::new(stream),
        }
    }

    /// Send one request line, in one write, and return the reply line.
    fn roundtrip(&mut self, request: &str) -> String {
        self.reader
            .get_mut()
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }
}

/// The deterministic 2-zone price stream both the daemon and the offline
/// comparator see. Kept under the $0.81 bid so the sentinel stays quiet.
fn price_row(i: u64) -> (u64, u64) {
    (270 + (i * 37) % 300, 300 + (i * 53) % 400)
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> &'a Value {
    serde::__find(map, key).unwrap_or_else(|| panic!("reply missing `{key}`"))
}

/// End-to-end bit-identity: a daemon fed a price stream over TCP answers
/// four *concurrent* advise clients with byte-identical lines, the first
/// query running the cold scan rebuild and the rest sharing the warm
/// incremental scan — and the answer equals, field for exact-f64 field,
/// what a direct [`AdaptiveRunner`] session derives from the same trace.
#[test]
fn served_advice_is_bit_identical_to_a_direct_session_under_concurrency() {
    const ROWS: u64 = 12 * 26; // 26 hours of 300 s samples
    const NOW: u64 = 90_000;
    const REMAINING_COMPUTE: u64 = 72_000;
    const REMAINING_TIME: u64 = 82_800;

    let daemon = Daemon::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = daemon.local_addr().expect("bound address");
    let daemon_thread = std::thread::spawn(move || daemon.run());

    // Feed the market over the wire.
    let mut feeder = Client::connect(addr);
    let opened = feeder.roundtrip(
        r#"{"req":"open","market":"m1","zones":2,"step":300,"start":0,"era":"classic","bid":810,"seed":0}"#,
    );
    assert!(opened.contains("\"ok\":true"), "{opened}");
    for i in 0..ROWS {
        let (a, b) = price_row(i);
        let acked = feeder.roundtrip(&format!(
            r#"{{"req":"ingest","market":"m1","at":{},"prices":[{a},{b}]}}"#,
            i * 300
        ));
        assert!(acked.contains("\"ok\":true"), "{acked}");
    }

    // Four clients race the identical advise query.
    let advise = format!(
        r#"{{"req":"advise","market":"m1","now":{NOW},"remaining_compute":{REMAINING_COMPUTE},"remaining_time":{REMAINING_TIME}}}"#
    );
    let replies: Vec<String> = (0..4)
        .map(|_| {
            let advise = advise.clone();
            std::thread::spawn(move || Client::connect(addr).roundtrip(&advise))
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("advise client"))
        .collect();
    for reply in &replies[1..] {
        assert_eq!(reply, &replies[0], "served answers must be byte-identical");
    }
    assert!(replies[0].contains("\"ok\":true"), "{}", replies[0]);

    // One cold scan rebuild, three warm reuses — the queries shared the
    // same sealed state and still answered identically.
    let stats = feeder.roundtrip(r#"{"req":"stats","market":"m1"}"#);
    assert!(stats.contains("\"cold_builds\":1"), "{stats}");
    assert!(stats.contains("\"warm_advises\":3"), "{stats}");

    // Offline comparator: the same trace, decided directly.
    let spec = MarketSpec {
        market: "m1".into(),
        zones: 2,
        start: SimTime::ZERO,
        step: 300,
        era: Era::Classic,
        bid: Price::from_millis(810),
        seed: 0,
    };
    let cfg = spec.config();
    let (zone_a, zone_b): (Vec<Price>, Vec<Price>) = (0..ROWS)
        .map(price_row)
        .map(|(a, b)| (Price::from_millis(a), Price::from_millis(b)))
        .unzip();
    let handle = TraceHandle::new(TraceSet::new(vec![
        PriceSeries::with_step(SimTime::ZERO, 300, zone_a),
        PriceSeries::with_step(SimTime::ZERO, 300, zone_b),
    ]));
    let runner = AdaptiveRunner::new(handle, SimTime::ZERO, cfg.clone());
    let mut session = runner.session();
    let perm = session
        .decide(
            SimTime::from_secs(NOW),
            SimDuration::from_secs(REMAINING_COMPUTE),
            SimDuration::from_secs(REMAINING_TIME),
        )
        .expect("direct session finds a permutation");
    let want = Advice::derive(
        &perm,
        SimDuration::from_secs(REMAINING_COMPUTE),
        SimDuration::from_secs(REMAINING_TIME),
        &cfg,
    );

    // Field-for-field, exact. Floats compare bit-for-bit: the wire
    // rendering is shortest-round-trip, so nothing is lost in transit.
    let parsed: Value = serde_json::from_str(&replies[0]).expect("reply parses");
    let reply = parsed.as_map().expect("reply is an object");
    let advice = field(reply, "advice").as_map().expect("advice object");
    assert_eq!(field(advice, "bid"), &Value::UInt(want.bid_millis));
    assert_eq!(
        field(advice, "zones"),
        &Value::Seq(want.zones.iter().map(|&z| Value::UInt(z as u64)).collect())
    );
    assert_eq!(field(advice, "policy"), &Value::Str(want.policy.clone()));
    assert_eq!(
        field(advice, "predicted_cost_millis"),
        &Value::Float(want.predicted_cost_millis)
    );
    assert_eq!(
        field(advice, "od_fallback_millis"),
        &Value::Float(want.od_fallback_millis)
    );
    assert_eq!(
        field(advice, "forecast_on_demand"),
        &Value::Bool(want.forecast_on_demand)
    );

    let bye = feeder.roundtrip(r#"{"req":"shutdown"}"#);
    assert!(bye.contains("\"req\":\"shutdown\""), "{bye}");
    assert!(
        daemon_thread.join().expect("daemon thread"),
        "no request line failed, so the daemon exits clean"
    );
}
