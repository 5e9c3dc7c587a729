//! `serve_tcp`: an in-process `Daemon` on loopback with two markets
//! preloaded (26 h each) through `Registry::preload`, driven by two
//! closed-loop client connections. Each client runs cycles of one
//! `ingest` and four `advise`s on its own market — the first advise after
//! an ingest is cold (scan rebuild), the next three warm — until the run's
//! time is up or 8,000 cycles. The only workload with writes beside reads
//! on one registry, and the only one through the socket path.
//!
//! Every reply must be `ok:true` and byte-identical to an in-process
//! `Server::handle_line` replay of the same script; a traced run times
//! that replay per request type, and the TCP latency left over is the
//! socket's share.

use crate::report::{self, Checks, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{median_setup, probes, sub_seed, RunCtx};
use redspot_core::serve::{parse_request, Daemon, Registry, Server};
use redspot_core::telemetry::journal::fnv1a;
use redspot_core::Era;
use redspot_trace::gen::GenConfig;
use redspot_trace::{Price, SimDuration, TraceSet, Window, ZoneId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// History preloaded into each market before the clients start: 26 h of
/// 300 s samples.
const PRELOAD_ROWS: usize = 312;

/// Requests per cycle: one ingest, then one cold and three warm advises.
const CYCLE: [Kind; 5] = [
    Kind::Ingest,
    Kind::AdviseCold,
    Kind::AdviseWarm,
    Kind::AdviseWarm,
    Kind::AdviseWarm,
];

/// The two client markets.
const MARKETS: [&str; 2] = ["m1", "m2"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest,
    AdviseCold,
    AdviseWarm,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Ingest => "serve.handle_ingest",
            Kind::AdviseCold => "serve.handle_advise_cold",
            Kind::AdviseWarm => "serve.handle_advise_warm",
        }
    }
}

/// The month behind market `m` (0 or 1) of a run.
fn market_month(seed: u64, m: usize) -> GenConfig {
    GenConfig::high_volatility(sub_seed(seed, m as u64))
}

fn preload(registry: &Registry, market: &str, month: &TraceSet, seed: u64) -> Result<(), String> {
    let step = month.zone(ZoneId(0)).step();
    let history = Window::starting_at(
        month.start(),
        SimDuration::from_secs(PRELOAD_ROWS as u64 * step),
    );
    registry
        .preload(
            market,
            &month.slice(history),
            Era::Classic,
            Price::from_millis(810),
            seed,
        )
        .map(drop)
}

/// The request lines of cycle `c` on `market`: ingest the next row of
/// the month, then ask what Adaptive would do one hour before the new
/// watermark for the paper's standard job.
fn cycle_lines(market: &str, month: &TraceSet, c: usize) -> [String; 5] {
    let row = PRELOAD_ROWS + c;
    let step = month.zone(ZoneId(0)).step();
    let prices: Vec<String> = month
        .zones()
        .iter()
        .map(|z| z.samples()[row].millis().to_string())
        .collect();
    let ingest = format!(
        r#"{{"req":"ingest","market":"{market}","at":{},"prices":[{}]}}"#,
        row as u64 * step,
        prices.join(",")
    );
    let now = (row as u64 + 1) * step - 3_600;
    let advise = format!(
        r#"{{"req":"advise","market":"{market}","now":{now},"remaining_compute":72000,"remaining_time":82800}}"#
    );
    [
        ingest,
        advise.clone(),
        advise.clone(),
        advise.clone(),
        advise,
    ]
}

/// Cycles the month can feed after the preload.
fn max_cycles(month: &TraceSet, cap: usize) -> usize {
    cap.min(month.zone(ZoneId(0)).len() - PRELOAD_ROWS)
}

/// One request as its client saw it.
struct Sent {
    kind: Kind,
    at: Instant,
    done: Instant,
    /// FNV-1a of the reply line (without its newline).
    reply: u64,
}

/// One client's session: compact per-request records, so the client's
/// own memory stays small however many requests a fast daemon answers.
struct ClientLog {
    cycles: usize,
    sent: Vec<Sent>,
    /// The replies of the first `min_cycles` cycles: the digest input.
    prefix: String,
}

/// Drive one closed-loop client until `until` (after at least
/// `min_cycles`) or `max` cycles. `reached_min` is signalled once the
/// first `min_cycles` cycles are done.
fn client(
    stream: TcpStream,
    market: &str,
    month: &TraceSet,
    until: Instant,
    (min_cycles, max): (usize, usize),
    reached_min: mpsc::Sender<()>,
) -> std::io::Result<ClientLog> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut log = ClientLog {
        cycles: 0,
        sent: Vec::new(),
        prefix: String::new(),
    };
    let mut reply = String::new();
    while log.cycles < max && (log.cycles < min_cycles || Instant::now() < until) {
        for (&kind, line) in CYCLE.iter().zip(cycle_lines(market, month, log.cycles)) {
            let at = Instant::now();
            writer.write_all(format!("{line}\n").as_bytes())?;
            reply.clear();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::other("daemon closed the connection"));
            }
            let done = Instant::now();
            if log.cycles < min_cycles {
                log.prefix.push_str(&reply);
            }
            let reply = fnv1a(reply.trim_end_matches('\n').as_bytes());
            log.sent.push(Sent {
                kind,
                at,
                done,
                reply,
            });
        }
        log.cycles += 1;
        if log.cycles == min_cycles {
            // The receiver may already be gone; that is fine.
            let _ = reached_min.send(());
        }
    }
    Ok(log)
}

/// A running daemon with its two preloaded markets and two connected
/// clients.
struct Live {
    daemon: JoinHandle<bool>,
    clients: Vec<TcpStream>,
}

/// Set-up: generate both months, bind, preload, start serving, connect.
fn bring_up(ctx: &RunCtx) -> Result<(Live, Vec<TraceSet>), String> {
    let t = ctx.tracer;
    let months: Vec<TraceSet> = (0..MARKETS.len())
        .map(|m| t.span("trace.generate", || market_month(ctx.seed, m).generate()))
        .collect();
    let live = t.span("serve.bring_up", || -> Result<Live, String> {
        let daemon = Daemon::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = daemon
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        for (market, month) in MARKETS.iter().zip(&months) {
            preload(daemon.server().registry(), market, month, ctx.seed)?;
        }
        let handle = std::thread::spawn(move || daemon.run());
        let clients = MARKETS
            .iter()
            .map(|_| {
                let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                Ok(s)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Live {
            daemon: handle,
            clients,
        })
    })?;
    Ok((live, months))
}

/// Close every client and shut the daemon down; `true` when it reports
/// that every request line succeeded.
fn tear_down(live: Live) -> Result<bool, String> {
    let mut clients = live.clients;
    let mut last = clients.pop().ok_or("no client connection")?;
    drop(clients);
    last.write_all(b"{\"req\":\"shutdown\"}\n")
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut reply = String::new();
    BufReader::new(&last)
        .read_line(&mut reply)
        .map_err(|e| format!("shutdown reply: {e}"))?;
    drop(last);
    live.daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())
}

/// Replay each market's script for its client's cycle count through
/// `Server::handle_line` on a fresh, identically preloaded server, timing
/// each request by type. Every reply must be `ok:true` and, where `tcp`
/// holds the daemon's replies, byte-identical to them.
fn replay(
    t: &Tracer,
    checks: &mut Checks,
    seed: u64,
    months: &[TraceSet],
    cycles: &[usize],
    tcp: Option<&[ClientLog]>,
) -> Result<(), String> {
    let server = Server::new();
    for (market, month) in MARKETS.iter().zip(months) {
        preload(server.registry(), market, month, seed)?;
    }
    for (m, ((market, month), &n)) in MARKETS.iter().zip(months).zip(cycles).enumerate() {
        for c in 0..n {
            for (j, (kind, line)) in CYCLE.iter().zip(cycle_lines(market, month, c)).enumerate() {
                if t.enabled() {
                    t.span("serve.parse", || parse_request(&line))?;
                }
                let reply = t.span(kind.span(), || server.handle_line(0, &line)).reply;
                let same = tcp.is_none_or(|logs| {
                    logs[m].sent[c * CYCLE.len() + j].reply == fnv1a(reply.as_bytes())
                });
                checks.check(reply.contains("\"ok\":true") && same, || {
                    format!("{market} cycle {c} request {j}: in-process reply {reply} (TCP reply equal: {same})")
                });
            }
        }
    }
    Ok(())
}

/// The router probe other workloads run on their own month: one market,
/// the same cycle script, in process only.
pub fn probe(ctx: &RunCtx, month: &TraceSet, checks: &mut Checks) -> Result<(), String> {
    let n = max_cycles(month, ctx.scale.probe_cycles);
    replay(
        ctx.tracer,
        checks,
        ctx.seed,
        std::slice::from_ref(month),
        &[n],
        None,
    )
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let setup_s = if ctx.tracer.enabled() {
        None
    } else {
        Some(median_setup(
            ctx.scale,
            || bring_up(ctx),
            |(live, _)| {
                let clean = tear_down(live)?;
                out.checks
                    .check(clean, || "daemon reported failed requests".into());
                Ok(())
            },
        )?)
    };
    let (live, months) = bring_up(ctx)?;

    let until = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let min_cycles = ctx.scale.serve_min_cycles;
    let started = Instant::now();
    let (logs, rss) = std::thread::scope(|s| {
        let (reached_min, wait_min) = mpsc::channel();
        let handles: Vec<_> = live
            .clients
            .iter()
            .zip(MARKETS.iter().zip(&months))
            .map(|(stream, (market, month))| {
                let (stream, done) = (stream.try_clone(), reached_min.clone());
                let cycles = (min_cycles, max_cycles(month, ctx.scale.serve_max_cycles));
                s.spawn(move || client(stream?, market, month, until, cycles, done))
            })
            .collect();
        drop(reached_min);
        // Peak RSS after a fixed amount of work: both clients past their
        // first `min_cycles` cycles. A client that fails early drops its
        // sender, which ends the wait.
        let both = wait_min.iter().take(MARKETS.len()).count() == MARKETS.len();
        let rss = both.then(report::peak_rss_mib);
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<std::io::Result<Vec<ClientLog>>>();
        (logs, rss)
    });
    let logs = logs.map_err(|e| format!("client: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    out.checks.check(tear_down(live)?, || {
        "daemon reported failed requests".into()
    });

    let cycles: Vec<usize> = logs.iter().map(|l| l.cycles).collect();
    replay(
        ctx.tracer,
        &mut out.checks,
        ctx.seed,
        &months,
        &cycles,
        Some(&logs),
    )?;
    out.digest = fnv1a(
        logs.iter()
            .map(|l| l.prefix.as_str())
            .collect::<String>()
            .as_bytes(),
    );

    let tcp_advise: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .filter(|r| r.kind != Kind::Ingest)
        .map(|r| (r.done - r.at).as_secs_f64())
        .collect();
    let requests: usize = logs.iter().map(|l| l.sent.len()).sum();

    if ctx.tracer.enabled() {
        for r in logs.iter().flat_map(|l| &l.sent) {
            let name = if r.kind == Kind::Ingest {
                "serve.tcp_ingest"
            } else {
                "serve.tcp_advise"
            };
            ctx.tracer.record(name, r.at, r.done);
        }
        let in_process: Vec<f64> = ["serve.handle_advise_cold", "serve.handle_advise_warm"]
            .iter()
            .flat_map(|n| ctx.tracer.durations(n))
            .collect();
        let tcp_p50 = median(&tcp_advise)?;
        let m = &mut out.metrics;
        m.set("serve.socket_share", 1.0 - median(&in_process)? / tcp_p50);
        m.set(
            "serve.tcp_tail_ratio",
            percentile(&tcp_advise, 0.90).map_err(|e| format!("serve.tcp_advise: {e}"))? / tcp_p50,
        );
        let gen = market_month(ctx.seed, 0);
        probes::run(ctx, &gen, &mut out, false)?;
        return Ok(out);
    }

    let m = &mut out.metrics;
    m.set(
        "setup_s",
        setup_s.expect("untraced runs time their set-ups"),
    );
    m.set("latency_ms", median(&tcp_advise)? * 1e3);
    m.set("throughput", requests as f64 / wall);
    m.set(
        "peak_rss_mb",
        rss.ok_or("a client stopped before its first cycles")??,
    );
    Ok(out)
}
