//! Adaptive decision-point latency: naive permutation walks vs the shared
//! permutation scan, on the paper-default grid (16 bids × N ∈ {1,2,3} ×
//! 2 policies, 24 h history, 3 zones).
//!
//! Emits `BENCH_adaptive.json` with ns/decision-point, decisions/s, and
//! the scan's speedup over the naive path. With `--check`, exits non-zero
//! if either scanned path is slower than the naive path (CI guard).

use redspot_core::{AdaptiveConfig, AdaptiveRunner, ExperimentConfig};
use redspot_trace::gen::GenConfig;
use redspot_trace::{SimDuration, SimTime};
use std::time::Instant;

/// Decision points cycle over this many hourly boundaries after warm-up,
/// mirroring a week of billing-hour decisions.
const CYCLE_HOURS: u64 = 168;

struct Args {
    iters: u64,
    seed: u64,
    json: Option<String>,
    check: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        iters: 500,
        seed: 42,
        json: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    let fail = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: bench_adaptive [--quick] [--iters <n>] [--seed <s>] [--json <file>] [--check]"
        );
        std::process::exit(2);
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => out.iters = 60,
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => out.iters = n,
                _ => fail("--iters needs a positive integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => out.seed = s,
                None => fail("--seed needs an integer"),
            },
            "--json" => match it.next() {
                Some(p) => out.json = Some(p),
                None => fail("--json needs a file path"),
            },
            "--check" => out.check = true,
            other => fail(&format!("unknown flag: {other}")),
        }
    }
    out
}

/// Mean ns per decision over `iters` calls at cycling hourly decision
/// points. `fresh_session` drops the scan cache between decisions (naive
/// mode is stateless, so it only matters for the scan).
fn measure(
    runner: &AdaptiveRunner,
    start: SimTime,
    work: SimDuration,
    deadline: SimDuration,
    iters: u64,
    fresh_session: bool,
) -> f64 {
    let at = |i: u64| start + SimDuration::from_hours(i % CYCLE_HOURS);
    let run = |n: u64| {
        if fresh_session {
            for i in 0..n {
                let d = runner.session().decide(at(i), work, deadline);
                std::hint::black_box(d);
            }
        } else {
            let mut session = runner.session();
            for i in 0..n {
                let d = session.decide(at(i), work, deadline);
                std::hint::black_box(d);
            }
        }
    };
    run(iters / 10 + 1); // warm-up
    let t = Instant::now();
    run(iters);
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let args = parse_args();
    let traces = GenConfig::high_volatility(args.seed).generate();
    let cfg = ExperimentConfig::paper_default();
    let work = cfg.app.work;
    let deadline = cfg.deadline;
    let start = SimTime::from_hours(48);
    let acfg = AdaptiveConfig::default();

    let naive_runner = AdaptiveRunner::new(&traces, start, cfg.clone()).with_naive_forecasts();
    let scan_runner = AdaptiveRunner::new(&traces, start, cfg);

    let naive = measure(&naive_runner, start, work, deadline, args.iters, true);
    let cold = measure(&scan_runner, start, work, deadline, args.iters, true);
    let incr = measure(&scan_runner, start, work, deadline, args.iters, false);

    let per_sec = |ns: f64| 1e9 / ns;
    let rows = [
        ("naive", naive),
        ("scan (cold build)", cold),
        ("scan (incremental)", incr),
    ];
    println!(
        "adaptive decision point: {} bids x {} N x {} policies, {} h history, {} zones, {} decisions",
        acfg.bid_grid.len(),
        acfg.n_options.len(),
        acfg.policy_kinds.len(),
        acfg.history.secs() / 3_600,
        traces.n_zones(),
        args.iters,
    );
    for (name, ns) in rows {
        println!(
            "  {name:<20} {:>12.0} ns/decision  {:>10.0} decisions/s  {:>6.2}x vs naive",
            ns,
            per_sec(ns),
            naive / ns,
        );
    }

    if let Some(path) = &args.json {
        let json = format!(
            "{{\n  \"bench\": \"adaptive_decision\",\n  \"grid\": {{\"bids\": {}, \"n_options\": {}, \"policies\": {}, \"zones\": {}, \"history_hours\": {}}},\n  \"decisions\": {},\n  \"naive_ns_per_decision\": {:.0},\n  \"scan_cold_ns_per_decision\": {:.0},\n  \"scan_incremental_ns_per_decision\": {:.0},\n  \"naive_decisions_per_sec\": {:.1},\n  \"scan_cold_decisions_per_sec\": {:.1},\n  \"scan_incremental_decisions_per_sec\": {:.1},\n  \"speedup_cold\": {:.2},\n  \"speedup_incremental\": {:.2}\n}}\n",
            acfg.bid_grid.len(),
            acfg.n_options.len(),
            acfg.policy_kinds.len(),
            traces.n_zones(),
            acfg.history.secs() / 3_600,
            args.iters,
            naive,
            cold,
            incr,
            per_sec(naive),
            per_sec(cold),
            per_sec(incr),
            naive / cold,
            naive / incr,
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if args.check && (cold > naive || incr > naive) {
        eprintln!(
            "check failed: scan slower than naive (cold {:.2}x, incremental {:.2}x)",
            naive / cold,
            naive / incr,
        );
        std::process::exit(1);
    }
}
