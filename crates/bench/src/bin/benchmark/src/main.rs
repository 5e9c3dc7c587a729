//! redspot's end-to-end benchmark. See README.md for the workloads, the
//! metrics and how to compare two sets of runs.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--out RUNS] [--trace-out SPANS]
//! benchmark run --seed N --out RUNS [--seconds S] [--trace-out SPANS]
//! benchmark compare A_RUNS B_RUNS [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload and prints its result object as the
//! last line of stdout: end-to-end metrics when untraced, per-layer
//! metrics when traced. `run` runs every workload, each in its own child
//! process (so peak RSS is per workload), untraced — and traced too when
//! `--trace-out` is given. `compare` judges two run files.

mod compare;
mod fleet;
mod probes;
mod report;
mod repro;
mod serve;
mod spans;
mod stats;
mod sweep;

use report::{result_json, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads for batches and fleets, and client connections for
/// serve: the benchmark is sized for a 2-core machine.
pub const THREADS: usize = 2;

/// The seed of the `k`-th input of a run: a run keeps drawing fresh
/// inputs (months, reproductions, fleets) until its time is up, so its
/// numbers average over inputs instead of hanging on one.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Median wall time of back-to-back calls of `setup` — at least
/// `scale.setup_reps` of them, over at least `scale.setup_secs` — each
/// result handed to `discard` outside the timing. Back-to-back, so the
/// number is the set-up's own cost and not the cache state a previous
/// measurement left behind; spread over a window, so a slow spell of a
/// few tens of milliseconds cannot hold the median.
pub fn median_setup<T>(
    scale: &Scale,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T) -> Result<(), String>,
) -> Result<f64, String> {
    let mut secs = Vec::new();
    let window = Instant::now();
    while secs.len() < scale.setup_reps || window.elapsed().as_secs_f64() < scale.setup_secs {
        let t = Instant::now();
        let s = setup()?;
        secs.push(t.elapsed().as_secs_f64());
        discard(s)?;
    }
    stats::median(&secs)
}

/// Workload sizes. The full scale is what every reported number uses;
/// the smoke test drives the same code at a tiny one.
pub struct Scale {
    /// Experiments per volatility window of the reproduction.
    pub repro_n: usize,
    /// Hourly Adaptive starts per slack level in the sweep grid.
    pub sweep_starts: usize,
    /// Fleet size.
    pub fleet_jobs: usize,
    /// Capacity units per zone for the full fleet.
    pub fleet_capacity: u64,
    /// Serve cycles per client before it stops regardless of time.
    pub serve_max_cycles: usize,
    /// Serve cycles per client before the time limit may stop it; the
    /// digest covers exactly these.
    pub serve_min_cycles: usize,
    /// Fewest back-to-back set-ups per untraced run; `setup_s` is their
    /// median.
    pub setup_reps: usize,
    /// Shortest window the set-ups must span, seconds.
    pub setup_secs: f64,
    /// Hourly decision points of the decide and Markov probes.
    pub probe_points: usize,
    /// Cycles of the in-process router probe.
    pub probe_cycles: usize,
}

impl Scale {
    const FULL: Scale = Scale {
        repro_n: 80,
        sweep_starts: 130,
        fleet_jobs: 8_000,
        fleet_capacity: 1_000,
        serve_max_cycles: 8_000,
        serve_min_cycles: 20,
        setup_reps: 9,
        setup_secs: 0.25,
        probe_points: 600,
        probe_cycles: 100,
    };
}

/// Everything a workload run needs.
pub struct RunCtx<'a> {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to keep measuring, seconds.
    pub seconds: f64,
    /// Span recorder (off for end-to-end runs).
    pub tracer: &'a Tracer,
    /// Workload sizes.
    pub scale: &'a Scale,
}

const WORKLOADS: [&str; 4] = [
    "paper_repro",
    "adaptive_sweep",
    "fleet_bounded",
    "serve_tcp",
];

/// Run one workload and resolve its metric table.
fn run_workload(
    workload: &str,
    ctx: &RunCtx,
) -> Result<(report::Outcome, report::Resolved), String> {
    let out = match workload {
        "paper_repro" => repro::run(ctx)?,
        "adaptive_sweep" => sweep::run(ctx)?,
        "fleet_bounded" => fleet::run(ctx)?,
        "serve_tcp" => serve::run(ctx)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let table = if ctx.tracer.enabled() {
        PER_LAYER
    } else {
        END_TO_END
    };
    let metrics = out.metrics.resolve(table)?;
    Ok((out, metrics))
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    trace_out: Option<String>,
    bench: String,
    positional: Vec<String>,
}

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--out RUNS] [--trace-out SPANS]
  benchmark run --seed N --out RUNS [--seconds S] [--trace-out SPANS]
  benchmark compare A_RUNS B_RUNS [--bench BENCHMARK.json]
workloads: paper_repro adaptive_sweep fleet_bounded serve_tcp";

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: None,
        seconds: 20.0,
        trace: false,
        out: None,
        trace_out: None,
        bench: "BENCHMARK.json".into(),
        positional: Vec::new(),
    };
    let mut it = raw;
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs a non-negative integer")?,
                )
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = Some(value("--out")?),
            "--trace-out" => a.trace_out = Some(value("--trace-out")?),
            "--bench" => a.bench = value("--bench")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg),
        }
    }
    Ok(a)
}

/// One workload run: print the result object last, append the run record
/// to `--out` and the spans to `--trace-out`.
fn single(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.as_deref().ok_or("--workload is required")?;
    let seed = a.seed.ok_or("--seed is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let tracer = if a.trace {
        Tracer::on(format!("{workload}-{seed}-{}", std::process::id()))
    } else {
        Tracer::off()
    };
    let ctx = RunCtx {
        seed,
        seconds: a.seconds,
        tracer: &tracer,
        scale: &Scale::FULL,
    };
    let (outcome, metrics) = run_workload(workload, &ctx)?;
    let result = result_json(&outcome.checks, &metrics);
    if let Some(path) = &a.trace_out {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &a.out {
        use std::io::Write;
        let record = format!(
            r#"{{"workload":"{workload}","seed":{seed},"trace":{},"digest":"{:016x}","result":{result}}}"#,
            u8::from(a.trace),
            outcome.digest
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{workload} seed {seed}: output_digest {:016x}",
        outcome.digest
    );
    println!("{result}");
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a child process of this binary.
fn run_all(a: &Args) -> Result<ExitCode, String> {
    let seed = a.seed.ok_or("--seed is required")?;
    let out = a.out.as_deref().ok_or("--out is required")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut modes = vec![false];
    if a.trace_out.is_some() {
        modes.push(true);
    }
    let mut clean = true;
    for traced in modes {
        for w in WORKLOADS {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--out", out])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if let (true, Some(spans)) = (traced, &a.trace_out) {
                cmd.args(["--trace-out", spans]);
            }
            let status = cmd.status().map_err(|e| format!("{w}: {e}"))?;
            if !status.success() {
                eprintln!("{w}: child exited with {status}");
                clean = false;
            }
        }
    }
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.positional.first().map(String::as_str) {
        None => single(&args),
        Some("run") => run_all(&args),
        Some("compare") => match &args.positional[1..] {
            [a, b] => compare::run(a, b, &args.bench).map(|ok| {
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err("compare takes two run files".into()),
        },
        Some(other) => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod smoke_tests {
    use super::*;

    /// Every workload at a tiny size, untraced and traced, with all
    /// correctness checks on.
    const TINY: Scale = Scale {
        repro_n: 2,
        sweep_starts: 25,
        fleet_jobs: 200,
        fleet_capacity: 25,
        serve_max_cycles: 20,
        serve_min_cycles: 20,
        setup_reps: 2,
        setup_secs: 0.0,
        probe_points: 100,
        probe_cycles: 34,
    };

    #[test]
    fn all_workloads_run_checked_at_tiny_sizes() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let tracer = if trace {
                    Tracer::on("smoke".into())
                } else {
                    Tracer::off()
                };
                let ctx = RunCtx {
                    seed: 7,
                    seconds: 0.0,
                    tracer: &tracer,
                    scale: &TINY,
                };
                let (out, metrics) =
                    run_workload(w, &ctx).unwrap_or_else(|e| panic!("{w} (trace {trace}): {e}"));
                assert!(out.checks.attempted > 0, "{w}: nothing was checked");
                assert_eq!(out.checks.failed, 0, "{w} (trace {trace}) failed checks");
                let table = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(metrics.len(), table.len());
            }
        }
    }

    #[test]
    fn args_parse_the_single_run_form() {
        let a = parse_args(
            [
                "--workload",
                "serve_tcp",
                "--seed",
                "4",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_tcp"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(4), 10.0, true));
        for bad in [
            &["--trace", "2"][..],
            &["--seed", "-1"],
            &["--seconds", "NaN"],
            &["--bogus"],
        ] {
            assert!(
                parse_args(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }
}
