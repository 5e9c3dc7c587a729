//! `adaptive_sweep`: freshly generated high-volatility months, each in
//! its own cold `MarketCtx::for_sweep`, each running the 520-cell Adaptive
//! sensitivity grid (130 hourly starts × slack 10/15/25/50 %) through
//! `RunRequest::execute`. Cold contexts make the decision layer — scan,
//! decision cache, Markov memo — fill exactly as in a real sweep, and it
//! does most of the work.

use crate::report::{self, Checks, Outcome};
use crate::stats::median;
use crate::{median_setup, probes, sub_seed, RunCtx, THREADS};
use redspot_core::telemetry::journal::fnv1a;
use redspot_core::{ExperimentConfig, MarketCtx, RunResult};
use redspot_exp::exec::RunRequest;
use redspot_exp::scheme::{RunSpec, Scheme};
use redspot_trace::gen::GenConfig;
use redspot_trace::{Price, SimTime};
use std::time::Instant;

/// Slack levels of the grid, percent of `C`.
const SLACKS: [u64; 4] = [10, 15, 25, 50];

/// Earliest start, hours: 48 h of history before the first decision.
pub const FIRST_START_H: u64 = 48;

/// One base config per slack level.
pub fn bases() -> Vec<ExperimentConfig> {
    SLACKS
        .iter()
        .map(|&pct| ExperimentConfig::paper_default().with_slack_percent(pct))
        .collect()
}

/// Adaptive cells at `starts` consecutive hourly starts.
pub fn specs(starts: usize) -> Vec<RunSpec> {
    (0..starts as u64)
        .map(|i| RunSpec {
            start: SimTime::from_hours(FIRST_START_H + i),
            bid: Price::from_millis(810),
            scheme: Scheme::Adaptive,
        })
        .collect()
}

/// The `i`-th month of a run's input stream.
fn month(seed: u64, i: u64) -> GenConfig {
    GenConfig::high_volatility(sub_seed(seed, i))
}

fn setup(ctx: &RunCtx, gen: &GenConfig) -> MarketCtx {
    let traces = ctx.tracer.span("trace.generate", || gen.generate());
    ctx.tracer
        .span("adaptive.seed_build", || MarketCtx::for_sweep(traces))
}

/// The whole grid on one month.
fn sweep(mkt: &MarketCtx, specs: &[RunSpec], threads: usize) -> Vec<RunResult> {
    let mut out = Vec::new();
    for base in bases() {
        let batch = RunRequest::new(mkt, &base, specs)
            .threads(threads)
            .execute()
            .expect("paper-default grid configs are valid");
        out.extend(batch.results);
    }
    out
}

fn check_cells(checks: &mut Checks, month: u64, results: &[RunResult]) {
    for (i, r) in results.iter().enumerate() {
        checks.check(r.met_deadline, || {
            format!("month {month} cell {i} missed its deadline")
        });
    }
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let specs = specs(ctx.scale.sweep_starts);

    if ctx.tracer.enabled() {
        // Month 0 through the parallel executor, then cell by cell on a
        // fresh context (the probe): the parallel pass's wall time against
        // the cells' summed time gives the executor's busy ratio, and the
        // one-thread pass gives counts that repeat exactly.
        let gen = month(ctx.seed, 0);
        let mkt = setup(ctx, &gen);
        let t = Instant::now();
        let results = ctx
            .tracer
            .span("exec.batch", || sweep(&mkt, &specs, THREADS));
        let batch_secs = t.elapsed().as_secs_f64();
        check_cells(&mut out.checks, 0, &results);
        out.digest = fnv1a(format!("{results:?}").as_bytes());
        let cells = probes::run(ctx, &gen, &mut out, true)?;
        probes::set_pass_counters(&mut out.metrics, cells.cache, cells.memo, &cells.metrics);
        out.metrics.set(
            "exec.busy_ratio",
            cells.cell_secs / (THREADS as f64 * batch_secs),
        );
        return Ok(out);
    }

    let first = month(ctx.seed, 0);
    let setup_s = median_setup(ctx.scale, || Ok(setup(ctx, &first)), |_| Ok(()))?;
    let mut month_secs = Vec::new();
    let mut cells = 0usize;
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mkt = setup(ctx, &month(ctx.seed, i));
        let t = Instant::now();
        let results = sweep(&mkt, &specs, THREADS);
        month_secs.push(t.elapsed().as_secs_f64());
        cells += results.len();
        check_cells(&mut out.checks, i, &results);
        if i == 0 {
            out.digest = fnv1a(format!("{results:?}").as_bytes());
            // Peak RSS after a fixed amount of work: the first month.
            out.metrics.set("peak_rss_mb", report::peak_rss_mib()?);
        }
        i += 1;
    }
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("latency_ms", median(&month_secs)? * 1e3);
    m.set("throughput", cells as f64 / month_secs.iter().sum::<f64>());
    Ok(out)
}
