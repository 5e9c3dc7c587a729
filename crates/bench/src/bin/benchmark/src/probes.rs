//! The layer probe suite of a traced run.
//!
//! Each traced run times the public calls of the decision-plane layers on
//! the workload's own month of prices: trace generation, the sweep scan
//! seed, Adaptive decisions from a fresh and from a reused session, Markov
//! model builds, whole Adaptive cells, and the serve router. Every
//! workload has such a month, so every traced run reports every timing;
//! whether a workload's end-to-end result depends on a layer is the
//! README's layer map, not something the probe decides.

use crate::report::{Metrics, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{serve, sweep, RunCtx};
use redspot_core::policy::markov_daly::{HISTORY, MARKOV_BIN_MILLIS};
use redspot_core::{
    AdaptiveRunner, CacheStats, ExperimentConfig, MarketCtx, MemoStats, MetricsRecorder, RunMetrics,
};
use redspot_exp::run_spec;
use redspot_markov::MarkovModel;
use redspot_trace::gen::GenConfig;
use redspot_trace::{SimTime, Window, ZoneId};

/// What the Adaptive-cell probe measured besides its spans: the counters
/// of a `threads = 1` pass, which repeat exactly for a given seed.
pub struct CellProbe {
    /// Summed wall time of every cell, seconds.
    pub cell_secs: f64,
    /// Merged engine metrics of every cell.
    pub metrics: RunMetrics,
    /// Decision-cache activity of the pass.
    pub cache: CacheStats,
    /// Markov memo activity of the pass.
    pub memo: MemoStats,
}

/// Run the probe suite on the month `gen` describes and set the probe
/// timings in `out`. `serve_probe` is false for the serve workload, whose
/// replay of its own TCP script has already recorded the router spans.
pub fn run(
    ctx: &RunCtx,
    gen: &GenConfig,
    out: &mut Outcome,
    serve_probe: bool,
) -> Result<CellProbe, String> {
    let t = ctx.tracer;
    let checks = &mut out.checks;
    let mut traces = t.span("trace.generate", || gen.generate());
    for _ in 1..ctx.scale.setup_reps {
        traces = t.span("trace.generate", || gen.generate());
    }
    for _ in 0..ctx.scale.setup_reps {
        let mkt = t.span("adaptive.seed_build", || {
            MarketCtx::for_sweep(traces.clone())
        });
        drop(mkt);
    }

    // Decisions at hourly points: a fresh session per point (scan built
    // from scratch) against one session advanced point to point. The
    // two must agree exactly — the incremental scan is bit-identical to
    // a rebuild.
    let cfg = ExperimentConfig::paper_default();
    let (rc, rt) = (cfg.app.work, cfg.deadline);
    let runner = AdaptiveRunner::new(traces.clone(), traces.start(), cfg);
    let points: Vec<SimTime> = (0..ctx.scale.probe_points as u64)
        .map(|i| SimTime::from_hours(sweep::FIRST_START_H + i))
        .collect();
    let mut reused = runner.session();
    reused.decide(points[0], rc, rt);
    for &now in &points {
        let mut fresh = runner.session();
        let cold = t.span("adaptive.decide_cold", || fresh.decide(now, rc, rt));
        let warm = t.span("adaptive.decide_warm", || reused.decide(now, rc, rt));
        checks.check(cold.is_some() && cold == warm, || {
            format!("decide at {now}: fresh {cold:?} vs reused {warm:?}")
        });
    }

    // Markov-Daly's model: the 48 h window ending at each point.
    for (i, &now) in points.iter().enumerate() {
        let zone = traces.zone(ZoneId(i % traces.n_zones()));
        let window = Window::new(now.saturating_sub(HISTORY), now);
        t.span("markov.model_build", || {
            MarkovModel::with_bin(zone, window, MARKOV_BIN_MILLIS)
        });
    }

    // Whole Adaptive cells, one at a time, on a fresh sweep context: the
    // sweep workload's grid on this month.
    let mkt = MarketCtx::for_sweep(traces.clone());
    let specs = sweep::specs(ctx.scale.sweep_starts);
    let mut metrics = RunMetrics::default();
    for base in sweep::bases() {
        for spec in &specs {
            let (r, m) = t.span("exec.cell", || {
                run_spec(&mkt, spec, &base, MetricsRecorder::new())
            });
            checks.check(r.met_deadline, || {
                format!("probe cell at {} missed its deadline", spec.start)
            });
            metrics.merge(&m);
        }
    }

    if serve_probe {
        serve::probe(ctx, &traces, checks)?;
    }
    timings(t, &mut out.metrics)?;
    Ok(CellProbe {
        cell_secs: t.total("exec.cell"),
        metrics,
        cache: mkt.cache_stats(),
        memo: mkt.uptime_stats(),
    })
}

/// Per-layer timings aggregated from the spans the probes (and the
/// serve replay) recorded.
fn timings(t: &Tracer, m: &mut Metrics) -> Result<(), String> {
    let samples = |name: &str| -> Vec<f64> { t.durations(name) };
    let med = |name: &str, scale: f64| -> Result<f64, String> {
        median(&samples(name))
            .map(|v| v * scale)
            .map_err(|e| format!("{name}: {e}"))
    };
    let p90 = |name: &str| -> Result<f64, String> {
        percentile(&samples(name), 0.90)
            .map(|v| v * 1e6)
            .map_err(|e| format!("{name}: {e}"))
    };
    m.set("trace.generate_ms", med("trace.generate", 1e3)?);
    m.set("adaptive.seed_build_ms", med("adaptive.seed_build", 1e3)?);
    m.set("adaptive.decide_cold_us", med("adaptive.decide_cold", 1e6)?);
    m.set("adaptive.decide_cold_p90_us", p90("adaptive.decide_cold")?);
    m.set("adaptive.decide_warm_us", med("adaptive.decide_warm", 1e6)?);
    m.set("adaptive.decide_warm_p90_us", p90("adaptive.decide_warm")?);
    m.set("markov.model_build_us", med("markov.model_build", 1e6)?);
    m.set("exec.cell_us", med("exec.cell", 1e6)?);
    m.set("exec.cell_p90_us", p90("exec.cell")?);
    m.set("serve.parse_us", med("serve.parse", 1e6)?);
    m.set("serve.handle_ingest_us", med("serve.handle_ingest", 1e6)?);
    m.set(
        "serve.handle_advise_cold_us",
        med("serve.handle_advise_cold", 1e6)?,
    );
    m.set(
        "serve.handle_advise_warm_us",
        med("serve.handle_advise_warm", 1e6)?,
    );
    m.set(
        "serve.handle_advise_warm_p90_us",
        p90("serve.handle_advise_warm")?,
    );
    Ok(())
}

/// Set the counters a `threads = 1` Adaptive pass yields: decision-cache
/// and Markov-memo activity (with their bases) and engine events per
/// cell.
pub fn set_pass_counters(m: &mut Metrics, cache: CacheStats, memo: MemoStats, runs: &RunMetrics) {
    m.set("adaptive.cache_lookups", (cache.hits + cache.misses) as f64);
    m.set("adaptive.cache_hit_rate", cache.hit_rate());
    m.set("markov.memo_lookups", (memo.hits + memo.misses) as f64);
    m.set("markov.memo_hit_rate", memo.hit_rate());
    if runs.runs > 0 {
        m.set(
            "engine.events_per_cell",
            runs.events_seen as f64 / runs.runs as f64,
        );
    }
}
