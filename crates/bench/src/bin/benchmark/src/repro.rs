//! `paper_repro`: the paper's §5–7 evaluation at paper scale — Figures 2,
//! 4, 5 and 6, Tables 2–3 at t_c 300/900 s, the VAR analysis, the
//! queuing study and the headline — over `PaperSetup::new(seed, 80)`,
//! the way a reproducer runs it, for consecutive input seeds until the
//! run's time is up. The engine- and Markov-heavy mixed-scheme sweeps
//! behind Figure 4 and the tables take most of the time; the fleet and
//! serve planes do no work here.

use crate::report::{self, Checks, Outcome};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{median_setup, probes, sub_seed, RunCtx, THREADS};
use redspot_core::telemetry::journal::fnv1a;
use redspot_core::{CacheStats, MemoStats, RunMetrics};
use redspot_exp::exec::RunRequest;
use redspot_exp::experiments::{fig2, fig4, fig5, fig6, headline, queuing, tables, var_analysis};
use redspot_exp::report::dollars;
use redspot_exp::scheme::{RunSpec, Scheme};
use redspot_exp::PaperSetup;
use redspot_trace::gen::GenConfig;
use redspot_trace::vol::Volatility;
use redspot_trace::Price;
use std::time::Instant;

/// The evaluation stages, in the order a full reproduction runs them.
const STAGES: [(&str, &str); 8] = [
    ("repro.fig2", "repro.fig2_share"),
    ("repro.var_analysis", "repro.var_analysis_share"),
    ("repro.queuing", "repro.queuing_share"),
    ("repro.fig4", "repro.fig4_share"),
    ("repro.tables", "repro.tables_share"),
    ("repro.fig5", "repro.fig5_share"),
    ("repro.fig6", "repro.fig6_share"),
    ("repro.headline", "repro.headline_share"),
];

/// Days of twice-daily queuing samples (the paper's two months).
const QUEUING_DAYS: usize = 60;

fn setup(ctx: &RunCtx, k: u64, threads: usize) -> PaperSetup {
    let mut setup = PaperSetup::new(sub_seed(ctx.seed, k), ctx.scale.repro_n);
    setup.threads = threads;
    setup
}

/// One full reproduction: the exact text of every stage's results, and
/// Figure 5's Adaptive costs per panel for the guarantee check.
fn reproduce(t: &Tracer, setup: &PaperSetup) -> (String, Vec<fig5::Fig5Panel>) {
    let mut text = String::new();
    let [s_fig2, s_var, s_queuing, s_fig4, s_tables, s_fig5, s_fig6, s_headline] =
        STAGES.map(|(span, _)| span);
    t.span(s_fig2, || {
        text += &fig2::render(&fig2::fig2(setup, Price::from_millis(810)));
    });
    t.span(s_var, || {
        let analyses: Vec<_> = [Volatility::Low, Volatility::High]
            .into_iter()
            .filter_map(|v| var_analysis::analyse(setup, v))
            .collect();
        text += &var_analysis::render(&analyses);
    });
    t.span(s_queuing, || {
        text += &queuing::render(&queuing::study(setup.seed, QUEUING_DAYS));
    });
    t.span(s_fig4, || {
        for panel in fig4::fig4(setup) {
            text += &format!("{:?}", panel.rows);
        }
    });
    t.span(s_tables, || {
        for tc in [300, 900] {
            let table = tables::optimal_policies(setup, tc);
            text += &tables::render(&table);
            for (_, _, winner) in &table.cells {
                text += &format!("{winner:?}");
            }
        }
    });
    let panels = t.span(s_fig5, || {
        let panels = fig5::fig5(setup);
        for p in &panels {
            text += &format!("{:?}", p.rows());
        }
        panels
    });
    t.span(s_fig6, || {
        for p in fig6::fig6(setup) {
            text += &format!("{:?}", p.rows());
        }
    });
    t.span(s_headline, || {
        let h = headline::headline(setup);
        text += &headline::render(&h);
        text += &format!("{:?}", (h.best_vs_od, h.best_vs_single, h.worst_vs_od));
    });
    (text, panels)
}

/// The §4 guarantee behind Figure 5: re-run every panel's Adaptive cells
/// against the reproduction's (now warm) contexts and require each to
/// meet its deadline at exactly the cost the figure reported.
fn check_guarantee(
    checks: &mut Checks,
    setup: &PaperSetup,
    panels: &[fig5::Fig5Panel],
    threads: usize,
) -> RunMetrics {
    let mut metrics = RunMetrics::default();
    for p in panels {
        let base = setup.base_config(p.slack_pct, p.tc_secs);
        let specs: Vec<RunSpec> = setup
            .starts(p.volatility, base.deadline)
            .into_iter()
            .map(|start| RunSpec {
                start,
                bid: base.bid,
                scheme: Scheme::Adaptive,
            })
            .collect();
        let out = RunRequest::new(setup.ctx(p.volatility), &base, &specs)
            .threads(threads)
            .metered(true)
            .execute()
            .expect("paper grid configs are valid");
        metrics.merge(out.metrics.as_ref().expect("metered batch"));
        for (i, r) in out.results.iter().enumerate() {
            checks.check(r.met_deadline, || {
                format!(
                    "{} t_c={} slack={}% Adaptive cell {i} missed its deadline",
                    p.volatility, p.tc_secs, p.slack_pct
                )
            });
        }
        checks.check(dollars(&out.results) == p.adaptive, || {
            format!(
                "{} t_c={} slack={}%: replayed Adaptive costs differ from Figure 5",
                p.volatility, p.tc_secs, p.slack_pct
            )
        });
    }
    metrics
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    if ctx.tracer.enabled() {
        // One thread, so the cache and memo counters repeat exactly.
        let setup = setup(ctx, 0, 1);
        let (text, panels) = ctx
            .tracer
            .span("repro.pass", || reproduce(ctx.tracer, &setup));
        out.digest = fnv1a(text.as_bytes());
        let (mut cache, mut memo) = (CacheStats::default(), MemoStats::default());
        for vol in [Volatility::Low, Volatility::High] {
            let (c, u) = (setup.ctx(vol).cache_stats(), setup.ctx(vol).uptime_stats());
            (cache.hits, cache.misses) = (cache.hits + c.hits, cache.misses + c.misses);
            (memo.hits, memo.misses) = (memo.hits + u.hits, memo.misses + u.misses);
        }
        let runs = check_guarantee(&mut out.checks, &setup, &panels, 1);
        let m = &mut out.metrics;
        probes::set_pass_counters(m, cache, memo, &runs);
        let pass = ctx.tracer.total("repro.pass");
        for (span, metric) in STAGES {
            m.set(metric, ctx.tracer.total(span) / pass);
        }
        // The high-volatility window of the same set-up.
        let high = GenConfig::high_volatility(sub_seed(ctx.seed, 0).wrapping_add(1));
        probes::run(ctx, &high, &mut out, true)?;
        return Ok(out);
    }

    let setup_s = median_setup(ctx.scale, || Ok(setup(ctx, 0, THREADS)), |_| Ok(()))?;
    // Reproductions of consecutive inputs until the time is up.
    let mut pass_secs = Vec::new();
    let start = Instant::now();
    while pass_secs.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let setup = setup(ctx, pass_secs.len() as u64, THREADS);
        let t = Instant::now();
        let (text, panels) = reproduce(ctx.tracer, &setup);
        pass_secs.push(t.elapsed().as_secs_f64());
        if pass_secs.len() == 1 {
            out.digest = fnv1a(text.as_bytes());
            // Peak RSS after a fixed amount of work: the first input.
            out.metrics.set("peak_rss_mb", report::peak_rss_mib()?);
        }
        check_guarantee(&mut out.checks, &setup, &panels, THREADS);
    }
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("latency_ms", median(&pass_secs)? * 1e3);
    m.set(
        "throughput",
        pass_secs.len() as f64 / pass_secs.iter().sum::<f64>(),
    );
    Ok(out)
}
