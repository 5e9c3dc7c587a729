//! `fleet_bounded`: `chaos_fleet::fleet_mix` of 8,000 jobs against 1,000
//! units per zone at fault intensity 0.5, a fresh high-volatility month
//! per fleet until the run's time is up. Bounded pools reject Adaptive,
//! so the decision layer does no work: lock-step scheduling, the capacity
//! pool and the degradation ladder do all of it. An Adaptive-layer change
//! should leave this workload unchanged.
//!
//! A fleet's time hangs on the stretch of market it lands on (it spans
//! about a day), so a run covers many months with 8,000-job fleets rather
//! than two or three with 16,000; the traced run times the 16,000-job
//! fleet for the scaling exponent.

use crate::report::{self, Checks, Outcome};
use crate::stats::median;
use crate::{median_setup, probes, sub_seed, RunCtx, THREADS};
use redspot_core::telemetry::journal::fnv1a;
use redspot_core::{Era, MarketCtx};
use redspot_exp::experiments::chaos_fleet::fleet_mix;
use redspot_exp::{FleetJob, FleetOutcome, FleetRequest};
use redspot_market::CapacityPool;
use redspot_trace::gen::GenConfig;
use std::sync::Arc;
use std::time::Instant;

/// Shared fault intensity of both fault planes.
const INTENSITY: f64 = 0.5;

/// Pool width: the fleet's three zones.
const ZONES: usize = 3;

struct Fleet {
    mkt: MarketCtx,
    jobs: Vec<FleetJob>,
    pool: Arc<CapacityPool>,
}

/// Month `k`'s market, mix and pool, all fresh: the uptime memo and the
/// pool's counters both fill during a fleet. `times` scales the fleet
/// and its capacity together.
fn setup(ctx: &RunCtx, k: u64, times: u64, capacity: Option<u64>) -> Fleet {
    let t = ctx.tracer;
    let seed = sub_seed(ctx.seed, k);
    let traces = t.span("trace.generate", || {
        GenConfig::high_volatility(seed).generate()
    });
    t.span("fleet.mix", || {
        let mkt = MarketCtx::new(traces);
        let n = ctx.scale.fleet_jobs * times as usize;
        let jobs = fleet_mix(&mkt, seed, INTENSITY, n, Era::Classic);
        let pool = Arc::new(match capacity {
            Some(units) => CapacityPool::uniform(ZONES, units * times),
            None => CapacityPool::unbounded(),
        });
        Fleet { mkt, jobs, pool }
    })
}

fn execute(f: &Fleet, metered: bool) -> Result<FleetOutcome, String> {
    FleetRequest::new(&f.mkt, &f.jobs, Arc::clone(&f.pool))
        .threads(THREADS)
        .metered(metered)
        .execute()
        .map_err(|e| format!("fleet rejected: {e}"))
}

/// Every job met its deadline and every debited unit came back; returns
/// the digest of the results.
fn check(checks: &mut Checks, label: &str, out: &FleetOutcome) -> u64 {
    for (i, r) in out.results.iter().enumerate() {
        checks.check(r.met_deadline, || {
            format!("{label}: job {i} missed its deadline")
        });
    }
    checks.check(out.pool_balanced, || {
        format!("{label}: capacity pool unbalanced: {:?}", out.pool)
    });
    fnv1a(format!("{:?}", out.results).as_bytes())
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let units = Some(ctx.scale.fleet_capacity);

    if ctx.tracer.enabled() {
        // Month 0's fleet, the same mix at twice the size and capacity,
        // and on an unbounded pool (the parallel path lock-step
        // replaces): the time lock-step adds, and how it grows with the
        // fleet.
        let timed = |label: &'static str, f: &Fleet| {
            let t = Instant::now();
            let o = ctx.tracer.span(label, || execute(f, true));
            o.map(|o| (o, t.elapsed().as_secs_f64()))
        };
        let base = setup(ctx, 0, 1, units);
        let (bounded, t_base) = timed("fleet.bounded", &base)?;
        out.digest = check(&mut out.checks, "bounded", &bounded);
        let (double, t_double) = timed("fleet.bounded_double", &setup(ctx, 0, 2, units))?;
        check(&mut out.checks, "bounded double", &double);
        let (free, t_free) = timed("fleet.unbounded", &setup(ctx, 0, 1, None))?;
        check(&mut out.checks, "unbounded", &free);

        let m = &mut out.metrics;
        let runs = bounded.metrics.expect("metered fleet");
        probes::set_pass_counters(m, Default::default(), base.mkt.uptime_stats(), &runs);
        m.set("market.pool_debits", bounded.pool.debits as f64);
        m.set("market.pool_denials", bounded.pool.denials as f64);
        m.set("degrade.zones_shed", runs.zones_shed as f64);
        m.set("degrade.start_deferrals", runs.start_deferrals as f64);
        m.set("degrade.capacity_spills", runs.capacity_spills as f64);
        m.set("fleet.lockstep_share", 1.0 - t_free / t_base);
        m.set("fleet.scaling_exponent", (t_double / t_base).log2());
        let gen = GenConfig::high_volatility(sub_seed(ctx.seed, 0));
        probes::run(ctx, &gen, &mut out, true)?;
        return Ok(out);
    }

    let setup_s = median_setup(ctx.scale, || Ok(setup(ctx, 0, 1, units)), |_| Ok(()))?;
    let mut fleet_secs = Vec::new();
    let start = Instant::now();
    while fleet_secs.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let fleet = setup(ctx, fleet_secs.len() as u64, 1, units);
        let t = Instant::now();
        let outcome = execute(&fleet, false)?;
        fleet_secs.push(t.elapsed().as_secs_f64());
        let digest = check(&mut out.checks, "bounded", &outcome);
        if fleet_secs.len() == 1 {
            out.digest = digest;
            // Peak RSS after a fixed amount of work: the first fleet.
            out.metrics.set("peak_rss_mb", report::peak_rss_mib()?);
        }
    }
    let m = &mut out.metrics;
    m.set("setup_s", setup_s);
    m.set("latency_ms", median(&fleet_secs)? * 1e3);
    m.set(
        "throughput",
        (ctx.scale.fleet_jobs * fleet_secs.len()) as f64 / fleet_secs.iter().sum::<f64>(),
    );
    Ok(out)
}
