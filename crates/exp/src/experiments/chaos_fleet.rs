//! Fleet-contention chaos study: closed-loop capacity contention with
//! both fault planes live and the graceful-degradation ladder enabled.
//!
//! The [`guarantee`](crate::experiments::guarantee) grid injects
//! *engine* and *control-plane* faults
//! ([`faults`](crate::experiments::guarantee::faults)) into independent
//! runs. This study composes both planes and adds the failure mode
//! neither can produce: **endogenous** capacity exhaustion, where a
//! fleet of jobs drains a shared per-zone [`CapacityPool`] and
//! insufficient-capacity errors emerge from the fleet's own behaviour.
//! The degradation ladder ([`DegradePolicy::standard`]) then sheds
//! redundant zones, defers starts under admission control, and finally
//! spills to on-demand — and the hard requirement stays exactly the
//! paper's: **zero deadline violations in every cell**, plus the
//! pool-conservation invariant (every debited unit credited back).

use crate::experiments::guarantee::TOO_SHORT;
use crate::fleet::{FleetJob, FleetRequest};
use crate::scheme::{RunSpec, Scheme};
use crate::windows::{experiment_starts, run_span_for};
use redspot_ckpt::{AppSpec, CkptCosts};
use redspot_core::{
    DegradePolicy, Era, ExperimentConfig, FaultPlan, MarketCtx, PolicyKind, RunMetrics,
};
use redspot_market::{ApiFaultPlan, CapacityPool, PoolStats};
use redspot_trace::{Price, SimDuration, TraceSet, ZoneId};
use std::sync::Arc;

/// One cell: a fleet at a capacity level and a fault intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCell {
    /// Units per zone; `None` is the unbounded (independent-runs) pool.
    pub capacity: Option<u64>,
    /// Shared intensity fed to both fault planes (0 = fault-free).
    pub intensity: f64,
    /// Fleet-wide total cost in dollars.
    pub total_cost: f64,
    /// Jobs that fell back to on-demand at some point.
    pub on_demand_rate: f64,
    /// Ladder rung 1 firings (redundant zones shed).
    pub zones_shed: u64,
    /// Ladder rung 2 firings (starts deferred under admission control).
    pub start_deferrals: u64,
    /// Ladder rung 3 firings (spills to on-demand).
    pub capacity_spills: u64,
    /// The pool's lifetime counters after the fleet finished.
    pub pool: PoolStats,
    /// Conservation held: every debit credited back.
    pub pool_balanced: bool,
    /// Jobs that missed their deadline. Must be zero.
    pub violations: usize,
    /// Fleet size.
    pub n_jobs: usize,
}

impl FleetCell {
    /// Display label for the capacity level.
    pub fn capacity_label(&self) -> String {
        match self.capacity {
            None => "unbounded".into(),
            Some(u) => format!("{u}/zone"),
        }
    }
}

/// The study result.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosFleet {
    /// All cells, grouped by capacity level then intensity.
    pub cells: Vec<FleetCell>,
    /// Fleet metrics merged across every cell (order-independent).
    pub metrics: RunMetrics,
}

impl ChaosFleet {
    /// Total deadline violations across the study (must be zero).
    pub fn total_violations(&self) -> usize {
        self.cells.iter().map(|c| c.violations).sum()
    }

    /// Whether capacity conservation held in every cell.
    pub fn all_balanced(&self) -> bool {
        self.cells.iter().all(|c| c.pool_balanced)
    }

    /// The study-wide merged metrics (for artifacts).
    pub fn merged_metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// A deterministic mixed fleet: `n_jobs` jobs cycling through slacks,
/// workloads, checkpoint-cost profiles, policies, redundancy degrees and
/// staggered starts — the heterogeneity the fleet plane exists for.
/// Adaptive is excluded so the same mix runs under bounded pools.
pub fn fleet_mix(
    mkt: &MarketCtx,
    seed: u64,
    intensity: f64,
    n_jobs: usize,
    era: Era,
) -> Vec<FleetJob> {
    let traces = mkt.traces();
    let zones: Vec<ZoneId> = traces.zone_ids().collect();
    // Cluster the fleet inside one window (staggered by 2 h) so jobs
    // actually overlap in time — contention needs concurrency.
    let base_start = experiment_starts(traces, run_span_for(SimDuration::from_hours(16)), 8)[0];
    let bid = Price::from_millis(810);
    (0..n_jobs)
        .map(|i| {
            let slack = [15, 25, 40][i % 3];
            let work_h = [6, 8, 10][(i / 3) % 3];
            let costs = if i % 2 == 0 {
                CkptCosts::LOW
            } else {
                CkptCosts::HIGH
            };
            let kind = if i % 2 == 0 {
                PolicyKind::Periodic
            } else {
                PolicyKind::MarkovDaly
            };
            let scheme = if i % 3 == 2 {
                Scheme::Single {
                    kind,
                    zone: zones[i % zones.len()],
                }
            } else {
                Scheme::Redundant {
                    kind,
                    zones: zones.clone(),
                }
            };
            let mut cfg = ExperimentConfig::paper_default()
                .with_slack_percent(slack)
                .with_seed(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .with_faults(FaultPlan::with_intensity(intensity))
                .with_api_faults(ApiFaultPlan::with_intensity(intensity))
                .with_degrade(DegradePolicy::standard())
                .with_era(era);
            cfg.app = AppSpec::new(SimDuration::from_hours(work_h));
            cfg.deadline = cfg.app.work + SimDuration::from_secs(cfg.app.work.secs() * slack / 100);
            cfg.costs = costs;
            FleetJob {
                name: format!("job-{i:02}"),
                spec: RunSpec {
                    start: base_start + SimDuration::from_hours(2 * (i as u64 % 4)),
                    bid,
                    scheme,
                },
                cfg,
            }
        })
        .collect()
}

/// Run the study: every capacity level × intensity over the same mixed
/// fleet on a high-volatility market. `threads = 0` means one worker
/// per CPU (unbounded cells only; bounded cells run lock-step). Fails
/// with [`TOO_SHORT`] when the trace has no room for the fleet's window.
pub fn study(
    traces: &TraceSet,
    seed: u64,
    capacities: &[Option<u64>],
    intensities: &[f64],
    n_jobs: usize,
    threads: usize,
    era: Era,
) -> Result<ChaosFleet, String> {
    // The window `fleet_mix` clusters the fleet in.
    if experiment_starts(traces, run_span_for(SimDuration::from_hours(16)), 8).is_empty() {
        return Err(TOO_SHORT.into());
    }
    let n_zones = traces.zone_ids().count();
    let mkt = MarketCtx::new(traces.clone());
    let mut cells = Vec::new();
    let mut metrics = RunMetrics::default();
    for &capacity in capacities {
        for &intensity in intensities {
            let jobs = fleet_mix(&mkt, seed, intensity, n_jobs, era);
            let pool = Arc::new(match capacity {
                None => CapacityPool::unbounded(),
                Some(u) => CapacityPool::uniform(n_zones, u),
            });
            let outcome = FleetRequest::new(&mkt, &jobs, pool)
                .threads(threads)
                .metered(true)
                .execute()
                .expect("fleet mix is valid");
            let m = outcome.metrics.as_ref().expect("metered fleet");
            metrics.merge(m);
            let n = outcome.results.len();
            cells.push(FleetCell {
                capacity,
                intensity,
                total_cost: outcome.total_cost().as_dollars(),
                on_demand_rate: outcome.results.iter().filter(|r| r.used_on_demand).count() as f64
                    / n.max(1) as f64,
                zones_shed: m.zones_shed,
                start_deferrals: m.start_deferrals,
                capacity_spills: m.capacity_spills,
                pool: outcome.pool,
                pool_balanced: outcome.pool_balanced,
                violations: outcome.violations(),
                n_jobs: n,
            });
        }
    }
    Ok(ChaosFleet { cells, metrics })
}

/// Render the study as a table.
pub fn render(c: &ChaosFleet) -> String {
    let mut out = String::from(
        "Chaos-Fleet: capacity contention + both fault planes + degradation ladder\n\
         (high volatility, mixed fleet, B = $0.81, DegradePolicy::standard)\n\n  \
         capacity    intensity   total cost   denials   shed   defer   spill   on-demand   balanced   violations\n",
    );
    for cell in &c.cells {
        out.push_str(&format!(
            "  {:<10} {:>9.2}   ${:>9.2}   {:>7}   {:>4}   {:>5}   {:>5}   {:>8.0}%   {:>8}   {:>10}\n",
            cell.capacity_label(),
            cell.intensity,
            cell.total_cost,
            cell.pool.denials,
            cell.zones_shed,
            cell.start_deferrals,
            cell.capacity_spills,
            cell.on_demand_rate * 100.0,
            if cell.pool_balanced { "yes" } else { "NO" },
            cell.violations,
        ));
    }
    out.push_str(&format!(
        "\n  total deadline violations: {} (guarantee requires 0); capacity conserved: {}\n",
        c.total_violations(),
        if c.all_balanced() { "yes" } else { "NO" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_survives_contention_and_composed_faults() {
        let traces = redspot_trace::gen::GenConfig::high_volatility(23).generate();
        let c = study(
            &traces,
            23,
            &[None, Some(2)],
            &[0.0, 0.5],
            6,
            0,
            Era::Classic,
        )
        .unwrap();
        assert_eq!(c.cells.len(), 4);
        assert_eq!(
            c.total_violations(),
            0,
            "deadline violations under contention:\n{}",
            render(&c)
        );
        assert!(c.all_balanced(), "capacity leaked:\n{}", render(&c));
        for cell in &c.cells {
            assert_eq!(cell.n_jobs, 6);
            assert_eq!(cell.pool.debits, cell.pool.credits, "unbalanced counters");
            if cell.capacity.is_none() {
                // On-demand requests are counted even unbounded; the
                // gating counters must stay untouched.
                assert_eq!(
                    (cell.pool.debits, cell.pool.credits, cell.pool.denials),
                    (0, 0, 0),
                    "unbounded pool moved"
                );
            }
        }
    }

    #[test]
    fn tight_capacity_fires_the_ladder() {
        let traces = redspot_trace::gen::GenConfig::high_volatility(23).generate();
        let c = study(&traces, 23, &[Some(1)], &[0.0], 8, 0, Era::Classic).unwrap();
        let cell = &c.cells[0];
        assert_eq!(cell.violations, 0, "{}", render(&c));
        assert!(
            cell.pool.denials > 0,
            "8 jobs on 1 unit/zone never contended:\n{}",
            render(&c)
        );
        assert!(
            cell.zones_shed + cell.start_deferrals + cell.capacity_spills > 0,
            "ladder never fired under starvation:\n{}",
            render(&c)
        );
    }

    #[test]
    fn render_reports_the_gates() {
        let c = ChaosFleet {
            metrics: RunMetrics::default(),
            cells: vec![FleetCell {
                capacity: Some(2),
                intensity: 0.0,
                total_cost: 12.0,
                on_demand_rate: 0.0,
                zones_shed: 1,
                start_deferrals: 0,
                capacity_spills: 0,
                pool: PoolStats::default(),
                pool_balanced: true,
                violations: 0,
                n_jobs: 4,
            }],
        };
        let text = render(&c);
        assert!(text.contains("total deadline violations: 0"));
        assert!(text.contains("capacity conserved: yes"));
        assert!(text.contains("2/zone"));
    }
}
