//! The guarantee studies: Algorithm 1's deadline guarantee under stress,
//! as one grid of schemes × config variants × experiment starts.
//!
//! The paper argues the guarantee holds whatever the market does. Three
//! CLI studies extend that claim, and each is [`grid`] with its own
//! scheme list, variant list and table:
//!
//! - `chaos` sweeps a fault intensity over [`guarantee_suite`], on the
//!   infrastructure plane ([`FaultPlan::with_intensity`]: checkpoint write
//!   failures, corrupted restores, boot failures, zone blackouts), the
//!   control plane ([`ApiFaultPlan::with_intensity`]: timeouts,
//!   throttling, capacity walls, stale price reads, on-demand retries), or
//!   both in the same runs ([`faults`], [`render_chaos`]);
//! - `era-compare` runs [`guarantee_suite`] under the 2014 hourly market
//!   and the post-2017 per-second market with its two-minute notices
//!   ([`ERAS`], [`render_era`]);
//! - `policy-compare` runs every policy of [`policy_roster`] as
//!   redundancy over all zones under both eras ([`render_policy`], and
//!   [`PolicyTable`] for its JSON artifact).
//!
//! Every cell starts from one base: the paper's default experiment at
//! 15 % slack, B = $0.81, with starts laid out by [`experiment_starts`].
//! Faults and the regime change may make runs more expensive, never late:
//! the hard requirement in every cell is **zero deadline violations**
//! ([`total_violations`]). The fleet study
//! ([`chaos_fleet`](super::chaos_fleet)) stays apart, because it runs the
//! fleet plane.

use crate::exec::RunRequest;
use crate::scheme::{RunSpec, Scheme, RANDOMIZED_BID_SEED};
use crate::windows::{experiment_starts, run_span_for};
use redspot_core::{
    ApiFaultPlan, Era, ExperimentConfig, FaultPlan, MarketCtx, PolicyKind, RunResult,
};
use redspot_trace::{Price, TraceSet, ZoneId};
use serde::{Deserialize, Serialize};

/// Why a trace with no room for one experiment is refused.
pub const TOO_SHORT: &str =
    "trace too short for this deadline (need 48h bootstrap + deadline + 1h)";

/// Both market eras, Classic first: the variants of `era-compare` and
/// `policy-compare`.
pub const ERAS: [Era; 2] = [Era::Classic, Era::Modern];

/// The scheme roster `chaos` and `era-compare` sweep: the paper's three
/// reference schemes plus the two policy-diversity additions (Spot-on
/// cadence, randomized bidding), all over `zones` except the single-zone
/// control on zone 0. Sharing one list keeps "the guarantee holds"
/// meaning the same roster in both studies.
pub fn guarantee_suite(zones: Vec<ZoneId>) -> Vec<Scheme> {
    vec![
        Scheme::Single {
            kind: PolicyKind::Periodic,
            zone: ZoneId(0),
        },
        Scheme::Redundant {
            kind: PolicyKind::Periodic,
            zones: zones.clone(),
        },
        Scheme::Redundant {
            kind: PolicyKind::MarkovDaly,
            zones: zones.clone(),
        },
        Scheme::Redundant {
            kind: PolicyKind::SpotOnCadence,
            zones: zones.clone(),
        },
        Scheme::Redundant {
            kind: PolicyKind::RandomizedBid(RANDOMIZED_BID_SEED),
            zones,
        },
    ]
}

/// The full policy roster `policy-compare` sweeps, each policy as
/// redundancy over `zones` (the paper's recommended deployment): the four
/// Section-4 policies plus the two policy-diversity additions.
pub fn policy_roster(zones: Vec<ZoneId>) -> Vec<Scheme> {
    [
        PolicyKind::Periodic,
        PolicyKind::MarkovDaly,
        PolicyKind::RisingEdge,
        PolicyKind::Threshold,
        PolicyKind::SpotOnCadence,
        PolicyKind::RandomizedBid(RANDOMIZED_BID_SEED),
    ]
    .map(|kind| Scheme::Redundant {
        kind,
        zones: zones.clone(),
    })
    .to_vec()
}

/// `base` with faults at `intensity` on the infrastructure plane
/// (`infra`), the control plane (`api`), or both: the variant config of a
/// `chaos` sweep.
pub fn faults(base: ExperimentConfig, intensity: f64, infra: bool, api: bool) -> ExperimentConfig {
    let cfg = if api {
        base.with_api_faults(ApiFaultPlan::with_intensity(intensity))
    } else {
        base
    };
    if infra {
        cfg.with_faults(FaultPlan::with_intensity(intensity))
    } else {
        cfg
    }
}

/// One cell of a grid: a scheme under one variant, summarized over every
/// start. Each table prints the columns it needs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell<V> {
    /// The scheme every run of the cell executed.
    pub scheme: Scheme,
    /// The variant the cell's config was built for: a fault intensity in
    /// `[0, 1]` (0 = the fault-free baseline), or a market era.
    pub variant: V,
    /// Median cost in dollars across starts.
    pub median_cost: f64,
    /// Mean replica restarts per run.
    pub mean_restarts: f64,
    /// Mean checkpoints taken per run.
    pub mean_checkpoints: f64,
    /// Mean provider terminations per run (out-of-bid kills under
    /// Classic, notice-expiry reclaims under Modern).
    pub mean_interruptions: f64,
    /// Mean failed-and-retried spot requests per run.
    pub mean_spot_retries: f64,
    /// Mean stale price reads per run.
    pub mean_stale_reads: f64,
    /// Circuit-breaker trips across the cell.
    pub breaker_trips: u64,
    /// Two-minute interruption notices across the cell (always zero under
    /// Classic: the 2014 market never warned).
    pub notices: u64,
    /// Fraction of runs that fell back to on-demand.
    pub on_demand_rate: f64,
    /// Runs that missed the deadline. Must be zero: the guarantee is
    /// unconditional.
    pub violations: usize,
    /// Number of runs in the cell.
    pub n_runs: usize,
}

/// Run every scheme × variant × `n_starts` (at least 1) experiment starts
/// on `traces`, scheme-major. A variant's config is `config` applied to
/// the shared base; each (scheme, variant) pair runs as one metered
/// batch. `threads = 0` means one worker per CPU. Fails with
/// [`TOO_SHORT`] when the trace has no room for one experiment, rather
/// than reporting a grid of empty cells.
pub fn grid<V: Copy>(
    traces: &TraceSet,
    schemes: &[Scheme],
    variants: &[V],
    config: impl Fn(ExperimentConfig, V) -> ExperimentConfig,
    n_starts: usize,
    threads: usize,
) -> Result<Vec<GridCell<V>>, String> {
    let base = ExperimentConfig::paper_default().with_slack_percent(15);
    let starts = experiment_starts(traces, run_span_for(base.deadline), n_starts);
    if starts.is_empty() {
        return Err(TOO_SHORT.into());
    }
    let mkt = MarketCtx::new(traces.clone());
    let mut cells = Vec::new();
    for scheme in schemes {
        let specs: Vec<RunSpec> = starts
            .iter()
            .map(|&start| RunSpec {
                start,
                bid: Price::from_millis(810),
                scheme: scheme.clone(),
            })
            .collect();
        for &variant in variants {
            let cfg = config(base.clone(), variant);
            let outcome = RunRequest::new(&mkt, &cfg, &specs)
                .threads(threads)
                .metered(true)
                .execute()
                .map_err(|e| e.to_string())?;
            let notices = outcome.metrics.expect("metered batch").interruption_notices;
            let runs = &outcome.results;
            let n = runs.len() as f64;
            let mean = |f: fn(&RunResult) -> f64| runs.iter().map(f).sum::<f64>() / n;
            let costs: Vec<f64> = runs.iter().map(RunResult::cost_dollars).collect();
            cells.push(GridCell {
                scheme: scheme.clone(),
                variant,
                median_cost: crate::report::median(&costs),
                mean_restarts: mean(|r| r.restarts as f64),
                mean_checkpoints: mean(|r| r.checkpoints as f64),
                mean_interruptions: mean(|r| r.out_of_bid_terminations as f64),
                mean_spot_retries: mean(|r| r.api.spot_retries as f64),
                mean_stale_reads: mean(|r| r.api.stale_price_reads as f64),
                breaker_trips: runs.iter().map(|r| r.api.breaker_trips).sum(),
                notices,
                on_demand_rate: runs.iter().filter(|r| r.used_on_demand).count() as f64 / n,
                violations: runs.iter().filter(|r| !r.met_deadline).count(),
                n_runs: runs.len(),
            });
        }
    }
    Ok(cells)
}

/// Deadline violations across a grid (must be zero).
pub fn total_violations<V>(cells: &[GridCell<V>]) -> usize {
    cells.iter().map(|c| c.violations).sum()
}

/// `cell`'s median cost relative to the same scheme's cell at the
/// `baseline` variant (1.0 = no change), if that cell exists and cost
/// anything.
fn vs_baseline<V: PartialEq>(
    cells: &[GridCell<V>],
    cell: &GridCell<V>,
    baseline: V,
) -> Option<f64> {
    let base = cells
        .iter()
        .find(|c| c.scheme == cell.scheme && c.variant == baseline)?;
    if base.median_cost <= 0.0 {
        return None;
    }
    Some(cell.median_cost / base.median_cost)
}

/// Render a `chaos` grid, whose variants are fault intensities on the
/// planes `infra` and `api` name (as in [`faults`]).
pub fn render_chaos(cells: &[GridCell<f64>], infra: bool, api: bool) -> String {
    let mut out = String::from(match (infra, api) {
        (true, false) => "Chaos: deadline guarantee under injected faults (high volatility, 15% slack, B = $0.81)\n\
         fault classes: checkpoint write failures, corrupted restores, boot failures, zone blackouts\n\n  \
         scheme      intensity   median cost   vs baseline   restarts   on-demand   violations\n",
        (true, true) => "Chaos-API+infra: deadline guarantee with both fault planes live (high volatility, 15% slack, B = $0.81)\n\
         fault classes: call timeouts, throttling, insufficient capacity, stale reads, retries\n\
         composed with: checkpoint write failures, corrupted restores, boot failures, zone blackouts\n\n  \
         scheme      intensity   median cost   vs baseline   retries   stale reads   trips   on-demand   violations\n",
        (false, _) => "Chaos-API: deadline guarantee under a flaky control plane (high volatility, 15% slack, B = $0.81)\n\
         fault classes: call timeouts, throttling, insufficient capacity, stale price reads, on-demand retries\n\n  \
         scheme      intensity   median cost   vs baseline   retries   stale reads   trips   on-demand   violations\n",
    });
    for cell in cells {
        let deg =
            vs_baseline(cells, cell, 0.0).map_or("      -".to_string(), |d| format!("{d:>6.2}x"));
        let planes = if api {
            format!(
                "{:>7.1}   {:>11.1}   {:>5}",
                cell.mean_spot_retries, cell.mean_stale_reads, cell.breaker_trips
            )
        } else {
            format!("{:>8.1}", cell.mean_restarts)
        };
        out.push_str(&format!(
            "  {:<10} {:>9.2}   ${:>10.2}   {deg}   {planes}{}",
            cell.scheme.label(),
            cell.variant,
            cell.median_cost,
            row_end(cell),
        ));
    }
    out + &gate_line(cells, "")
}

/// Render an `era-compare` grid over [`ERAS`].
pub fn render_era(cells: &[GridCell<Era>]) -> String {
    let mut out = String::from(
        "Era comparison: 2014 hourly market vs post-2017 per-second market\n\
         (high volatility, 15% slack, B = $0.81 — Modern reads the bid as a reclaim threshold)\n\n  \
         scheme      era       median cost   vs classic   interruptions   notices   on-demand   violations\n",
    );
    for cell in cells {
        let ratio = match cell.variant {
            Era::Modern => vs_baseline(cells, cell, Era::Classic),
            Era::Classic => None,
        };
        let ratio = ratio.map_or("       -".to_string(), |r| format!("{r:>7.2}x"));
        out.push_str(&format!(
            "  {:<10} {:<8}  ${:>10.2}   {ratio}   {:>13.1}   {:>7}{}",
            cell.scheme.label(),
            cell.variant.label(),
            cell.median_cost,
            cell.mean_interruptions,
            cell.notices,
            row_end(cell),
        ));
    }
    out + &gate_line(cells, " in both eras")
}

/// Render a `policy-compare` grid of [`policy_roster`] over [`ERAS`],
/// naming the cheapest policy in each era.
pub fn render_policy(cells: &[GridCell<Era>]) -> String {
    let mut out = String::from(
        "Policy comparison: full roster as R(all zones), both market eras\n\
         (15% slack, B = $0.81; P periodic, M markov-daly, E rising-edge, T threshold, S spot-on, B randomized-bid)\n\n  \
         policy   era       median cost   checkpoints   interruptions   on-demand   violations\n",
    );
    for cell in cells {
        out.push_str(&format!(
            "  {:<7} {:<8}  ${:>10.2}   {:>11.1}   {:>13.1}{}",
            policy(&cell.scheme),
            cell.variant.label(),
            cell.median_cost,
            cell.mean_checkpoints,
            cell.mean_interruptions,
            row_end(cell),
        ));
    }
    for era in ERAS {
        let cheapest = cells
            .iter()
            .filter(|c| c.variant == era)
            .min_by(|a, b| a.median_cost.total_cmp(&b.median_cost));
        if let Some(best) = cheapest {
            out.push_str(&format!(
                "\n  cheapest under {}: {} at ${:.2}",
                era.label(),
                policy(&best.scheme),
                best.median_cost
            ));
        }
    }
    out + "\n" + &gate_line(cells, " for every policy, both eras")
}

/// The columns every table ends a row with: on-demand rate, violations.
fn row_end<V>(cell: &GridCell<V>) -> String {
    format!(
        "   {:>8.0}%   {:>10}\n",
        cell.on_demand_rate * 100.0,
        cell.violations
    )
}

/// The line every table ends with: the violation total the CLI gates on.
fn gate_line<V>(cells: &[GridCell<V>], scope: &str) -> String {
    format!(
        "\n  total deadline violations: {} (guarantee requires 0{scope})\n",
        total_violations(cells)
    )
}

/// The policy label (`P`, `M`, …) of a roster scheme.
fn policy(scheme: &Scheme) -> String {
    match scheme {
        Scheme::Single { kind, .. } | Scheme::Redundant { kind, .. } => kind.label().into(),
        other => other.label(),
    }
}

/// `policy-compare`'s JSON artifact: `{"cells": [...]}`, one row per
/// policy and era in grid order.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct PolicyTable {
    cells: Vec<PolicyRow>,
}

/// One row of [`PolicyTable`]; the field names are the artifact's keys.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct PolicyRow {
    policy: String,
    era: Era,
    median_cost: f64,
    mean_checkpoints: f64,
    mean_interruptions: f64,
    on_demand_rate: f64,
    violations: usize,
    n_runs: usize,
}

impl PolicyTable {
    /// The artifact of a `policy-compare` grid.
    pub fn new(cells: &[GridCell<Era>]) -> PolicyTable {
        let row = |c: &GridCell<Era>| PolicyRow {
            policy: policy(&c.scheme),
            era: c.variant,
            median_cost: c.median_cost,
            mean_checkpoints: c.mean_checkpoints,
            mean_interruptions: c.mean_interruptions,
            on_demand_rate: c.on_demand_rate,
            violations: c.violations,
            n_runs: c.n_runs,
        };
        PolicyTable {
            cells: cells.iter().map(row).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_trace::gen::GenConfig;

    fn traces(seed: u64) -> TraceSet {
        GenConfig::high_volatility(seed).generate()
    }

    /// A `chaos` grid on the seed-17 market, four starts.
    fn chaos(intensities: &[f64], infra: bool, api: bool) -> Vec<GridCell<f64>> {
        let traces = traces(17);
        let suite = guarantee_suite(traces.zone_ids().collect());
        let inject = |cfg, i| faults(cfg, i, infra, api);
        grid(&traces, &suite, intensities, inject, 4, 0).unwrap()
    }

    /// An era grid of the suite or the roster on `traces`.
    fn eras(
        traces: &TraceSet,
        schemes: fn(Vec<ZoneId>) -> Vec<Scheme>,
        n: usize,
    ) -> Vec<GridCell<Era>> {
        let schemes = schemes(traces.zone_ids().collect());
        grid(traces, &schemes, &ERAS, ExperimentConfig::with_era, n, 0).unwrap()
    }

    /// The gate every study shares: the expected number of cells, every
    /// one of which ran and cost something, and zero violations, which
    /// the table reports.
    fn assert_guarantee<V>(cells: &[GridCell<V>], n_cells: usize, table: &str) {
        assert_eq!(cells.len(), n_cells, "{table}");
        assert_eq!(total_violations(cells), 0, "deadline violations:\n{table}");
        assert!(table.contains("total deadline violations: 0"), "{table}");
        for cell in cells {
            assert!(cell.n_runs > 0 && cell.median_cost > 0.0, "{table}");
        }
    }

    #[test]
    fn every_chaos_mode_keeps_the_guarantee() {
        // 5 schemes x 2 intensities, on each plane and on both at once.
        for (infra, api, header) in [
            (true, false, "Chaos: "),
            (false, true, "Chaos-API: "),
            (true, true, "Chaos-API+infra: "),
        ] {
            let c = chaos(&[0.0, 0.6], infra, api);
            let table = render_chaos(&c, infra, api);
            assert_guarantee(&c, 10, &table);
            assert!(table.starts_with(header), "{table}");
            // The control plane must leave fingerprints in the sweep,
            // composed with the infrastructure plane or not.
            let retried = c
                .iter()
                .any(|c| c.variant > 0.0 && c.mean_spot_retries > 0.0);
            assert!(!api || retried, "API faults show no retries:\n{table}");
        }
    }

    #[test]
    fn faults_degrade_cost_and_surface_in_the_counters() {
        // At least one scheme must get more expensive under heavy
        // infrastructure faults, or the injection is doing nothing.
        let c = chaos(&[0.0, 0.8], true, false);
        let degraded = c
            .iter()
            .filter(|cell| cell.variant > 0.0)
            .filter_map(|cell| vs_baseline(&c, cell, 0.0))
            .any(|d| d > 1.0);
        assert!(
            degraded,
            "no cost effect:\n{}",
            render_chaos(&c, true, false)
        );

        // Control-plane baseline cells must be clean and faulted cells
        // must show activity, or the injection is not reaching the engine.
        let c = chaos(&[0.0, 0.8], false, true);
        let table = render_chaos(&c, false, true);
        for cell in c.iter().filter(|cell| cell.variant == 0.0) {
            let counters = (
                cell.mean_spot_retries,
                cell.mean_stale_reads,
                cell.breaker_trips,
            );
            assert_eq!(counters, (0.0, 0.0, 0), "{table}");
        }
        let noisy = c
            .iter()
            .filter(|cell| cell.variant > 0.0)
            .any(|cell| cell.mean_spot_retries > 0.0 && cell.mean_stale_reads > 0.0);
        assert!(noisy, "API faults left no trace in the counters:\n{table}");
    }

    #[test]
    fn guarantee_holds_in_both_eras_and_only_modern_warns() {
        let c = eras(&traces(17), guarantee_suite, 3);
        let table = render_era(&c);
        assert_guarantee(&c, 10, &table); // 5 schemes x 2 eras
        for cell in c.iter().filter(|cell| cell.variant == Era::Classic) {
            assert_eq!(cell.notices, 0, "classic issued a notice:\n{table}");
        }
        // The high-volatility window crosses the reclaim threshold, so at
        // least one modern cell must have seen the two-minute warning.
        let warned = c.iter().any(|c| c.variant == Era::Modern && c.notices > 0);
        assert!(
            warned,
            "no interruption notices in any modern cell:\n{table}"
        );

        let text = render_era(&eras(&traces(11), guarantee_suite, 2));
        assert!(
            text.contains("classic") && text.contains("modern"),
            "{text}"
        );
        assert!(text.contains("total deadline violations: 0"), "{text}");
    }

    #[test]
    fn every_policy_meets_the_deadline_in_both_eras() {
        let labels: Vec<String> = policy_roster(vec![ZoneId(0)]).iter().map(policy).collect();
        assert_eq!(labels, ["P", "M", "E", "T", "S", "B"]);
        let c = eras(&traces(17), policy_roster, 3);
        assert_guarantee(&c, 12, &render_policy(&c)); // 6 policies x 2 eras

        let c = eras(&traces(11), policy_roster, 2);
        let text = render_policy(&c);
        assert!(text.contains("cheapest under classic"), "{text}");
        assert!(text.contains("cheapest under modern"), "{text}");
        assert!(text.contains("total deadline violations: 0"), "{text}");
        let table = PolicyTable::new(&c);
        let json = serde_json::to_string(&table).unwrap();
        assert_eq!(serde_json::from_str::<PolicyTable>(&json).unwrap(), table);
    }
}
