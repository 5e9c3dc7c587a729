//! Ablations of three design choices (DESIGN.md §6): the redundancy
//! degree N, the Daly estimate order inside Markov-Daly, and the
//! Adaptive controller's forecast history length.

use crate::exec::RunRequest;
use crate::report::{dollars, maximum, median};
use crate::scheme::{RunSpec, Scheme};
use crate::sweep::single_zone_costs;
use crate::windows::{experiment_starts, run_span_for};
use crate::PaperSetup;
use redspot_ckpt::DalyOrder;
use redspot_core::adaptive::{AdaptiveConfig, AdaptiveRunner};
use redspot_core::policy::MarkovDalyPolicy;
use redspot_core::{Engine, ExperimentConfig, PolicyKind};
use redspot_trace::vol::Volatility;
use redspot_trace::{Price, SimDuration, ZoneId};

/// Redundancy degree N ∈ {1, 2, 3} on the high-volatility window. The
/// paper reports diminishing returns below N = 3 on volatile markets;
/// this shows the cost trade-off per N.
pub struct Degree {
    /// Cost samples per `(policy, N)`: Periodic then Markov-Daly, N
    /// ascending. N = 1 merges the single-zone runs of every zone.
    pub rows: Vec<(PolicyKind, usize, Vec<f64>)>,
}

/// Run the redundancy-degree ablation (t_c = 300 s, slack 15 %, B = $0.81).
pub fn degree(setup: &PaperSetup) -> Degree {
    let vol = Volatility::High;
    let base = setup.base_config(15, 300);
    let bid = Price::from_millis(810);
    let mut rows = Vec::new();
    for kind in [PolicyKind::Periodic, PolicyKind::MarkovDaly] {
        rows.push((kind, 1, single_zone_costs(setup, vol, &base, kind, bid)));
        for n in 2..=3 {
            let zones: Vec<ZoneId> = setup.traces(vol).zone_ids().take(n).collect();
            let specs: Vec<RunSpec> = setup
                .starts(vol, base.deadline)
                .into_iter()
                .map(|start| RunSpec {
                    start,
                    bid,
                    scheme: Scheme::Redundant {
                        kind,
                        zones: zones.clone(),
                    },
                })
                .collect();
            let outcome = RunRequest::new(setup.ctx(vol), &base, &specs)
                .threads(setup.threads)
                .execute()
                .expect("ablation base config is valid");
            rows.push((kind, n, dollars(&outcome.results)));
        }
    }
    Degree { rows }
}

/// Render the redundancy-degree ablation.
pub fn render_degree(d: &Degree) -> String {
    let mut out = String::from(
        "Ablation: redundancy degree (high volatility, t_c = 300 s, slack 15%, B = $0.81)\n",
    );
    for (kind, n, costs) in &d.rows {
        out.push_str(&format!(
            "  {:<12} N={}  median ${:>6.2}  worst ${:>6.2}  (n={})\n",
            kind.to_string(),
            n,
            median(costs),
            maximum(costs),
            costs.len()
        ));
    }
    out
}

/// Daly first-order vs higher-order optimum checkpoint interval inside
/// the Markov-Daly policy, single zones merged.
pub struct Daly {
    /// Cost samples per `(window, order name)`: low then high
    /// volatility, first-order before higher-order.
    pub rows: Vec<(Volatility, &'static str, Vec<f64>)>,
}

/// Run the Daly-order ablation (slack 15 %, B = $0.81).
pub fn daly(setup: &PaperSetup) -> Daly {
    let mut rows = Vec::new();
    for vol in [Volatility::Low, Volatility::High] {
        let traces = setup.traces(vol);
        for (name, order) in [
            ("first-order", DalyOrder::FirstOrder),
            ("higher-order", DalyOrder::HigherOrder),
        ] {
            let mut cfg = ExperimentConfig::paper_default().with_slack_percent(15);
            cfg.bid = Price::from_millis(810);
            let mut costs = Vec::new();
            for start in experiment_starts(traces, run_span_for(cfg.deadline), setup.n_experiments)
            {
                for zone in traces.zone_ids() {
                    let mut c = cfg.clone();
                    c.zones = vec![zone];
                    c.seed = setup.seed ^ start.secs() ^ zone.0 as u64;
                    let policy = Box::new(MarkovDalyPolicy::with_order(order));
                    costs.push(Engine::new(traces, start, c, policy).run().cost_dollars());
                }
            }
            rows.push((vol, name, costs));
        }
    }
    Daly { rows }
}

/// Render the Daly-order ablation.
pub fn render_daly(d: &Daly) -> String {
    let mut out =
        String::from("Ablation: Daly estimate order in Markov-Daly (single zone, B = $0.81)\n");
    for (vol, name, costs) in &d.rows {
        out.push_str(&format!(
            "  {:>4} volatility, {:<12} median ${:>6.2} (n={})\n",
            vol.to_string(),
            name,
            median(costs),
            costs.len()
        ));
    }
    out
}

/// The Adaptive controller's forecast history length (the paper
/// bootstraps from a 2-day history; Adaptive defaults to 24 h).
pub struct History {
    /// Cost samples per history length in hours, ascending.
    pub rows: Vec<(u64, Vec<f64>)>,
}

/// Run the history ablation (high volatility, t_c = 300 s, slack 15 %).
///
/// # Panics
/// Panics if an Adaptive run misses its deadline: the §4 guarantee is an
/// invariant of every history length.
pub fn history(setup: &PaperSetup) -> History {
    let traces = setup.traces(Volatility::High);
    let base = setup.base_config(15, 300);
    let mut rows = Vec::new();
    for hours in [6u64, 24, 48] {
        let mut costs = Vec::new();
        for start in experiment_starts(traces, run_span_for(base.deadline), setup.n_experiments) {
            let mut cfg = base.clone();
            cfg.seed = setup.seed ^ start.secs() ^ hours;
            let acfg = AdaptiveConfig {
                history: SimDuration::from_hours(hours),
                ..AdaptiveConfig::default()
            };
            let r = AdaptiveRunner::new(traces, start, cfg)
                .with_config(acfg)
                .run();
            assert!(r.met_deadline);
            costs.push(r.cost_dollars());
        }
        rows.push((hours, costs));
    }
    History { rows }
}

/// Render the history ablation.
pub fn render_history(h: &History) -> String {
    let mut out = String::from(
        "Ablation: adaptive forecast history (high volatility, t_c = 300 s, slack 15%)\n",
    );
    for (hours, costs) in &h.rows {
        out.push_str(&format!(
            "  history {:>2} h  median ${:>6.2}  worst ${:>6.2}  (n={})\n",
            hours,
            median(costs),
            maximum(costs),
            costs.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_ablation_covers_its_settings() {
        let setup = PaperSetup::new(3, 1);
        let counts: Vec<usize> = degree(&setup).rows.iter().map(|r| r.2.len()).collect();
        assert_eq!(counts, [3, 1, 1, 3, 1, 1], "N = 1 merges the three zones");
        let d = daly(&setup);
        assert_eq!(d.rows.len(), 4);
        assert!(render_daly(&d).contains("  high volatility, higher-order median $"));
        let hours: Vec<u64> = history(&setup).rows.iter().map(|r| r.0).collect();
        assert_eq!(hours, [6, 24, 48]);
    }
}
