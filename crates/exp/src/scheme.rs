//! Execution schemes: everything the evaluation compares.

use redspot_core::policy::large_bid::LARGE_BID;
use redspot_core::policy::LargeBidPolicy;
use redspot_core::{
    on_demand_run, AdaptiveRunner, Engine, ExperimentConfig, MarketCtx, PolicyKind, Recorder,
    RunMetrics, RunResult,
};
use redspot_trace::{Price, SimTime, ZoneId};
use serde::{Deserialize, Serialize};

/// One way of executing the experiment — a policy plus its zone setup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Scheme {
    /// A Section-4 policy on a single zone at the configured bid.
    Single {
        /// Checkpoint policy.
        kind: PolicyKind,
        /// The zone to bid in.
        zone: ZoneId,
    },
    /// A Section-4 policy replicated over several zones.
    Redundant {
        /// Checkpoint policy.
        kind: PolicyKind,
        /// Zones to replicate over.
        zones: Vec<ZoneId>,
    },
    /// The Section-7 adaptive meta-policy (chooses bid, N, and policy
    /// itself; the configured bid is ignored).
    Adaptive,
    /// The Large-bid baseline on a single zone. `threshold` is the user's
    /// cost-control value `L`; `None` is the Naive variant.
    LargeBid {
        /// Cost-control threshold `L`.
        threshold: Option<Price>,
        /// The zone to run in.
        zone: ZoneId,
    },
    /// The trivial on-demand baseline.
    OnDemand,
}

/// Draw seed the guarantee suites give [`PolicyKind::RandomizedBid`] —
/// fixed so every suite (chaos, era comparison, policy comparison) runs
/// the *same* randomized strategy and results stay reproducible.
pub const RANDOMIZED_BID_SEED: u64 = 0xB1D;

/// The scheme roster every deadline-guarantee suite sweeps: the paper's
/// three reference schemes plus the two policy-diversity additions
/// (Spot-on cadence, randomized bidding), all over the full zone set
/// except the single-zone control. Chaos, the era comparison, and the
/// policy comparison share this list so "the guarantee holds" always
/// means the same roster.
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

impl Scheme {
    /// Short label for tables and figures.
    pub fn label(&self) -> String {
        match self {
            Scheme::Single { kind, zone } => format!("{}/{zone}", kind.label()),
            Scheme::Redundant { kind, zones } => format!("R{}({})", zones.len(), kind.label()),
            Scheme::Adaptive => "A".into(),
            Scheme::LargeBid {
                threshold: Some(l), ..
            } => format!("L({l})"),
            Scheme::LargeBid {
                threshold: None, ..
            } => "L(Naive)".into(),
            Scheme::OnDemand => "OD".into(),
        }
    }
}

/// One simulation job: a scheme, at a bid, starting at an instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Experiment start time within the trace.
    pub start: SimTime,
    /// Bid price (ignored by Adaptive, Large-bid and On-demand).
    pub bid: Price,
    /// The scheme to execute.
    pub scheme: Scheme,
}

/// Execute one run spec against a shared [`MarketCtx`] with an explicit
/// telemetry sink. Deterministic given `(mkt, spec, base)`: the spec's
/// identity is folded into the seed so queuing delays differ across jobs
/// but never across reruns, and the context's decision cache only ever
/// substitutes bit-identical tables.
///
/// This is the one dispatch point every execution path feeds through;
/// batches should go through [`crate::exec::RunRequest`], which calls
/// this per cell.
pub fn run_spec<R: Recorder>(
    mkt: &MarketCtx,
    spec: &RunSpec,
    base: &ExperimentConfig,
    mut recorder: R,
) -> (RunResult, RunMetrics) {
    let traces = mkt.handle();
    let mut cfg = base.clone();
    cfg.bid = spec.bid;
    cfg.seed = mix_seed(base.seed, spec);
    // Policies that estimate uptimes share the context's Markov memo (a
    // no-op for the rest, and for uncached contexts).
    let build = |kind: &PolicyKind| {
        let mut policy = kind.build();
        if let Some(memo) = mkt.uptime_memo() {
            policy.attach_uptime_memo(memo);
        }
        policy
    };
    match &spec.scheme {
        Scheme::Single { kind, zone } => {
            cfg.zones = vec![*zone];
            Engine::with_recorder(traces, spec.start, cfg, build(kind), recorder).run_full()
        }
        Scheme::Redundant { kind, zones } => {
            cfg.zones = zones.clone();
            Engine::with_recorder(traces, spec.start, cfg, build(kind), recorder).run_full()
        }
        Scheme::Adaptive => {
            cfg.zones = traces.zone_ids().collect();
            AdaptiveRunner::new(traces, spec.start, cfg)
                .with_market_ctx(mkt)
                .run_with(recorder)
        }
        Scheme::LargeBid { threshold, zone } => {
            cfg.zones = vec![*zone];
            cfg.bid = LARGE_BID;
            let policy = match threshold {
                Some(l) => Box::new(LargeBidPolicy::new(*l)),
                None => Box::new(LargeBidPolicy::naive()),
            };
            Engine::with_recorder(traces, spec.start, cfg, policy, recorder).run_full()
        }
        Scheme::OnDemand => {
            let r = on_demand_run(spec.start, &cfg);
            for e in &r.events {
                recorder.record(e.clone());
            }
            (r, recorder.finish())
        }
    }
}

/// Fold a spec's identity into a config seed (FNV-style): stable across
/// reruns and independent of execution order, so queuing delays differ
/// across jobs but never across replays. Shared with the fleet plane,
/// which must mix identically for its unbounded-pool runs to be
/// bit-identical to [`run_spec`].
pub(crate) fn mix_seed(base: u64, spec: &RunSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(spec.start.secs());
    eat(spec.bid.millis());
    match &spec.scheme {
        Scheme::Single { kind, zone } => {
            eat(1);
            eat(kind.label().as_bytes()[0] as u64);
            eat(zone.0 as u64);
        }
        Scheme::Redundant { kind, zones } => {
            eat(2);
            eat(kind.label().as_bytes()[0] as u64);
            for z in zones {
                eat(z.0 as u64);
            }
        }
        Scheme::Adaptive => eat(3),
        Scheme::LargeBid { threshold, zone } => {
            eat(4);
            eat(threshold.map_or(0, |l| l.millis()));
            eat(zone.0 as u64);
        }
        Scheme::OnDemand => eat(5),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_core::NullRecorder;
    use redspot_trace::{PriceSeries, TraceSet};

    fn m(v: u64) -> Price {
        Price::from_millis(v)
    }

    fn flat3(price: u64, hours: u64) -> TraceSet {
        let samples = vec![m(price); (hours * 12) as usize];
        TraceSet::new(
            (0..3)
                .map(|_| PriceSeries::new(SimTime::ZERO, samples.clone()))
                .collect(),
        )
    }

    fn base() -> ExperimentConfig {
        ExperimentConfig::paper_default()
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(
            Scheme::Single {
                kind: PolicyKind::Periodic,
                zone: ZoneId(0)
            }
            .label(),
            "P/us-east-1a"
        );
        assert_eq!(
            Scheme::Redundant {
                kind: PolicyKind::MarkovDaly,
                zones: vec![ZoneId(0), ZoneId(1), ZoneId(2)]
            }
            .label(),
            "R3(M)"
        );
        assert_eq!(Scheme::Adaptive.label(), "A");
        assert_eq!(Scheme::OnDemand.label(), "OD");
        assert_eq!(
            Scheme::LargeBid {
                threshold: Some(m(270)),
                zone: ZoneId(0)
            }
            .label(),
            "L($0.27)"
        );
        assert_eq!(
            Scheme::LargeBid {
                threshold: None,
                zone: ZoneId(0)
            }
            .label(),
            "L(Naive)"
        );
    }

    #[test]
    fn all_schemes_execute_and_meet_deadline() {
        let traces = flat3(270, 80);
        let start = SimTime::from_hours(50);
        let schemes = vec![
            Scheme::Single {
                kind: PolicyKind::Periodic,
                zone: ZoneId(1),
            },
            Scheme::Redundant {
                kind: PolicyKind::MarkovDaly,
                zones: vec![ZoneId(0), ZoneId(1), ZoneId(2)],
            },
            Scheme::Adaptive,
            Scheme::LargeBid {
                threshold: Some(m(810)),
                zone: ZoneId(0),
            },
            Scheme::OnDemand,
        ];
        let mkt = MarketCtx::new(traces);
        for scheme in schemes {
            let spec = RunSpec {
                start,
                bid: m(810),
                scheme: scheme.clone(),
            };
            let r = run_spec(&mkt, &spec, &base(), NullRecorder).0;
            assert!(r.met_deadline, "{} missed the deadline", scheme.label());
        }
    }

    #[test]
    fn runs_are_deterministic_and_seed_sensitive() {
        let mkt = MarketCtx::new(flat3(270, 80));
        let spec = RunSpec {
            start: SimTime::from_hours(50),
            bid: m(810),
            scheme: Scheme::Single {
                kind: PolicyKind::Periodic,
                zone: ZoneId(0),
            },
        };
        let a = run_spec(&mkt, &spec, &base(), NullRecorder).0;
        let b = run_spec(&mkt, &spec, &base(), NullRecorder).0;
        assert_eq!(a, b);

        let other = RunSpec {
            bid: m(470),
            ..spec.clone()
        };
        assert_ne!(mix_seed(0, &spec), mix_seed(0, &other));
    }
}
