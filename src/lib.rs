//! # redspot
//!
//! A production-quality reproduction of *"Exploiting Redundancy for
//! Cost-Effective, Time-Constrained Execution of HPC Applications on
//! Amazon EC2"* (Marathe et al., HPDC 2014): deadline-guaranteed
//! checkpoint scheduling for spot-market execution, with redundancy
//! across availability zones as a first-class fault-tolerance mechanism
//! and an adaptive controller that picks the bid, the redundancy degree,
//! and the checkpoint policy.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`trace`] — spot-price traces, fixed-point money, simulation time,
//!   and the calibrated synthetic price generator;
//! * [`stats`] — descriptive statistics, boxplots, OLS and VAR;
//! * [`ckpt`] — Daly's optimum checkpoint interval and the application
//!   progress model;
//! * [`markov`] — the Appendix-B Markov price model;
//! * [`market`] — EC2 spot billing rules, queuing delays, instance
//!   lifecycle;
//! * [`core`] — the Algorithm-1 engine, the four checkpoint policies, the
//!   Large-bid and on-demand baselines, and the Adaptive meta-policy;
//! * [`exp`] — the evaluation harness regenerating every figure and
//!   table of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use redspot::prelude::*;
//!
//! // A month of synthetic 3-zone spot prices (calm regime).
//! let traces = GenConfig::low_volatility(42).generate();
//!
//! // The paper's standard experiment: 20 h of compute, 15% slack,
//! // t_c = t_r = 300 s, bid $0.81, three redundant zones.
//! let cfg = ExperimentConfig::paper_default();
//!
//! // Run it under hour-boundary (Periodic) checkpointing.
//! let start = SimTime::from_hours(72);
//! let result = Engine::new(&traces, start, cfg, PolicyKind::Periodic.build()).run();
//!
//! assert!(result.met_deadline);
//! assert!(result.cost_dollars() < 48.0); // cheaper than on-demand
//! ```

#![warn(missing_docs)]

pub use redspot_ckpt as ckpt;
pub use redspot_core as core;
pub use redspot_exp as exp;
pub use redspot_market as market;
pub use redspot_markov as markov;
pub use redspot_stats as stats;
pub use redspot_trace as trace;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use redspot_ckpt::workloads;
    pub use redspot_ckpt::{AppSpec, CkptCosts, DalyOrder, Workload};
    pub use redspot_core::{
        on_demand_run, AdaptiveConfig, AdaptiveRunner, Engine, ExperimentConfig, PolicyKind,
        RunResult,
    };
    pub use redspot_market::{DelayModel, SpotMarket};
    pub use redspot_trace::bootstrap::{resample, BootstrapConfig};
    pub use redspot_trace::gen::GenConfig;
    pub use redspot_trace::{
        highlight_bids, paper_bid_grid, Price, SimDuration, SimTime, TraceSet, Window, ZoneId,
    };
}
