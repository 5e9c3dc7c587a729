//! # redspot-core
//!
//! The paper's contribution: Algorithm 1 (deadline-guaranteed checkpoint
//! scheduling over redundant EC2 availability zones) as an event-driven
//! trace simulator, the four checkpoint policies of Section 4, the
//! Large-bid and on-demand baselines, the Adaptive meta-policy of
//! Section 7, and the seeded fault-injection layer the chaos harness uses
//! to stress the deadline guarantee.

#![warn(missing_docs)]

pub mod adaptive;
pub mod backoff;
pub mod config;
pub mod degrade;
pub mod engine;
pub mod faults;
pub mod policy;
pub mod run;
pub mod serve;
pub mod supervisor;
pub mod telemetry;

pub use adaptive::cache::{CacheStats, CacheTally, DecisionCache};
pub use adaptive::ctx::MarketCtx;
pub use adaptive::scan::{PermutationScan, ScanSeed};
pub use adaptive::{AdaptiveConfig, AdaptiveRunner, DecisionSession};
pub use backoff::Backoff;
pub use config::{ConfigError, ExperimentConfig, IntoValidated, ValidatedConfig};
pub use degrade::DegradePolicy;
pub use engine::{on_demand_run, Engine, Snapshot, StepReport, ZoneSnapshot};
pub use faults::FaultPlan;
pub use policy::{Policy, PolicyCtx, PolicyKind};
pub use redspot_market::ApiFaultPlan;
pub use redspot_market::{Classic2014, Era, MarketRules, Modern2017};
pub use redspot_markov::{MemoStats, UptimeMemo};
pub use run::{ApiStats, Event, RunResult, TerminationCause};
pub use supervisor::{DenyReason, PriceView, RequestOutcome, Supervisor};
pub use telemetry::{
    Histogram, JsonlRecorder, MetricsRecorder, NullRecorder, Recorder, RunMetrics, VecRecorder,
    ZoneDwell,
};
