//! # redspot-exp
//!
//! Experiment harness: the paper's evaluation setup (synthetic low/high
//! volatility windows, 80 overlapping experiment starts), run-spec sweeps
//! over bids × zones × policies, the unified batch execution plane
//! ([`exec::RunRequest`] over a shared [`redspot_core::MarketCtx`]), the
//! fleet execution plane ([`fleet::FleetRequest`] — N jobs contending
//! for a shared capacity pool), terminal rendering of boxplot figures
//! and markdown tables, one module per paper figure/table under
//! [`experiments`], and the named artifact list behind `redspot repro`
//! in [`repro`].

#![warn(missing_docs)]

pub mod exec;
pub mod experiments;
pub mod fleet;
pub mod report;
pub mod repro;
pub mod results;
pub mod scheme;
pub mod setup;
pub mod shard;
pub mod svg;
pub mod sweep;
pub mod windows;

pub use exec::{BatchOutcome, Progress, RunRequest};
pub use fleet::{FleetError, FleetJob, FleetOutcome, FleetRequest};
pub use scheme::{run_spec, RunSpec, Scheme};
pub use setup::PaperSetup;
pub use shard::{
    fingerprint, merge::merge_dir, run::run_shard, shard_range, CellRecord, MergedSweep,
    ShardManifest,
};
