//! # redspot-trace
//!
//! Spot-price trace substrate for redspot, the reproduction of
//! *"Exploiting Redundancy for Cost-Effective, Time-Constrained Execution
//! of HPC Applications on Amazon EC2"* (HPDC'14).
//!
//! This crate provides:
//!
//! * fixed-point money ([`Price`]) and integer-second simulation time
//!   ([`SimTime`], [`SimDuration`]);
//! * per-zone stepwise-constant price series ([`PriceSeries`]) and aligned
//!   multi-zone trace sets ([`TraceSet`]);
//! * half-open windows and the paper's overlapping experiment-window
//!   layout ([`Window`], [`overlapping_windows`]);
//! * a calibrated regime-switching synthetic price generator standing in
//!   for the paper's unavailable 12-month CC2 history ([`gen`]), plus a
//!   block-bootstrap resampler for ensembles from observed traces
//!   ([`bootstrap`]);
//! * JSON/CSV persistence ([`io`]) and volatility classification ([`vol`]).

#![warn(missing_docs)]

pub mod bootstrap;
pub mod calibrate;
pub mod gen;
mod handle;
pub mod io;
mod price;
mod series;
pub mod source;
pub mod spells;
mod time;
mod traceset;
pub mod vol;
mod window;

pub use handle::TraceHandle;
pub use price::{highlight_bids, paper_bid_grid, Price};
pub use series::PriceSeries;
pub use source::{load_trace_file, save_trace_file, Profile, TraceSource};
pub use time::{SimDuration, SimTime, HORIZON, HOUR, PRICE_STEP};
pub use traceset::{TraceSet, ZoneId};
pub use window::{overlapping_windows, Window};
