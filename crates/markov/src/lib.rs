//! # redspot-markov
//!
//! The paper's Markov spot-price model (Appendix B): price-state
//! discretization, empirical transition matrices from a history window,
//! and Chapman-Kolmogorov expected-uptime estimation with absorbing
//! out-of-bid states. The Markov-Daly policy combines
//! [`MarkovModel::expected_uptime`] with Daly's optimum checkpoint
//! interval; redundancy sums expected uptimes across zones.

#![warn(missing_docs)]

pub mod memo;
#[cfg(test)]
mod oracle;
mod states;
mod transition;
pub mod uptime;

pub use memo::{MemoStats, UptimeMemo};
pub use states::DEFAULT_BIN_MILLIS;
pub use uptime::MarkovModel;
