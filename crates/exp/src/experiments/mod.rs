//! One module per paper experiment (figure/table). Each computes a
//! structured result and offers a `render` for terminal output;
//! [`crate::repro`] names the paper's artifacts for `redspot repro`, and
//! the CLI's study commands (`chaos`, `fleet`, `era-compare`,
//! `policy-compare`) drive the rest.

pub mod ablation;
pub mod chaos;
pub mod chaos_api;
pub mod chaos_fleet;
pub mod era_compare;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod headline;
pub mod markov_validation;
pub mod mechanics;
pub mod policy_compare;
pub mod queuing;
pub mod robustness;
pub mod tables;
pub mod var_analysis;
