//! One module per paper experiment (figure/table). Each computes a
//! structured result and offers a `render` for terminal output;
//! [`crate::repro`] names the paper's artifacts for `redspot repro`.
//! The CLI's study commands drive the rest: `chaos`, `era-compare` and
//! `policy-compare` are the one scheme × variant grid in [`guarantee`],
//! and `fleet` runs [`chaos_fleet`].

pub mod ablation;
pub mod chaos_fleet;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod guarantee;
pub mod headline;
pub mod markov_validation;
pub mod mechanics;
pub mod queuing;
pub mod robustness;
pub mod tables;
pub mod var_analysis;
