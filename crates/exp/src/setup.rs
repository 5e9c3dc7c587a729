//! The paper's evaluation setup: one low-volatility and one
//! high-volatility month of three-zone prices, plus experiment sizing.

use crate::windows::{experiment_starts, run_span_for};
use redspot_core::{ExperimentConfig, MarketCtx};
use redspot_trace::gen::GenConfig;
use redspot_trace::vol::Volatility;
use redspot_trace::{SimDuration, SimTime, TraceSet};

/// Shared evaluation context for every figure and table.
pub struct PaperSetup {
    low: MarketCtx,
    high: MarketCtx,
    /// Experiments per volatility window (the paper runs 80).
    pub n_experiments: usize,
    /// Worker threads for sweeps (0 = all CPUs).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl PaperSetup {
    /// Build the setup with a given experiment count. Each volatility
    /// window gets a sweep-grade [`MarketCtx`] (whole-trace scan seed +
    /// decision cache), built once and shared by every figure and table.
    pub fn new(seed: u64, n_experiments: usize) -> PaperSetup {
        PaperSetup {
            low: MarketCtx::for_sweep(GenConfig::low_volatility(seed).generate()),
            high: MarketCtx::for_sweep(GenConfig::high_volatility(seed.wrapping_add(1)).generate()),
            n_experiments,
            threads: 0,
            seed,
        }
    }

    /// A fast setup for tests and smoke runs.
    pub fn quick(seed: u64) -> PaperSetup {
        PaperSetup::new(seed, 6)
    }

    /// The trace set for a volatility regime.
    ///
    /// # Panics
    /// Panics for [`Volatility::Moderate`], which has no dedicated window
    /// in the paper's evaluation.
    pub fn traces(&self, vol: Volatility) -> &TraceSet {
        self.ctx(vol).traces()
    }

    /// The shared market context for a volatility regime — feed this to
    /// [`crate::exec::RunRequest`] so every cell of a sweep shares one
    /// scan seed and one decision cache.
    ///
    /// # Panics
    /// Panics for [`Volatility::Moderate`], which has no dedicated window
    /// in the paper's evaluation.
    pub fn ctx(&self, vol: Volatility) -> &MarketCtx {
        match vol {
            Volatility::Low => &self.low,
            Volatility::High => &self.high,
            Volatility::Moderate => panic!("no moderate-volatility evaluation window"),
        }
    }

    /// Experiment start times for a volatility regime and deadline.
    pub fn starts(&self, vol: Volatility, deadline: SimDuration) -> Vec<SimTime> {
        experiment_starts(self.traces(vol), run_span_for(deadline), self.n_experiments)
    }

    /// Base experiment configuration for a `(slack %, t_c)` cell of the
    /// evaluation grid. Sweeps run with a `NullRecorder` sink, so there
    /// is no event-log toggle to set here.
    pub fn base_config(&self, slack_pct: u64, tc_secs: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default()
            .with_slack_percent(slack_pct)
            .with_costs(redspot_ckpt::CkptCosts::symmetric_secs(tc_secs));
        cfg.seed = self.seed;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_generates_both_regimes() {
        let s = PaperSetup::quick(5);
        assert_eq!(s.traces(Volatility::Low).n_zones(), 3);
        assert_eq!(s.traces(Volatility::High).n_zones(), 3);
        let starts = s.starts(Volatility::Low, SimDuration::from_hours(23));
        assert_eq!(starts.len(), 6);
    }

    #[test]
    fn base_config_reflects_grid_cell() {
        let s = PaperSetup::quick(5);
        let cfg = s.base_config(50, 900);
        assert_eq!(cfg.slack(), SimDuration::from_hours(10));
        assert_eq!(cfg.costs.checkpoint.secs(), 900);
    }

    #[test]
    #[should_panic(expected = "no moderate-volatility")]
    fn moderate_regime_is_rejected() {
        PaperSetup::quick(5).traces(Volatility::Moderate);
    }
}
