//! The shared, immutable market context for batch execution.

use super::cache::{CacheStats, DecisionCache};
use super::scan::ScanSeed;
use super::AdaptiveConfig;
use redspot_markov::{MemoStats, UptimeMemo};
use redspot_trace::{TraceHandle, TraceSet, ZoneId};
use std::sync::Arc;

/// Everything a batch of runs shares about one market: the trace set, an
/// optional whole-trace [`ScanSeed`] (bucketed once per sweep instead of
/// once per cell), and the sweep-wide [`DecisionCache`].
///
/// A `MarketCtx` is immutable after construction (the cache's interior
/// mutability is thread-safe), so one context can back any number of
/// concurrent runs. Series samples are `Arc`-backed, so cloning the
/// embedded [`TraceSet`] into the context is O(zones).
#[derive(Debug)]
pub struct MarketCtx {
    traces: TraceHandle,
    seed: Option<Arc<ScanSeed>>,
    cache: Option<Arc<DecisionCache>>,
    uptime: Option<Arc<UptimeMemo>>,
}

impl MarketCtx {
    /// Wrap `traces` with a fresh decision cache and uptime memo, and no
    /// scan seed — the right constructor for one-off runs, where
    /// pre-bucketing the whole trace would cost more than it saves.
    pub fn new(traces: impl Into<TraceHandle>) -> MarketCtx {
        MarketCtx {
            traces: traces.into(),
            seed: None,
            cache: Some(Arc::new(DecisionCache::new())),
            uptime: Some(Arc::new(UptimeMemo::new())),
        }
    }

    /// Wrap `traces` with memoization disabled: no decision cache, no
    /// uptime memo, no scan seed. Every adaptive sub-simulation and
    /// Markov estimate is recomputed from scratch — the pre-batch-plane
    /// behavior. Exists for benchmarks and the cache-on/off equivalence
    /// tests; results are bit-identical with [`new`](Self::new) and
    /// [`for_sweep`](Self::for_sweep).
    pub fn uncached(traces: impl Into<TraceHandle>) -> MarketCtx {
        MarketCtx {
            traces: traces.into(),
            seed: None,
            cache: None,
            uptime: None,
        }
    }

    /// Wrap `traces` for a sweep: additionally pre-buckets every sample
    /// of every zone against the default adaptive bid grid (the grid all
    /// paper sweeps use), so each cell's scan builds become array
    /// lookups. Runs whose zone list or bid grid differ from the seed's
    /// simply don't attach it and stay correct.
    pub fn for_sweep(traces: impl Into<TraceHandle>) -> MarketCtx {
        let traces = traces.into();
        let zones: Vec<ZoneId> = traces.zone_ids().collect();
        let grid = AdaptiveConfig::default().bid_grid;
        let seed = Arc::new(ScanSeed::build(&traces, &zones, &grid));
        MarketCtx {
            traces,
            seed: Some(seed),
            cache: Some(Arc::new(DecisionCache::new())),
            uptime: Some(Arc::new(UptimeMemo::new())),
        }
    }

    /// The market.
    pub fn traces(&self) -> &TraceSet {
        &self.traces
    }

    /// The market's shared ownership handle — clone it to hand the same
    /// allocation to an [`crate::Engine`] or [`crate::AdaptiveRunner`]
    /// without copying price data.
    pub fn handle(&self) -> &TraceHandle {
        &self.traces
    }

    /// The sweep-shared whole-trace bucketing, if this context was built
    /// [`for_sweep`](Self::for_sweep).
    pub fn scan_seed(&self) -> Option<&Arc<ScanSeed>> {
        self.seed.as_ref()
    }

    /// The sweep-wide decision cache, unless this context was built
    /// [`uncached`](Self::uncached).
    pub fn cache(&self) -> Option<&Arc<DecisionCache>> {
        self.cache.as_ref()
    }

    /// Snapshot of the cache's global hit/miss/entry counters (all zero
    /// for an uncached context).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The batch-shared Markov model/uptime memo, unless this context was
    /// built [`uncached`](Self::uncached). Scoped to this context's trace
    /// set — never share it across markets.
    pub fn uptime_memo(&self) -> Option<&Arc<UptimeMemo>> {
        self.uptime.as_ref()
    }

    /// Snapshot of the uptime memo's hit/miss/entry counters (all zero
    /// for an uncached context).
    pub fn uptime_stats(&self) -> MemoStats {
        self.uptime.as_ref().map(|m| m.stats()).unwrap_or_default()
    }
}
