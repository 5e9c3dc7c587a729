//! Sweep-shared memoization of Markov uptime estimates.
//!
//! Every Markov-Daly reschedule asks for `E[T_u]` and every Threshold
//! reschedule for `TimeThresh`, each from a 48-hour transition model. A
//! fresh answer builds the model (one pass over the window's transition
//! counts into a sparse matrix stored by column) and runs up to 600
//! kernel steps. `E[T_u]` steps one forward lane from its start, each
//! step gathering every state's next mass from its up sources only.
//! `TimeThresh` steps one backward survival vector for every up state at
//! once, and runs forward lanes only for the few starts whose rounded
//! second a derived bound on the two kernels' distance leaves in doubt.
//! Both answers are exact against a dense, one-start-at-a-time
//! propagation: per forward lane, each state receives the same products
//! in the same ascending-source order, a skipped zero term could only add
//! `+0.0` to a non-negative sum, and survival sums the same values in the
//! same order; a backward answer is one the bound proves equal
//! (DESIGN.md §13).
//!
//! A query still costs a kernel run of tens to hundreds of microseconds,
//! plus a model build the first time its window is seen, and across a
//! sweep's cells those models and estimates repeat heavily — runs at
//! overlapping starts walk the same absolute history windows — so a
//! [`UptimeMemo`] caches both layers: built [`MarkovModel`]s, and the
//! scalar expected/average-uptime results queried from them. A scalar hit
//! skips both the build and the kernel.
//!
//! # Keying and determinism
//!
//! A model is a pure function of the samples it was built from, so the
//! cache keys on the *sample index range* the history window covers
//! ([`PriceSeries::window_indices`]), not on the window's raw seconds:
//! two runs whose reschedules land at different offsets inside the same
//! 5-minute price step still hit the same entry. Cached values are
//! reused verbatim — a memoized query returns bit-identical results to
//! an unmemoized one, which is what lets the batch plane promise equal
//! `RunResult`s with the cache on or off.
//!
//! # Scope
//!
//! Keys identify samples only *within one trace set*. A `UptimeMemo`
//! must never be shared across markets; the batch plane enforces this by
//! owning one memo per `MarketCtx`.

use crate::uptime::MarkovModel;
use redspot_trace::{Price, PriceSeries, SimDuration, Window};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lock shards: decision points from concurrent runs mostly touch
/// different windows, so a handful of shards removes practically all
/// contention without fancy machinery.
const N_SHARDS: usize = 16;

/// Identity of a built model: which samples it saw and how they were
/// quantized. `step` is the sampling interval in seconds (part of the
/// model via the chain-step duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ModelKey {
    zone: usize,
    lo: usize,
    hi: usize,
    step: u64,
    bin: u64,
}

impl ModelKey {
    fn of(zone: usize, series: &PriceSeries, window: Window, bin_millis: u64) -> ModelKey {
        let (lo, hi) = series.window_indices(window);
        ModelKey {
            zone,
            lo,
            hi,
            step: series.step(),
            bin: bin_millis,
        }
    }

    fn shard(&self) -> usize {
        (self
            .zone
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(self.lo)
            .wrapping_add(self.hi << 8))
            % N_SHARDS
    }
}

/// A scalar uptime query against one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Query {
    /// `expected_uptime(current_price, bid)`.
    Expected(Price, Price),
    /// `average_uptime(bid)` (the Threshold policy's `TimeThresh`).
    Average(Price),
}

/// Snapshot of a [`UptimeMemo`]'s counters. Hits and misses count scalar
/// uptime queries (the expensive chain propagation); `entries` counts
/// cached scalars across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Scalar queries answered from the cache.
    pub hits: u64,
    /// Scalar queries that had to propagate the chain.
    pub misses: u64,
    /// Cached scalar results.
    pub entries: usize,
}

impl MemoStats {
    /// Hits as a fraction of all queries (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe two-level cache over [`MarkovModel`]: built models keyed
/// by their sample range, and uptime scalars keyed by `(model, query)`.
/// See the module docs for the determinism and scoping contract.
#[derive(Debug, Default)]
pub struct UptimeMemo {
    models: [Mutex<HashMap<ModelKey, Arc<MarkovModel>>>; N_SHARDS],
    scalars: [Mutex<HashMap<(ModelKey, Query), SimDuration>>; N_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl UptimeMemo {
    /// An empty memo.
    pub fn new() -> UptimeMemo {
        UptimeMemo::default()
    }

    /// The model for `window` of `series`, built on first use. `zone` is
    /// the caller's zone index — part of the key because different zones
    /// can cover identical index ranges with different prices.
    pub fn model(
        &self,
        zone: usize,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
    ) -> Arc<MarkovModel> {
        self.model_for(
            ModelKey::of(zone, series, window, bin_millis),
            series,
            window,
            bin_millis,
        )
    }

    /// Memoized [`MarkovModel::expected_uptime`] of the model for
    /// `window`. Bit-identical to building the model and querying it
    /// directly.
    pub fn expected_uptime(
        &self,
        zone: usize,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
        current_price: Price,
        bid: Price,
    ) -> SimDuration {
        // Mirrors the model's own early-out; no cache traffic needed.
        if current_price > bid {
            return SimDuration::ZERO;
        }
        let key = ModelKey::of(zone, series, window, bin_millis);
        self.scalar(
            key,
            Query::Expected(current_price, bid),
            series,
            window,
            bin_millis,
        )
    }

    /// Memoized [`MarkovModel::average_uptime`] of the model for `window`.
    pub fn average_uptime(
        &self,
        zone: usize,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
        bid: Price,
    ) -> SimDuration {
        let key = ModelKey::of(zone, series, window, bin_millis);
        self.scalar(key, Query::Average(bid), series, window, bin_millis)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .scalars
                .iter()
                .map(|s| s.lock().expect("memo shard poisoned").len())
                .sum(),
        }
    }

    fn scalar(
        &self,
        key: ModelKey,
        query: Query,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
    ) -> SimDuration {
        let shard = key.shard();
        if let Some(&v) = self.scalars[shard]
            .lock()
            .expect("memo shard poisoned")
            .get(&(key, query))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let model = self.model_for(key, series, window, bin_millis);
        let v = match query {
            Query::Expected(price, bid) => model.expected_uptime(price, bid),
            Query::Average(bid) => model.average_uptime(bid),
        };
        self.scalars[shard]
            .lock()
            .expect("memo shard poisoned")
            .insert((key, query), v);
        v
    }

    fn model_for(
        &self,
        key: ModelKey,
        series: &PriceSeries,
        window: Window,
        bin_millis: u64,
    ) -> Arc<MarkovModel> {
        let shard = key.shard();
        if let Some(m) = self.models[shard]
            .lock()
            .expect("memo shard poisoned")
            .get(&key)
        {
            return Arc::clone(m);
        }
        // Build outside the lock: a racing duplicate build is deterministic
        // (identical inputs), and the first insert wins.
        let built = Arc::new(MarkovModel::with_bin(series, window, bin_millis));
        Arc::clone(
            self.models[shard]
                .lock()
                .expect("memo shard poisoned")
                .entry(key)
                .or_insert(built),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_trace::SimTime;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    fn series(prices: &[u64]) -> PriceSeries {
        PriceSeries::new(SimTime::ZERO, prices.iter().map(|&m| p(m)).collect())
    }

    #[test]
    fn memoized_queries_match_direct_ones() {
        let s = series(&[270, 310, 500, 270, 800, 310, 270, 500, 900, 270]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        let direct = MarkovModel::with_bin(&s, w, 50);
        for bid in [300u64, 500, 810] {
            assert_eq!(
                memo.expected_uptime(0, &s, w, 50, p(270), p(bid)),
                direct.expected_uptime(p(270), p(bid))
            );
            assert_eq!(
                memo.average_uptime(0, &s, w, 50, p(bid)),
                direct.average_uptime(p(bid))
            );
        }
    }

    #[test]
    fn repeat_queries_hit() {
        let s = series(&[270, 900, 270, 900, 270]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        let a = memo.expected_uptime(0, &s, w, 50, p(270), p(500));
        let b = memo.expected_uptime(0, &s, w, 50, p(270), p(500));
        assert_eq!(a, b);
        let st = memo.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        assert!((st.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn substep_jitter_shares_an_entry() {
        let s = series(&[270; 20]);
        let memo = UptimeMemo::new();
        let t = |secs: u64| SimTime::ZERO + redspot_trace::SimDuration::from_secs(secs);
        // Same sample range, different raw seconds: second query hits.
        memo.expected_uptime(0, &s, Window::new(t(0), t(1_537)), 50, p(270), p(500));
        memo.expected_uptime(0, &s, Window::new(t(13), t(1_641)), 50, p(270), p(500));
        assert_eq!(memo.stats().hits, 1);
    }

    #[test]
    fn zones_do_not_collide() {
        let cheap = series(&[270; 10]);
        let spiky = series(&[270, 900, 270, 900, 270, 900, 270, 900, 270, 900]);
        let w = Window::new(cheap.start(), cheap.end());
        let memo = UptimeMemo::new();
        let a = memo.expected_uptime(0, &cheap, w, 50, p(270), p(500));
        let b = memo.expected_uptime(1, &spiky, w, 50, p(270), p(500));
        assert!(a > b, "distinct zones must not share entries: {a} vs {b}");
    }

    #[test]
    fn out_of_bid_is_zero_without_cache_traffic() {
        let s = series(&[270; 10]);
        let w = Window::new(s.start(), s.end());
        let memo = UptimeMemo::new();
        assert_eq!(
            memo.expected_uptime(0, &s, w, 50, p(900), p(500)),
            SimDuration::ZERO
        );
        assert_eq!(memo.stats(), MemoStats::default());
    }
}
