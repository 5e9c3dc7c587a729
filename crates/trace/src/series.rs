//! A single availability zone's spot-price history.

use crate::price::Price;
use crate::time::{SimDuration, SimTime, PRICE_STEP};
use crate::window::Window;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A stepwise-constant spot-price series for one availability zone, sampled
/// at a fixed interval (5 minutes in all paper experiments).
///
/// The price at time `t` is the sample of the step containing `t`; queries
/// before the first sample return the first sample, queries at or past the
/// end return the last sample (policies only ever look backwards, so this
/// clamping only matters at trace edges).
/// Samples live behind an [`Arc`] so cloning a series (and therefore a
/// whole [`crate::TraceSet`]) is O(zones), not O(samples) — sweeps hand
/// the same market to hundreds of cells without copying price data.
#[derive(Debug, Clone)]
pub struct PriceSeries {
    start: SimTime,
    step: u64,
    prices: Arc<Vec<Price>>,
    /// Sorted sample indices `j` with `prices[j] != prices[j - 1]`, built
    /// lazily on the first [`next_price_change`](Self::next_price_change)
    /// and shared by clones. Derived from `prices`, so it is excluded from
    /// equality and serialization (the manual impls below).
    changes: OnceLock<Arc<[u32]>>,
}

/// Equality ignores the lazily-built change-point index: it is a pure
/// function of `prices`.
impl PartialEq for PriceSeries {
    fn eq(&self, other: &PriceSeries) -> bool {
        self.start == other.start && self.step == other.step && self.prices == other.prices
    }
}

impl Eq for PriceSeries {}

/// Hand-written to keep the wire shape at `{start, step, prices}` — the
/// change-point cache is derived data and must not leak into trace files.
impl Serialize for PriceSeries {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("start".to_string(), self.start.to_value()),
            ("step".to_string(), self.step.to_value()),
            ("prices".to_string(), self.prices.to_value()),
        ])
    }
}

impl Deserialize for PriceSeries {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("PriceSeries: expected map"))?;
        let field = |k: &str| {
            serde::__find(m, k)
                .ok_or_else(|| serde::Error::custom(format!("PriceSeries: missing field `{k}`")))
        };
        Ok(PriceSeries {
            start: Deserialize::from_value(field("start")?)?,
            step: Deserialize::from_value(field("step")?)?,
            prices: Deserialize::from_value(field("prices")?)?,
            changes: OnceLock::new(),
        })
    }
}

impl PriceSeries {
    /// Build a series starting at `start` with one sample per [`PRICE_STEP`].
    ///
    /// # Panics
    /// Panics if `prices` is empty.
    pub fn new(start: SimTime, prices: Vec<Price>) -> PriceSeries {
        PriceSeries::with_step(start, PRICE_STEP, prices)
    }

    /// Build a series with an explicit sampling step (seconds).
    ///
    /// # Panics
    /// Panics if `prices` is empty or `step` is zero.
    pub fn with_step(start: SimTime, step: u64, prices: Vec<Price>) -> PriceSeries {
        assert!(
            !prices.is_empty(),
            "price series must have at least one sample"
        );
        assert!(step > 0, "sampling step must be positive");
        PriceSeries {
            start,
            step,
            prices: Arc::new(prices),
            changes: OnceLock::new(),
        }
    }

    /// First instant covered by the series.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// One past the last instant covered (start + len * step).
    pub fn end(&self) -> SimTime {
        self.start + SimDuration::from_secs(self.step * self.prices.len() as u64)
    }

    /// Sampling step in seconds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.prices.len()
    }

    /// Whether the series has no samples. Always false by construction, but
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.prices.is_empty()
    }

    /// Time span covered.
    pub fn duration(&self) -> SimDuration {
        self.end() - self.start
    }

    /// Raw samples.
    pub fn samples(&self) -> &[Price] {
        &self.prices
    }

    /// Index of the sample covering `t`, clamped to the series bounds.
    fn index_at(&self, t: SimTime) -> usize {
        if t <= self.start {
            return 0;
        }
        let idx = (t.secs() - self.start.secs()) / self.step;
        (idx as usize).min(self.prices.len() - 1)
    }

    /// The spot price in effect at `t`.
    pub fn price_at(&self, t: SimTime) -> Price {
        self.prices[self.index_at(t)]
    }

    /// True when the sample covering `t` is strictly higher than the
    /// previous sample — the paper's "rising edge" signal (Section 4.3).
    /// The first sample is never a rising edge.
    pub fn is_rising_edge(&self, t: SimTime) -> bool {
        let idx = self.index_at(t);
        idx > 0 && self.prices[idx] > self.prices[idx - 1]
    }

    /// Iterate over `(sample_start_time, price)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, Price)> + '_ {
        self.prices
            .iter()
            .enumerate()
            .map(move |(i, &p)| (self.start + SimDuration::from_secs(i as u64 * self.step), p))
    }

    /// The half-open sample index range `slice(window)` would copy, without
    /// copying it. Two windows that differ only by sub-step jitter map to
    /// the same range (start floors to a sample boundary, end rounds up),
    /// which is what makes the range usable as a canonical memoization key
    /// for anything derived purely from the sliced samples.
    ///
    /// # Panics
    /// Panics if the window does not overlap the series at all.
    pub fn window_indices(&self, window: Window) -> (usize, usize) {
        let lo = self.index_at(window.start());
        let hi_t = window.end().min(self.end());
        assert!(
            window.start() < self.end() && hi_t > self.start,
            "window does not overlap series"
        );
        let hi_excl = {
            let raw = (hi_t.secs().saturating_sub(self.start.secs())).div_ceil(self.step) as usize;
            raw.clamp(lo + 1, self.prices.len())
        };
        (lo, hi_excl)
    }

    /// Extract the sub-series covering `window` (clamped to the series
    /// bounds). The returned series starts at the sample boundary at or
    /// before `window.start()`.
    ///
    /// # Panics
    /// Panics if the window does not overlap the series at all.
    pub fn slice(&self, window: Window) -> PriceSeries {
        let (lo, hi_excl) = self.window_indices(window);
        PriceSeries {
            start: self.start + SimDuration::from_secs(lo as u64 * self.step),
            step: self.step,
            prices: Arc::new(self.prices[lo..hi_excl].to_vec()),
            changes: OnceLock::new(),
        }
    }

    /// Samples within `window`, as raw prices (used by statistics).
    pub fn samples_in(&self, window: Window) -> &[Price] {
        let lo = self.index_at(window.start());
        let hi = (self.index_at(window.end().saturating_sub(SimDuration::from_secs(1))) + 1)
            .min(self.prices.len());
        &self.prices[lo..hi.max(lo + 1)]
    }

    /// Minimum price over the whole series.
    pub fn min_price(&self) -> Price {
        *self.prices.iter().min().expect("non-empty by construction")
    }

    /// Maximum price over the whole series.
    pub fn max_price(&self) -> Price {
        *self.prices.iter().max().expect("non-empty by construction")
    }

    /// Mean price in dollars (reporting / calibration only).
    pub fn mean_dollars(&self) -> f64 {
        self.prices.iter().map(|p| p.as_dollars()).sum::<f64>() / self.prices.len() as f64
    }

    /// Population variance of the price in dollars² (reporting /
    /// calibration only).
    pub fn variance_dollars(&self) -> f64 {
        let mean = self.mean_dollars();
        self.prices
            .iter()
            .map(|p| {
                let d = p.as_dollars() - mean;
                d * d
            })
            .sum::<f64>()
            / self.prices.len() as f64
    }

    /// Fraction of samples at which the zone would be available at bid `b`
    /// (price ≤ bid).
    pub fn availability_at_bid(&self, bid: Price) -> f64 {
        let up = self.prices.iter().filter(|&&p| p <= bid).count();
        up as f64 / self.prices.len() as f64
    }

    /// The canonical forecast sampling grid for `window`: [`PRICE_STEP`]-spaced
    /// probe times starting at `window.start()` clamped up to the series
    /// start, truncated at `window.end()` clamped down to the series end.
    /// Returns `(origin, n_steps)`, or `None` when the clamped window is
    /// empty (the window lies entirely before or after the series). Windows
    /// shorter than one step but with a non-empty overlap probe a single
    /// sample, which by construction lies inside the requested window.
    ///
    /// Every forecast-style reader (the adaptive controller's `estimate`,
    /// its permutation scan, and [`availability_in`](Self::availability_in))
    /// shares this grid, so their sample sets — and therefore their
    /// statistics — agree exactly without materialising a [`slice`](Self::slice).
    pub fn forecast_grid(&self, window: Window) -> Option<(SimTime, u64)> {
        let lo = window.start().max(self.start());
        let hi = window.end().min(self.end());
        (hi > lo).then(|| (lo, ((hi.secs() - lo.secs()) / PRICE_STEP).max(1)))
    }

    /// Availability at `bid` over the canonical forecast grid of `window`
    /// (see [`forecast_grid`](Self::forecast_grid)): the fraction of probe
    /// steps whose price is at or below `bid`. An empty clamped window has
    /// zero availability. Unlike `slice(window).availability_at_bid(bid)`,
    /// this allocates nothing and never panics on disjoint windows.
    pub fn availability_in(&self, window: Window, bid: Price) -> f64 {
        let Some((lo, n_steps)) = self.forecast_grid(window) else {
            return 0.0;
        };
        let up = (0..n_steps)
            .filter(|i| self.price_at(SimTime::from_secs(lo.secs() + i * PRICE_STEP)) <= bid)
            .count();
        up as f64 / n_steps as f64
    }

    /// Sorted indices of samples that differ from their predecessor.
    /// Built once per allocation (clones share it through the `Arc`).
    fn change_points(&self) -> &[u32] {
        self.changes.get_or_init(|| {
            self.prices
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w[0] != w[1])
                .map(|(i, _)| (i + 1) as u32)
                .collect()
        })
    }

    /// Time of the next sample boundary strictly after `t` at which the
    /// price moves (changes value), or `None` if the price never moves
    /// again. Used by event-driven simulation to skip quiet spans.
    ///
    /// O(log C) in the number of change points via a binary search over
    /// the precomputed [`change_points`](Self::change_points) index —
    /// prices are constant between consecutive change points, so the
    /// first change point past `t`'s sample necessarily carries a value
    /// different from the price at `t`.
    pub fn next_price_change(&self, t: SimTime) -> Option<(SimTime, Price)> {
        let idx = self.index_at(t);
        let ch = self.change_points();
        let pos = ch.partition_point(|&j| j as usize <= idx);
        let j = *ch.get(pos)? as usize;
        debug_assert_ne!(self.prices[j], self.prices[idx]);
        Some((
            self.start + SimDuration::from_secs(j as u64 * self.step),
            self.prices[j],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(millis: u64) -> Price {
        Price::from_millis(millis)
    }

    fn series() -> PriceSeries {
        // 5 samples at 300s: [t0..300)=270, [300..600)=270, [600..900)=500,
        // [900..1200)=400, [1200..1500)=400
        PriceSeries::new(SimTime::ZERO, vec![p(270), p(270), p(500), p(400), p(400)])
    }

    #[test]
    fn price_lookup_is_stepwise_constant() {
        let s = series();
        assert_eq!(s.price_at(SimTime::from_secs(0)), p(270));
        assert_eq!(s.price_at(SimTime::from_secs(299)), p(270));
        assert_eq!(s.price_at(SimTime::from_secs(600)), p(500));
        assert_eq!(s.price_at(SimTime::from_secs(899)), p(500));
        // clamped past the end
        assert_eq!(s.price_at(SimTime::from_secs(10_000)), p(400));
    }

    #[test]
    fn rising_edge_detection() {
        let s = series();
        assert!(!s.is_rising_edge(SimTime::from_secs(0)));
        assert!(!s.is_rising_edge(SimTime::from_secs(300)));
        assert!(s.is_rising_edge(SimTime::from_secs(600)));
        assert!(s.is_rising_edge(SimTime::from_secs(899)));
        assert!(!s.is_rising_edge(SimTime::from_secs(900))); // falling
        assert!(!s.is_rising_edge(SimTime::from_secs(1200))); // flat
    }

    #[test]
    fn bounds_and_duration() {
        let s = series();
        assert_eq!(s.len(), 5);
        assert_eq!(s.end(), SimTime::from_secs(1500));
        assert_eq!(s.duration(), SimDuration::from_secs(1500));
    }

    #[test]
    fn slicing_clamps_to_bounds() {
        let s = series();
        let w = Window::new(SimTime::from_secs(300), SimTime::from_secs(900));
        let sub = s.slice(w);
        assert_eq!(sub.start(), SimTime::from_secs(300));
        assert_eq!(sub.samples(), &[p(270), p(500)]);

        let w2 = Window::new(SimTime::from_secs(250), SimTime::from_secs(10_000));
        let sub2 = s.slice(w2);
        assert_eq!(sub2.start(), SimTime::ZERO);
        assert_eq!(sub2.len(), 5);
    }

    #[test]
    #[should_panic(expected = "window does not overlap")]
    fn slicing_disjoint_window_panics() {
        let s = series();
        s.slice(Window::new(
            SimTime::from_secs(2_000),
            SimTime::from_secs(3_000),
        ));
    }

    #[test]
    fn extrema_and_availability() {
        let s = series();
        assert_eq!(s.min_price(), p(270));
        assert_eq!(s.max_price(), p(500));
        assert!((s.availability_at_bid(p(400)) - 0.8).abs() < 1e-12);
        assert!((s.availability_at_bid(p(269)) - 0.0).abs() < 1e-12);
        assert!((s.availability_at_bid(p(500)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn forecast_grid_clamps_both_edges() {
        // `series()` covers [0, 1500).
        let s = series();
        // Fully inside.
        let w = Window::new(SimTime::from_secs(300), SimTime::from_secs(900));
        assert_eq!(s.forecast_grid(w), Some((SimTime::from_secs(300), 2)));
        // Overrunning the end: steps stop at the series end instead of
        // repeating the final sample.
        let w = Window::new(SimTime::from_secs(900), SimTime::from_secs(90_000));
        assert_eq!(s.forecast_grid(w), Some((SimTime::from_secs(900), 2)));
        // Starting before the series: origin clamps up.
        let w = Window::new(SimTime::ZERO, SimTime::from_secs(600));
        let shifted = PriceSeries::new(SimTime::from_secs(300), vec![p(1), p(2)]);
        assert_eq!(shifted.forecast_grid(w), Some((SimTime::from_secs(300), 1)));
        // Entirely past the end / entirely before the start: empty.
        assert_eq!(
            s.forecast_grid(Window::new(
                SimTime::from_secs(1_500),
                SimTime::from_secs(2_000)
            )),
            None
        );
        assert_eq!(
            shifted.forecast_grid(Window::new(SimTime::ZERO, SimTime::from_secs(300))),
            None
        );
        // Sub-step overlap probes exactly one in-window sample.
        let w = Window::new(SimTime::from_secs(600), SimTime::from_secs(700));
        assert_eq!(s.forecast_grid(w), Some((SimTime::from_secs(600), 1)));
    }

    #[test]
    fn availability_in_matches_sliced_availability_on_aligned_windows() {
        let s = series();
        let w = Window::new(SimTime::from_secs(300), SimTime::from_secs(1_200));
        assert_eq!(
            s.availability_in(w, p(400)),
            s.slice(w).availability_at_bid(p(400))
        );
        // Disjoint window: 0.0 instead of the panic slice() raises.
        let disjoint = Window::new(SimTime::from_secs(9_000), SimTime::from_secs(9_300));
        assert_eq!(s.availability_in(disjoint, p(400)), 0.0);
    }

    #[test]
    fn next_price_change_skips_quiet_spans() {
        let s = series();
        assert_eq!(
            s.next_price_change(SimTime::ZERO),
            Some((SimTime::from_secs(600), p(500)))
        );
        assert_eq!(
            s.next_price_change(SimTime::from_secs(600)),
            Some((SimTime::from_secs(900), p(400)))
        );
        assert_eq!(s.next_price_change(SimTime::from_secs(900)), None);
    }

    #[test]
    fn statistics() {
        let s = PriceSeries::new(SimTime::ZERO, vec![p(1000), p(3000)]);
        assert!((s.mean_dollars() - 2.0).abs() < 1e-12);
        assert!((s.variance_dollars() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_series_panics() {
        PriceSeries::new(SimTime::ZERO, vec![]);
    }

    #[test]
    fn window_indices_match_slice_and_absorb_substep_jitter() {
        let s = series();
        let t = |secs: u64| SimTime::from_secs(secs);
        let aligned = Window::new(t(300), t(900));
        let (lo, hi) = s.window_indices(aligned);
        assert_eq!(s.slice(aligned).samples(), &s.samples()[lo..hi]);
        // Jitter inside a step changes neither bound: the start floors to
        // its sample, the end rounds up to the next boundary — exactly the
        // samples slice() copies.
        let jittered = Window::new(t(337), t(841));
        assert_eq!(s.window_indices(jittered), (1, 3));
        assert_eq!(s.slice(jittered).samples(), &s.samples()[1..3]);
        // A boundary end excludes the sample a mid-step end would include.
        assert_eq!(s.window_indices(Window::new(t(300), t(600))), (1, 2));
        assert_eq!(s.window_indices(Window::new(t(300), t(601))), (1, 3));
    }
}
