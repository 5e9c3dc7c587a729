//! The daemon's market registry: per-market warm scan state and the
//! sentinel that classifies interruption notices.
//!
//! The registry is an `RwLock`-guarded map from market id to an
//! `Arc<Mutex<MarketState>>`. The outer lock is only held long enough to
//! resolve an id — admissions take the write half, everything else the
//! read half — so advises against *different* markets run fully
//! concurrently and advises against the *same* market serialize on that
//! market's own mutex. Each market keeps its ingested samples plus two
//! tiers of sealed state: a cheap trace view (a [`TraceHandle`] over the
//! samples and the [`CloudApi`] the sentinel polls) and a warm
//! [`DecisionSession`] whose permutation scan advances incrementally
//! between queries. Ingesting new rows invalidates both (the next advise
//! is a *cold* scan rebuild); advises between ingests share the warm
//! scan — the cold/warm split the serve latency table in EXPERIMENTS.md
//! measures.

use super::proto::MarketSpec;
use crate::adaptive::forecast::{predicted_cost, Forecast};
use crate::adaptive::Permutation;
use crate::{AdaptiveRunner, DecisionSession, ExperimentConfig};
use redspot_market::{CloudApi, PerfectApi};
use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, TraceHandle, TraceSet, HORIZON};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

/// The advisory answer to one `advise` query: the cheapest permutation at
/// the decision point, with its cost forecast and the on-demand referent.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Chosen bid, milli-dollars.
    pub bid_millis: u64,
    /// Chosen zones (indices into the market's zone list).
    pub zones: Vec<usize>,
    /// Chosen checkpoint policy label.
    pub policy: String,
    /// Predicted remaining cost of the chosen permutation, milli-dollars.
    pub predicted_cost_millis: f64,
    /// Cost of finishing purely on-demand from here (the deadline-safe
    /// fallback the guard would take), milli-dollars.
    pub od_fallback_millis: f64,
    /// Whether the forecast already expects the on-demand fallback — the
    /// violation-risk signal: spot progress alone is not predicted to
    /// make the deadline.
    pub forecast_on_demand: bool,
}

impl Advice {
    /// Derive the advisory answer from a chosen permutation, exactly as
    /// the daemon does — public so offline comparators can reproduce a
    /// served answer bit-for-bit from a direct [`DecisionSession`] run.
    pub fn derive(
        perm: &Permutation,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
        cfg: &ExperimentConfig,
    ) -> Advice {
        let od = predicted_cost(
            &Forecast::EMPTY,
            remaining_compute,
            remaining_time,
            cfg.costs,
        );
        Advice {
            bid_millis: perm.bid.millis(),
            zones: perm
                .mask
                .iter()
                .enumerate()
                .filter_map(|(i, &on)| on.then_some(i))
                .collect(),
            policy: perm.kind.to_string(),
            predicted_cost_millis: perm.predicted_millis,
            od_fallback_millis: od,
            forecast_on_demand: perm.predicted_millis >= od,
        }
    }
}

/// One interruption notice pushed to subscribers: a zone's price crossed
/// the market's bid, classified under the market's era, with the
/// re-decision the adaptive controller would make at the notice instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Notice {
    /// Market the notice belongs to.
    pub market: String,
    /// Affected zone index.
    pub zone: usize,
    /// Instant the sentinel observed the crossing (the market watermark).
    pub at: SimTime,
    /// The offending price.
    pub price: Price,
    /// Era-dependent classification: the modern provider reclaims
    /// capacity with advance warning (`"reclaim"`); the classic market
    /// kills out-of-bid instances abruptly (`"out-of-bid"`).
    pub class: &'static str,
    /// When the instance dies: `at` plus the era's advance notice
    /// (two minutes in the modern era, none in the classic).
    pub terminate_at: SimTime,
    /// The re-decision at the notice instant, when one is computable.
    pub advice: Option<Advice>,
}

/// Ingestion/scan counters for one market.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarketStats {
    /// Sample rows ingested.
    pub rows: u64,
    /// Advises that had to rebuild trace + scan state (stale seal).
    pub cold_builds: u64,
    /// Advises answered from the warm seal.
    pub warm_advises: u64,
    /// Interruption notices the sentinel has raised.
    pub notices: u64,
}

/// The cheap trace-backed view of a market at some ingestion watermark:
/// what the sentinel polls. Rebuilding it is O(rows) sample copies —
/// no scan work — so refreshing per sentinel sweep is affordable.
struct View {
    /// Ingestion row count this view was built at.
    rows: u64,
    /// Shared trace over the ingested samples.
    handle: TraceHandle,
    /// The control plane the sentinel polls for prices.
    api: Box<dyn CloudApi + Send>,
}

/// The expensive warm decision state: a [`DecisionSession`] whose
/// permutation scan advances incrementally across successive advises.
/// Built lazily (first advise after an ingest is the *cold* path) and
/// never rebuilt by mere sentinel polls.
struct Warm {
    /// Ingestion row count this session was built at; a mismatch with
    /// the live count means the scan is stale and the next advise
    /// rebuilds it.
    rows: u64,
    session: DecisionSession,
}

/// One market's full state: spec, accumulated samples, the two-tier
/// sealed state ([`View`]/[`Warm`]), and the sentinel's per-zone edge
/// detector.
struct MarketState {
    spec: MarketSpec,
    cfg: ExperimentConfig,
    /// Per-zone ingested samples, in zone order.
    zone_prices: Vec<Vec<Price>>,
    view: Option<View>,
    warm: Option<Warm>,
    /// Which zones are currently in a raised-notice state (crossing
    /// edges fire once; the flag re-arms when the price drops back).
    noticed: Vec<bool>,
    /// The next expected sample timestamp (start + rows·step), never past
    /// [`HORIZON`].
    watermark: SimTime,
    stats: MarketStats,
}

impl MarketState {
    /// A market with no rows yet. Refuses a spec whose first row would
    /// already carry the watermark past [`HORIZON`].
    fn new(spec: MarketSpec) -> Result<MarketState, String> {
        if next_watermark(spec.start, spec.step).is_none() {
            return Err(format!(
                "market '{}' starts too late: start {} + step {} passes the horizon ({} s)",
                spec.market,
                spec.start.secs(),
                spec.step,
                HORIZON.secs()
            ));
        }
        let cfg = spec.config();
        let zones = spec.zones;
        Ok(MarketState {
            watermark: spec.start,
            spec,
            cfg,
            zone_prices: vec![Vec::new(); zones],
            view: None,
            warm: None,
            noticed: vec![false; zones],
            stats: MarketStats::default(),
        })
    }

    /// The timestamp of the last ingested row (None before any ingest).
    fn last_sample_at(&self) -> Option<SimTime> {
        (self.stats.rows > 0).then(|| SimTime::from_secs(self.watermark.secs() - self.spec.step))
    }

    fn ingest(&mut self, at: SimTime, prices: &[Price]) -> Result<u64, String> {
        if prices.len() != self.spec.zones {
            return Err(format!(
                "market '{}' has {} zones, got {} prices",
                self.spec.market,
                self.spec.zones,
                prices.len()
            ));
        }
        let expect = self.watermark;
        if at != expect {
            return Err(format!(
                "out-of-order ingest for '{}': expected at={}, got at={} \
                 (rows advance by one step of {}s)",
                self.spec.market,
                expect.secs(),
                at.secs(),
                self.spec.step
            ));
        }
        let next = next_watermark(at, self.spec.step).ok_or_else(|| {
            format!(
                "market '{}' is full: a row at {} would carry its next sample past the horizon ({} s)",
                self.spec.market,
                at.secs(),
                HORIZON.secs()
            )
        })?;
        for (zone, &p) in self.zone_prices.iter_mut().zip(prices) {
            zone.push(p);
        }
        self.watermark = next;
        self.stats.rows += 1;
        // New data: both tiers of sealed state are stale.
        self.view = None;
        self.warm = None;
        Ok(self.stats.rows)
    }

    /// Ensure the trace view matches the current watermark (cheap: one
    /// pass over the ingested samples, no scan work).
    fn refresh_view(&mut self) -> Result<(), String> {
        if self.stats.rows == 0 {
            return Err(format!("market '{}' has no samples yet", self.spec.market));
        }
        if self
            .view
            .as_ref()
            .is_some_and(|v| v.rows == self.stats.rows)
        {
            return Ok(());
        }
        let series: Vec<PriceSeries> = self
            .zone_prices
            .iter()
            .map(|p| PriceSeries::with_step(self.spec.start, self.spec.step, p.clone()))
            .collect();
        let handle = TraceHandle::new(TraceSet::new(series));
        self.view = Some(View {
            rows: self.stats.rows,
            api: Box::new(PerfectApi::new(handle.clone())),
            handle,
        });
        Ok(())
    }

    /// Ensure the warm decision session matches the current watermark,
    /// counting whether this query ran cold (scan rebuild) or warm
    /// (incremental reuse).
    fn warm_session(&mut self) -> Result<&mut DecisionSession, String> {
        self.refresh_view()?;
        match &self.warm {
            Some(w) if w.rows == self.stats.rows => self.stats.warm_advises += 1,
            _ => {
                let handle = self
                    .view
                    .as_ref()
                    .expect("view refreshed above")
                    .handle
                    .clone();
                let runner = AdaptiveRunner::new(handle, self.spec.start, self.cfg.clone());
                self.warm = Some(Warm {
                    rows: self.stats.rows,
                    session: runner.session(),
                });
                self.stats.cold_builds += 1;
            }
        }
        Ok(&mut self.warm.as_mut().expect("warm installed above").session)
    }

    fn advise(
        &mut self,
        now: SimTime,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
    ) -> Result<Advice, String> {
        let cfg = self.cfg.clone();
        let session = self.warm_session()?;
        let perm = session
            .decide(now, remaining_compute, remaining_time)
            .ok_or_else(|| {
                format!(
                    "no admissible permutation at now={} (no history before that instant?)",
                    now.secs()
                )
            })?;
        Ok(Advice::derive(
            &perm,
            remaining_compute,
            remaining_time,
            &cfg,
        ))
    }

    /// Poll the control plane at the market watermark and classify bid
    /// crossings. Edge-triggered per zone: a crossing fires one notice
    /// and stays silent until the price drops back under the bid. Only
    /// the cheap trace view is refreshed; the expensive warm scan is
    /// touched only when a crossing actually fires (to compute the
    /// attached re-decision), so routine sweeps of calm markets cost
    /// O(zones) price reads.
    fn poll(&mut self) -> Vec<Notice> {
        let Some(at) = self.last_sample_at() else {
            return Vec::new();
        };
        if self.refresh_view().is_err() {
            return Vec::new();
        }
        // First pass: classify crossings through the control plane.
        // Disjoint field borrows: the view's API advances (fault
        // decorators hold RNG state) while the edge flags are flipped.
        let mut crossings: Vec<(usize, Price)> = Vec::new();
        {
            let MarketState {
                spec,
                view,
                noticed,
                ..
            } = self;
            let view = view.as_mut().expect("view refreshed above");
            for (z, raised) in noticed.iter_mut().enumerate() {
                let price = match view.api.describe_price(at, redspot_trace::ZoneId(z)) {
                    Ok(ok) => ok.value,
                    Err(_) => continue, // fault-injecting planes: skip this poll
                };
                if price <= spec.bid {
                    *raised = false;
                } else if !*raised {
                    *raised = true;
                    crossings.push((z, price));
                }
            }
        }
        if crossings.is_empty() {
            return Vec::new();
        }
        // Second pass: one re-decision at the notice instant for the
        // paper's standard job — the push tells subscribers where the
        // controller would move now that these zones are dying. All
        // crossings in one sweep share the instant, so one decide serves
        // them all.
        let cfg = self.cfg.clone();
        let (work, deadline) = (cfg.app.work, cfg.deadline);
        let advice = self
            .warm_session()
            .ok()
            .and_then(|s| s.decide(at, work, deadline))
            .map(|perm| Advice::derive(&perm, work, deadline, &cfg));
        let (class, terminate_at) = match self.spec.era.rules().interruption_notice() {
            Some(notice) => ("reclaim", at + notice),
            None => ("out-of-bid", at),
        };
        let out: Vec<Notice> = crossings
            .into_iter()
            .map(|(zone, price)| Notice {
                market: self.spec.market.clone(),
                zone,
                at,
                price,
                class,
                terminate_at,
                advice: advice.clone(),
            })
            .collect();
        self.stats.notices += out.len() as u64;
        out
    }
}

/// The watermark after a row at `at`: one step later, if that is not
/// past [`HORIZON`].
fn next_watermark(at: SimTime, step: u64) -> Option<SimTime> {
    at.secs()
        .checked_add(step)
        .filter(|&next| next <= HORIZON.secs())
        .map(SimTime::from_secs)
}

/// The daemon's market table. See the module docs for the locking story.
pub struct Registry {
    markets: RwLock<HashMap<String, Arc<Mutex<MarketState>>>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            markets: RwLock::new(HashMap::new()),
        }
    }

    fn get(&self, market: &str) -> Result<Arc<Mutex<MarketState>>, String> {
        self.markets
            .read()
            .expect("registry lock")
            .get(market)
            .cloned()
            .ok_or_else(|| format!("unknown market '{market}' (open it first)"))
    }

    /// Admit a new market. Rejects duplicate ids — re-opening would
    /// silently reset another client's ingestion watermark.
    pub fn open(&self, spec: MarketSpec) -> Result<(), String> {
        let mut markets = self.markets.write().expect("registry lock");
        if markets.contains_key(&spec.market) {
            return Err(format!("market '{}' is already open", spec.market));
        }
        let market = spec.market.clone();
        markets.insert(market, Arc::new(Mutex::new(MarketState::new(spec)?)));
        Ok(())
    }

    /// Append one aligned sample row; returns the new row count.
    pub fn ingest(&self, market: &str, at: SimTime, prices: &[Price]) -> Result<u64, String> {
        let m = self.get(market)?;
        let mut state = m.lock().expect("market lock");
        state.ingest(at, prices)
    }

    /// Answer an advisory query against the market's sealed trace view.
    pub fn advise(
        &self,
        market: &str,
        now: SimTime,
        remaining_compute: SimDuration,
        remaining_time: SimDuration,
    ) -> Result<Advice, String> {
        let m = self.get(market)?;
        let mut state = m.lock().expect("market lock");
        state.advise(now, remaining_compute, remaining_time)
    }

    /// A market's counters (plus its current watermark in seconds).
    pub fn stats(&self, market: &str) -> Result<(MarketStats, SimTime), String> {
        let m = self.get(market)?;
        let state = m.lock().expect("market lock");
        Ok((state.stats, state.watermark))
    }

    /// Run one sentinel pass over `market`: poll its control plane at the
    /// watermark and return freshly raised interruption notices.
    pub fn poll_market(&self, market: &str) -> Vec<Notice> {
        match self.get(market) {
            Ok(m) => m.lock().expect("market lock").poll(),
            Err(_) => Vec::new(),
        }
    }

    /// Open a fresh market named `market` and ingest every aligned row
    /// of `traces` — the `serve --trace`/`--profile` preload path, so a
    /// daemon can come up already knowing a market's history instead of
    /// waiting for a client to stream it. Zones, start and step are
    /// derived from the trace; `era`, `bid` and `seed` parameterize the
    /// advisory config exactly as a client `open` would. Returns the row
    /// count ingested.
    pub fn preload(
        &self,
        market: &str,
        traces: &TraceSet,
        era: redspot_market::Era,
        bid: Price,
        seed: u64,
    ) -> Result<u64, String> {
        let zones = traces.n_zones();
        if zones == 0 {
            return Err("preload trace has no zones".into());
        }
        let first = traces.zone(redspot_trace::ZoneId(0));
        let (start, step) = (first.start(), first.step());
        self.open(MarketSpec {
            market: market.to_string(),
            zones,
            start,
            step,
            era,
            bid,
            seed,
        })?;
        let mut prices = vec![Price::from_millis(0); zones];
        for i in 0..first.len() {
            for (z, slot) in prices.iter_mut().enumerate() {
                *slot = traces.zones()[z].samples()[i];
            }
            let at = SimTime::from_secs(start.secs() + i as u64 * step);
            self.ingest(market, at, &prices)?;
        }
        Ok(first.len() as u64)
    }

    /// Run one sentinel pass over every market (deterministic order).
    pub fn poll_all(&self) -> Vec<Notice> {
        let mut ids: Vec<String> = self
            .markets
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids.iter().flat_map(|id| self.poll_market(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_market::Era;

    fn spec(era: Era) -> MarketSpec {
        MarketSpec {
            market: "m".into(),
            zones: 2,
            start: SimTime::ZERO,
            step: 300,
            era,
            bid: Price::from_millis(810),
            seed: 0,
        }
    }

    fn open(reg: &Registry, era: Era) {
        reg.open(spec(era)).unwrap();
    }

    fn feed_flat(reg: &Registry, rows: u64, millis: u64) {
        for i in 0..rows {
            reg.ingest(
                "m",
                SimTime::from_secs(i * 300),
                &[Price::from_millis(millis); 2],
            )
            .unwrap();
        }
    }

    #[test]
    fn ingest_enforces_alignment_and_zone_count() {
        let reg = Registry::new();
        open(&reg, Era::Classic);
        let p = [Price::from_millis(270); 2];
        assert_eq!(reg.ingest("m", SimTime::ZERO, &p), Ok(1));
        // Wrong zone count.
        assert!(reg.ingest("m", SimTime::from_secs(300), &p[..1]).is_err());
        // Gap (skipping a step).
        assert!(reg.ingest("m", SimTime::from_secs(600), &p).is_err());
        // Replay (timestamp already ingested).
        assert!(reg.ingest("m", SimTime::ZERO, &p).is_err());
        assert_eq!(reg.ingest("m", SimTime::from_secs(300), &p), Ok(2));
        assert!(reg.open(spec(Era::Classic)).is_err(), "duplicate open");
    }

    #[test]
    fn the_watermark_stops_at_the_horizon() {
        let reg = Registry::new();
        let p = [Price::from_millis(270); 2];
        // A start, or a step, that carries the first row past the horizon
        // is refused at `open`: the watermark would not fit.
        for (start, step) in [(u64::MAX, 300), (0, u64::MAX), (HORIZON.secs(), 300)] {
            let late = MarketSpec {
                start: SimTime::from_secs(start),
                step,
                ..spec(Era::Classic)
            };
            let e = reg.open(late).unwrap_err();
            assert!(e.contains("passes the horizon"), "{e}");
        }
        // Two rows fit exactly; a third would end past the horizon.
        let last = HORIZON.secs() - 300;
        reg.open(MarketSpec {
            start: SimTime::from_secs(last - 300),
            ..spec(Era::Classic)
        })
        .unwrap();
        assert_eq!(reg.ingest("m", SimTime::from_secs(last - 300), &p), Ok(1));
        assert_eq!(reg.ingest("m", SimTime::from_secs(last), &p), Ok(2));
        assert_eq!(reg.stats("m").unwrap().1, HORIZON);
        let e = reg.ingest("m", HORIZON, &p).unwrap_err();
        assert!(e.contains("past the horizon"), "{e}");
        assert_eq!(reg.stats("m").unwrap().0.rows, 2);
    }

    #[test]
    fn preload_ingests_a_whole_trace_and_serves_advice() {
        let traces = redspot_trace::gen::GenConfig::low_volatility(9).generate();
        let reg = Registry::new();
        let rows = reg
            .preload("pre", &traces, Era::Classic, Price::from_millis(810), 9)
            .unwrap();
        assert_eq!(rows, traces.zone(redspot_trace::ZoneId(0)).len() as u64);
        let (stats, _) = reg.stats("pre").unwrap();
        assert_eq!(stats.rows, rows);
        // The watermark sits one step past the last row, so advice at the
        // trace end works against the full preloaded history.
        let now = traces.end();
        let advice = reg
            .advise(
                "pre",
                now,
                SimDuration::from_hours(20),
                SimDuration::from_hours(23),
            )
            .unwrap();
        assert!(advice.bid_millis > 0);
        // Same market name twice is the usual duplicate-open error.
        let err = reg
            .preload("pre", &traces, Era::Classic, Price::from_millis(810), 9)
            .unwrap_err();
        assert!(err.contains("already open"), "{err}");
    }

    #[test]
    fn advise_goes_cold_after_ingest_and_warm_between() {
        let reg = Registry::new();
        open(&reg, Era::Classic);
        feed_flat(&reg, 12 * 30, 270);
        let now = SimTime::from_hours(25);
        let (rc, rt) = (SimDuration::from_hours(20), SimDuration::from_hours(23));
        let a = reg.advise("m", now, rc, rt).unwrap();
        let b = reg.advise("m", now, rc, rt).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.bid_millis, 270, "flat $0.27 market: bid the floor");
        assert!(!a.forecast_on_demand);
        let (stats, _) = reg.stats("m").unwrap();
        assert_eq!((stats.cold_builds, stats.warm_advises), (1, 1));
        // New data invalidates the seal: next advise is cold again.
        reg.ingest(
            "m",
            SimTime::from_secs(12 * 30 * 300),
            &[Price::from_millis(270); 2],
        )
        .unwrap();
        reg.advise("m", now, rc, rt).unwrap();
        let (stats, _) = reg.stats("m").unwrap();
        assert_eq!((stats.cold_builds, stats.warm_advises), (2, 1));
    }

    #[test]
    fn advise_before_data_or_history_errors() {
        let reg = Registry::new();
        open(&reg, Era::Classic);
        let (rc, rt) = (SimDuration::from_hours(20), SimDuration::from_hours(23));
        assert!(reg.advise("m", SimTime::from_hours(1), rc, rt).is_err());
        assert!(reg.advise("nope", SimTime::from_hours(1), rc, rt).is_err());
    }

    #[test]
    fn sentinel_classifies_by_era_and_is_edge_triggered() {
        for (era, class, lag) in [
            (Era::Classic, "out-of-bid", 0),
            (Era::Modern, "reclaim", 120),
        ] {
            let reg = Registry::new();
            open(&reg, era);
            feed_flat(&reg, 12 * 24, 270);
            assert!(reg.poll_all().is_empty(), "cheap market: no notices");
            // Zone 1 spikes over the 810 bid.
            let t = SimTime::from_secs(12 * 24 * 300);
            reg.ingest(
                "m",
                t,
                &[Price::from_millis(270), Price::from_millis(2_000)],
            )
            .unwrap();
            let notices = reg.poll_all();
            assert_eq!(notices.len(), 1);
            let n = &notices[0];
            assert_eq!((n.zone, n.class), (1, class));
            assert_eq!(n.terminate_at, t + SimDuration::from_secs(lag));
            let advice = n.advice.as_ref().expect("re-decision attached");
            assert!(!advice.zones.is_empty());
            // Same excursion, second poll: silent (edge-triggered).
            assert!(reg.poll_all().is_empty());
            // Price recovers, then spikes again: a fresh notice fires.
            reg.ingest(
                "m",
                t + SimDuration::from_secs(300),
                &[Price::from_millis(270); 2],
            )
            .unwrap();
            assert!(reg.poll_all().is_empty());
            reg.ingest(
                "m",
                t + SimDuration::from_secs(600),
                &[Price::from_millis(270), Price::from_millis(3_000)],
            )
            .unwrap();
            assert_eq!(reg.poll_all().len(), 1);
            let (stats, _) = reg.stats("m").unwrap();
            assert_eq!(stats.notices, 2);
        }
    }
}
