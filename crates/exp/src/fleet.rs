//! The fleet execution plane: N jobs against one shared capacity pool.
//!
//! [`crate::exec::RunRequest`] runs a batch of *independent* jobs — each
//! sees an infinitely deep market. A [`FleetRequest`] runs N jobs (mixed
//! deadlines, runtimes, checkpoint costs, policies) against one shared
//! [`MarketCtx`] *and* one shared [`CapacityPool`]: every job's control
//! plane is wrapped in a [`redspot_market::ContendedApi`], so
//! insufficient-capacity errors emerge from the fleet's own draining
//! instead of fault-plan coin flips, and each job's engine escalates
//! through the [`redspot_core::DegradePolicy`] ladder when the denials
//! persist.
//!
//! # Determinism
//!
//! * **Unbounded pool** — jobs cannot interact (the wrapper never
//!   rejects, never adds latency, never draws randomness), so they run
//!   on a parallel worker pool exactly like a batch, and results are
//!   bit-identical to running each job independently through
//!   [`run_spec`] at any thread count (pinned by
//!   `tests/fleet_properties.rs`).
//! * **Bounded pool** — jobs *do* interact through the pool, so the
//!   fleet is executed as a deterministic lock-step simulation: all
//!   engines are constructed up front and the engine with the smallest
//!   clock (ties broken by job index) is stepped next, putting every
//!   pool debit/credit in a single global time order that is
//!   independent of the requested thread count. A binary heap keyed by
//!   `(clock, job)` finds that engine in O(log n). No key goes stale:
//!   engines share the pool but never a clock, so stepping one engine
//!   moves only its own key, and that key is re-pushed after the step.
//!
//! The [`Scheme::Adaptive`] meta-policy drives its engine internally
//! and cannot be lock-step interleaved, so bounded fleets reject it
//! ([`FleetError::UnsupportedScheme`]); unbounded fleets accept every
//! scheme. [`Scheme::OnDemand`] never touches spot capacity and runs
//! directly in either mode.

use crate::scheme::{mix_seed, run_spec, RunSpec, Scheme};
use parking_lot::Mutex;
use redspot_core::policy::large_bid::LARGE_BID;
use redspot_core::policy::LargeBidPolicy;
use redspot_core::{
    ConfigError, Engine, ExperimentConfig, MarketCtx, MetricsRecorder, Policy, RunMetrics,
    RunResult,
};
use redspot_market::{
    ApiFaultPlan, CapacityPool, CloudApi, ContendedApi, DelayModel, FaultyApi, PerfectApi,
    PoolStats,
};
use redspot_trace::Price;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One member of a fleet: a label, a scheme, and its own full config
/// (deadline, workload, checkpoint costs, fault plans, ladder).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJob {
    /// Display label for tables and logs.
    pub name: String,
    /// The scheme to execute (start, bid, policy, zones).
    pub spec: RunSpec,
    /// The job's own experiment configuration.
    pub cfg: ExperimentConfig,
}

/// Why a fleet could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A job's configuration failed validation.
    Config {
        /// Index of the offending job.
        job: usize,
        /// The underlying configuration problem.
        source: ConfigError,
    },
    /// A job's scheme cannot run under a bounded pool (Adaptive drives
    /// its engine internally and cannot be lock-step interleaved).
    UnsupportedScheme {
        /// Index of the offending job.
        job: usize,
    },
    /// A job bids in a zone the bounded pool has no capacity entry for.
    PoolTooSmall {
        /// Index of the offending job.
        job: usize,
        /// The uncovered zone.
        zone: redspot_trace::ZoneId,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config { job, source } => write!(f, "fleet job {job}: {source}"),
            FleetError::UnsupportedScheme { job } => write!(
                f,
                "fleet job {job}: Adaptive cannot run under a bounded capacity pool"
            ),
            FleetError::PoolTooSmall { job, zone } => write!(
                f,
                "fleet job {job}: zone {zone} has no capacity entry in the pool"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Everything a finished fleet hands back.
#[derive(Debug)]
pub struct FleetOutcome {
    /// One result per job, in job order.
    pub results: Vec<RunResult>,
    /// Fleet-level metrics (order-independent merge across jobs), when
    /// the request was [`metered`](FleetRequest::metered).
    pub metrics: Option<RunMetrics>,
    /// The pool's lifetime counters after the fleet finished.
    pub pool: PoolStats,
    /// Capacity conservation: every debited unit was credited back
    /// (always true once a fleet completes; surfaced for invariants).
    pub pool_balanced: bool,
}

impl FleetOutcome {
    /// Jobs that missed their deadline (must be zero — Algorithm 1's
    /// guarantee holds per job under arbitrary contention).
    pub fn violations(&self) -> usize {
        self.results.iter().filter(|r| !r.met_deadline).count()
    }

    /// Fleet-wide total charge.
    pub fn total_cost(&self) -> Price {
        self.results
            .iter()
            .map(|r| r.cost)
            .fold(Price::ZERO, |a, b| a + b)
    }
}

/// Builder for one fleet execution.
#[derive(Debug)]
pub struct FleetRequest<'a> {
    mkt: &'a MarketCtx,
    jobs: &'a [FleetJob],
    pool: Arc<CapacityPool>,
    threads: usize,
    metered: bool,
}

impl<'a> FleetRequest<'a> {
    /// A fleet of `jobs` against `mkt`'s market, contending for `pool`.
    /// Defaults: one worker per CPU (unbounded pools only), no metrics.
    pub fn new(mkt: &'a MarketCtx, jobs: &'a [FleetJob], pool: Arc<CapacityPool>) -> Self {
        FleetRequest {
            mkt,
            jobs,
            pool,
            threads: 0,
            metered: false,
        }
    }

    /// Worker threads for the unbounded-pool path; `0` (the default)
    /// means one per available CPU. A bounded pool always runs the
    /// deterministic lock-step path regardless of this setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Run every job with a [`MetricsRecorder`] sink and merge the
    /// per-job metrics into [`FleetOutcome::metrics`].
    pub fn metered(mut self, metered: bool) -> Self {
        self.metered = metered;
        self
    }

    /// Execute the fleet. Every job's config is validated up front, and
    /// bounded pools reject [`Scheme::Adaptive`] before anything runs.
    pub fn execute(self) -> Result<FleetOutcome, FleetError> {
        for (i, job) in self.jobs.iter().enumerate() {
            job.cfg
                .validate()
                .map_err(|source| FleetError::Config { job: i, source })?;
            if self.pool.is_unbounded() {
                continue;
            }
            if matches!(job.spec.scheme, Scheme::Adaptive) {
                return Err(FleetError::UnsupportedScheme { job: i });
            }
            // The pool panics on zones it has no entry for; reject the
            // fleet up front instead.
            let zones: &[redspot_trace::ZoneId] = match &job.spec.scheme {
                Scheme::Single { zone, .. } | Scheme::LargeBid { zone, .. } => {
                    std::slice::from_ref(zone)
                }
                Scheme::Redundant { zones, .. } => zones,
                Scheme::Adaptive | Scheme::OnDemand => &[],
            };
            if let Some(&zone) = zones.iter().find(|z| z.0 >= self.pool.n_zones()) {
                return Err(FleetError::PoolTooSmall { job: i, zone });
            }
        }
        let pairs = if self.pool.is_unbounded() {
            self.run_parallel()
        } else {
            self.run_lockstep()
        };
        Ok(self.outcome(pairs))
    }

    /// Collect per-job `(result, metrics)` pairs, in job order, and the
    /// pool's final counters into the fleet's outcome.
    fn outcome(&self, pairs: Vec<(RunResult, RunMetrics)>) -> FleetOutcome {
        let mut metrics = self.metered.then(RunMetrics::default);
        let mut results = Vec::with_capacity(pairs.len());
        for (r, m) in pairs {
            if let Some(agg) = metrics.as_mut() {
                agg.merge(&m);
            }
            results.push(r);
        }
        FleetOutcome {
            results,
            metrics,
            pool: self.pool.stats(),
            pool_balanced: self.pool.fully_released(),
        }
    }

    /// Unbounded pools: jobs cannot interact, so run them like a batch.
    /// The wrapper still sits in the call path — that inertness is
    /// exactly what the bit-identity property pins.
    fn run_parallel(&self) -> Vec<(RunResult, RunMetrics)> {
        let n = self.jobs.len();
        let threads = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
            t => t,
        };
        let job = |i: usize| -> (RunResult, RunMetrics) {
            let j = &self.jobs[i];
            match j.spec.scheme {
                // Adaptive drives its own engine; OnDemand has no spot
                // requests to contend. Both bypass the wrapper.
                Scheme::Adaptive | Scheme::OnDemand => {
                    run_spec(self.mkt, &j.spec, &j.cfg, MetricsRecorder::new())
                }
                _ => run_contended(self.mkt, j, Arc::clone(&self.pool)),
            }
        };
        if threads == 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(RunResult, RunMetrics)>>> =
            self.jobs.iter().map(|_| Mutex::new(None)).collect();
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                scope.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock() = Some(job(i));
                });
            }
        })
        .expect("fleet worker panicked");
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every slot filled"))
            .collect()
    }

    /// Bounded pools: construct every engine up front and always step
    /// the one with the smallest clock (ties broken by job index), so
    /// all pool interactions happen in one global time order.
    ///
    /// The live engines sit in a min-heap keyed by `(now, job)`. Only
    /// the popped engine steps, and a step moves no other engine's
    /// clock (engines share the pool, not time), so every key left in
    /// the heap is current and the pop order is exactly the order a
    /// scan for the minimum over all live engines would give.
    fn run_lockstep(&self) -> Vec<(RunResult, RunMetrics)> {
        let n = self.jobs.len();
        let mut out: Vec<Option<(RunResult, RunMetrics)>> = (0..n).map(|_| None).collect();
        // OnDemand jobs never touch the pool; run them directly.
        let mut engines: Vec<Option<Engine<MetricsRecorder>>> = (0..n).map(|_| None).collect();
        let mut queue = BinaryHeap::new();
        for (i, j) in self.jobs.iter().enumerate() {
            if matches!(j.spec.scheme, Scheme::OnDemand) {
                out[i] = Some(run_spec(self.mkt, &j.spec, &j.cfg, MetricsRecorder::new()));
            } else {
                let engine = contended_engine(self.mkt, j, Arc::clone(&self.pool));
                queue.push(Reverse((engine.now(), i)));
                engines[i] = Some(engine);
            }
        }
        // The same fuel bound `Engine::run` uses, pooled across jobs.
        let mut fuel = 50_000_000u64.saturating_mul(queue.len().max(1) as u64);
        while let Some(Reverse((_, job))) = queue.pop() {
            let slot = &mut engines[job];
            let engine = slot.as_mut().expect("queued engines are live");
            if engine.step().done {
                out[job] = slot.take().map(Engine::run_full);
            } else {
                queue.push(Reverse((engine.now(), job)));
            }
            fuel -= 1;
            assert!(fuel > 0, "fleet exceeded its step budget");
        }
        out.into_iter()
            .map(|slot| slot.expect("every job finished"))
            .collect()
    }
}

/// Build the contended engine for one engine-backed job, mirroring
/// [`run_spec`]'s config derivation exactly (bid, mixed seed, zones,
/// policy, uptime memo) so an unbounded fleet is bit-identical to the
/// independent path.
fn contended_engine(
    mkt: &MarketCtx,
    job: &FleetJob,
    pool: Arc<CapacityPool>,
) -> Engine<MetricsRecorder> {
    let traces = mkt.handle();
    let spec = &job.spec;
    let mut cfg = job.cfg.clone();
    cfg.bid = spec.bid;
    cfg.seed = mix_seed(job.cfg.seed, spec);
    let build = |kind: &redspot_core::PolicyKind| -> Box<dyn Policy> {
        let mut policy = kind.build();
        if let Some(memo) = mkt.uptime_memo() {
            policy.attach_uptime_memo(memo);
        }
        policy
    };
    let policy: Box<dyn Policy> = match &spec.scheme {
        Scheme::Single { kind, zone } => {
            cfg.zones = vec![*zone];
            build(kind)
        }
        Scheme::Redundant { kind, zones } => {
            cfg.zones = zones.clone();
            build(kind)
        }
        Scheme::LargeBid { threshold, zone } => {
            cfg.zones = vec![*zone];
            cfg.bid = LARGE_BID;
            match threshold {
                Some(l) => Box::new(LargeBidPolicy::new(*l)),
                None => Box::new(LargeBidPolicy::naive()),
            }
        }
        Scheme::Adaptive | Scheme::OnDemand => {
            unreachable!("non-engine schemes never reach contended_engine")
        }
    };
    // The same stack `Engine::try_with_parts` builds, wrapped in the
    // capacity decorator: Contended → Faulty? → Perfect.
    let inner: Box<dyn CloudApi + Send> = if cfg.api.is_none() {
        Box::new(PerfectApi::new(traces.clone()))
    } else {
        Box::new(FaultyApi::new(
            PerfectApi::new(traces.clone()),
            cfg.api,
            ApiFaultPlan::rng_seed(cfg.seed),
        ))
    };
    let api: Box<dyn CloudApi + Send> = Box::new(ContendedApi::new(inner, pool));
    Engine::try_with_api(
        traces.clone(),
        spec.start,
        cfg,
        policy,
        DelayModel::paper(),
        MetricsRecorder::new(),
        api,
    )
    .expect("fleet job validated before execution")
}

/// Run one engine-backed job through the contended stack to completion.
fn run_contended(
    mkt: &MarketCtx,
    job: &FleetJob,
    pool: Arc<CapacityPool>,
) -> (RunResult, RunMetrics) {
    contended_engine(mkt, job, pool).run_full()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::chaos_fleet::fleet_mix;
    use proptest::prelude::*;
    use redspot_core::{DegradePolicy, Era, NullRecorder, PolicyKind};
    use redspot_trace::gen::GenConfig;
    use redspot_trace::{PriceSeries, SimTime, TraceSet, ZoneId};

    fn flat3(price: u64, hours: u64) -> TraceSet {
        let samples = vec![Price::from_millis(price); (hours * 12) as usize];
        TraceSet::new(
            (0..3)
                .map(|_| PriceSeries::new(SimTime::ZERO, samples.clone()))
                .collect(),
        )
    }

    fn job(i: usize, scheme: Scheme) -> FleetJob {
        let cfg = ExperimentConfig::paper_default()
            .with_seed(i as u64)
            .with_degrade(DegradePolicy::standard());
        FleetJob {
            name: format!("job-{i}"),
            spec: RunSpec {
                start: SimTime::from_hours(40 + 2 * i as u64),
                bid: Price::from_millis(810),
                scheme,
            },
            cfg,
        }
    }

    fn mixed_fleet(n: usize) -> Vec<FleetJob> {
        (0..n)
            .map(|i| {
                job(
                    i,
                    match i % 3 {
                        0 => Scheme::Single {
                            kind: PolicyKind::Periodic,
                            zone: ZoneId(i % 3),
                        },
                        1 => Scheme::Redundant {
                            kind: PolicyKind::MarkovDaly,
                            zones: vec![ZoneId(0), ZoneId(1), ZoneId(2)],
                        },
                        _ => Scheme::OnDemand,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn unbounded_fleet_matches_independent_runs() {
        let mkt = MarketCtx::for_sweep(flat3(270, 120));
        let jobs = mixed_fleet(6);
        let fleet = FleetRequest::new(&mkt, &jobs, Arc::new(CapacityPool::unbounded()))
            .threads(2)
            .execute()
            .unwrap();
        assert_eq!(fleet.violations(), 0);
        for (j, got) in jobs.iter().zip(&fleet.results) {
            let want = run_spec(&mkt, &j.spec, &j.cfg, NullRecorder).0;
            assert_eq!(got, &want, "{} diverged from independent run", j.name);
        }
        assert_eq!(fleet.pool, PoolStats::default());
        assert!(fleet.pool_balanced);
    }

    #[test]
    fn bounded_fleet_meets_deadlines_and_conserves_capacity() {
        let mkt = MarketCtx::for_sweep(flat3(270, 200));
        let jobs = mixed_fleet(5);
        let pool = Arc::new(CapacityPool::uniform(3, 1));
        let fleet = FleetRequest::new(&mkt, &jobs, Arc::clone(&pool))
            .metered(true)
            .execute()
            .unwrap();
        assert_eq!(fleet.violations(), 0, "deadline guarantee broke");
        assert!(fleet.pool_balanced, "capacity leaked");
        let s = fleet.pool;
        assert_eq!(s.debits, s.credits, "unbalanced pool counters");
        let m = fleet.metrics.expect("metered");
        assert_eq!(m.runs, 5);
    }

    #[test]
    fn zero_capacity_forces_the_full_ladder_to_on_demand() {
        let mkt = MarketCtx::new(flat3(270, 120));
        let jobs = vec![job(
            0,
            Scheme::Redundant {
                kind: PolicyKind::Periodic,
                zones: vec![ZoneId(0), ZoneId(1), ZoneId(2)],
            },
        )];
        let pool = Arc::new(CapacityPool::uniform(3, 0));
        let fleet = FleetRequest::new(&mkt, &jobs, Arc::clone(&pool))
            .metered(true)
            .execute()
            .unwrap();
        let r = &fleet.results[0];
        assert!(r.met_deadline, "ladder must preserve the guarantee");
        assert!(r.used_on_demand, "no capacity anywhere → must spill");
        let m = fleet.metrics.expect("metered");
        assert!(m.zones_shed > 0, "rung 1 never fired");
        assert!(m.capacity_spills > 0, "rung 3 never fired");
        assert!(fleet.pool_balanced);
        assert_eq!(pool.stats().debits, 0, "nothing could ever be acquired");
    }

    #[test]
    fn bounded_pool_rejects_adaptive() {
        let mkt = MarketCtx::new(flat3(270, 120));
        let jobs = vec![job(0, Scheme::Adaptive)];
        let err = FleetRequest::new(&mkt, &jobs, Arc::new(CapacityPool::uniform(3, 1)))
            .execute()
            .unwrap_err();
        assert_eq!(err, FleetError::UnsupportedScheme { job: 0 });
        assert!(err.to_string().contains("Adaptive"));
        // Unbounded pools accept it.
        assert!(
            FleetRequest::new(&mkt, &jobs, Arc::new(CapacityPool::unbounded()))
                .execute()
                .is_ok()
        );
    }

    #[test]
    fn invalid_job_config_fails_upfront() {
        let mkt = MarketCtx::new(flat3(270, 120));
        let mut bad = job(0, Scheme::OnDemand);
        bad.cfg.zones.clear();
        let err = FleetRequest::new(
            &mkt,
            std::slice::from_ref(&bad),
            Arc::new(CapacityPool::unbounded()),
        )
        .execute()
        .unwrap_err();
        assert!(matches!(
            err,
            FleetError::Config {
                job: 0,
                source: ConfigError::NoZones
            }
        ));
    }

    /// The lock-step loop the heap replaced, kept as the oracle for its
    /// order: a linear `min_by_key` scan over the live engines for the
    /// smallest `(now, job)`, and `Vec::remove` to retire a finished one.
    fn linear_scan_lockstep(req: &FleetRequest) -> FleetOutcome {
        let n = req.jobs.len();
        let mut out: Vec<Option<(RunResult, RunMetrics)>> = (0..n).map(|_| None).collect();
        let mut engines: Vec<(usize, Engine<MetricsRecorder>)> = Vec::new();
        for (i, j) in req.jobs.iter().enumerate() {
            if matches!(j.spec.scheme, Scheme::OnDemand) {
                out[i] = Some(run_spec(req.mkt, &j.spec, &j.cfg, MetricsRecorder::new()));
            } else {
                engines.push((i, contended_engine(req.mkt, j, Arc::clone(&req.pool))));
            }
        }
        while !engines.is_empty() {
            let next = engines
                .iter()
                .enumerate()
                .min_by_key(|(_, (job, e))| (e.now(), *job))
                .map(|(k, _)| k)
                .expect("non-empty engine list");
            if engines[next].1.step().done {
                let (job, engine) = engines.remove(next);
                out[job] = Some(engine.run_full());
            }
        }
        req.outcome(out.into_iter().map(|slot| slot.unwrap()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The heap pops engines in exactly the order the linear scan
        /// picks them, so pool traffic, results and metrics agree bit
        /// for bit on contended mixed fleets under both eras.
        #[test]
        fn heap_lockstep_matches_the_linear_scan(
            month in 0u64..1_000,
            n_jobs in 2usize..=48,
            capacity in 0u64..=3,
            intensity in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
            era in prop_oneof![Just(Era::Classic), Just(Era::Modern)],
        ) {
            let mkt = MarketCtx::new(GenConfig::high_volatility(month).generate());
            let jobs = fleet_mix(&mkt, month, intensity, n_jobs, era);
            let request = || {
                FleetRequest::new(&mkt, &jobs, Arc::new(CapacityPool::uniform(3, capacity)))
                    .metered(true)
            };
            let heap = request().execute().unwrap();
            let scan = linear_scan_lockstep(&request());
            prop_assert_eq!(heap.results, scan.results);
            prop_assert_eq!(heap.pool, scan.pool);
            prop_assert_eq!(heap.pool_balanced, scan.pool_balanced);
            prop_assert_eq!(heap.metrics, scan.metrics);
        }
    }
}
