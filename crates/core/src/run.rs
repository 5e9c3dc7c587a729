//! Run results and event telemetry.

use redspot_market::ApiError;
use redspot_trace::{Price, SimDuration, SimTime, ZoneId};
use serde::{Deserialize, Serialize};

/// Why an instance stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TerminationCause {
    /// Spot price exceeded the instance's bid (EC2-initiated).
    OutOfBid,
    /// The scheduler stopped it (retire, migration, completion).
    Voluntary,
}

/// One entry in a run's event log — enough to reconstruct the Figure-1 /
/// Figure-3 style mechanics diagrams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A spot request was submitted for `zone` at bid `bid`.
    Requested {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Bid attached to the request.
        bid: Price,
    },
    /// The instance finished booting and its replica started executing.
    Started {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Replica position it resumed from.
        from: SimDuration,
    },
    /// A zone entered the waiting state (affordable, deliberately idle).
    Waiting {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
    },
    /// An instance stopped.
    Terminated {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Why.
        cause: TerminationCause,
        /// Charge finalized for the run that just ended.
        charged: Price,
    },
    /// A checkpoint began on the leading zone.
    CheckpointStarted {
        /// When.
        at: SimTime,
        /// Zone writing the checkpoint.
        zone: ZoneId,
        /// Application position being saved.
        position: SimDuration,
    },
    /// The checkpoint committed.
    CheckpointCommitted {
        /// When.
        at: SimTime,
        /// Durable progress after the commit.
        position: SimDuration,
    },
    /// A checkpoint was aborted (the writing zone was terminated).
    CheckpointAborted {
        /// When.
        at: SimTime,
        /// Zone that was writing it.
        zone: ZoneId,
    },
    /// The deadline guard fired: execution migrated to on-demand.
    SwitchedToOnDemand {
        /// When.
        at: SimTime,
        /// Committed progress at the switch.
        committed: SimDuration,
    },
    /// A full billing hour was charged on a spot instance.
    HourCharged {
        /// Boundary instant.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Rate fixed at the start of the charged hour.
        rate: Price,
    },
    /// The provider announced it will reclaim a spot instance (modern
    /// era): the zone has until `terminate_at` to checkpoint and drain.
    InterruptionNotice {
        /// When the notice arrived.
        at: SimTime,
        /// Zone being reclaimed.
        zone: ZoneId,
        /// Instant the instance will be terminated.
        terminate_at: SimTime,
    },
    /// The user moved the deadline at runtime (Section 3.2).
    DeadlineChanged {
        /// When.
        at: SimTime,
        /// New absolute deadline.
        deadline: SimTime,
        /// Whether the guarantee still holds for the new deadline.
        feasible: bool,
    },
    /// The adaptive controller switched configuration.
    AdaptiveSwitch {
        /// When.
        at: SimTime,
        /// Human-readable description of the new permutation.
        to: String,
    },
    /// An in-flight checkpoint completed but failed to commit (injected
    /// write failure): the run continues on the previous generation.
    CheckpointWriteFailed {
        /// When.
        at: SimTime,
        /// Zone that was writing it.
        zone: ZoneId,
    },
    /// A restarting replica found the newest checkpoint generation corrupt
    /// and fell back to an older one (injected restore corruption).
    RestoreFailed {
        /// When.
        at: SimTime,
        /// Zone attempting the restore.
        zone: ZoneId,
        /// Position of the generation the restore fell back to.
        fell_back_to: SimDuration,
    },
    /// A booting instance failed to come up (injected boot failure /
    /// insufficient capacity); the engine retries with bounded backoff.
    BootFailed {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Earliest instant a new request will be submitted.
        retry_at: SimTime,
    },
    /// The zone went dark (injected blackout): any instance there was
    /// force-terminated and requests fail until the blackout lifts.
    ZoneBlackout {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Instant the zone comes back.
        until: SimTime,
    },
    /// A spot request failed at the control plane (timeout, throttle,
    /// insufficient capacity) or was refused by the supervisor (zone
    /// quarantined, retry budget exhausted); the zone stays down until
    /// `retry_at`.
    SpotRequestFailed {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// The API error, if the call was actually made (`None` when the
        /// supervisor refused without calling).
        error: Option<ApiError>,
        /// Earliest instant the supervisor will retry the zone.
        retry_at: SimTime,
    },
    /// A terminate call needed control-plane retries; the instance kept
    /// billing for `lag` past the scheduler's decision.
    TerminateLagged {
        /// When the scheduler decided to stop the instance.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Extra billed wall-clock until the terminate stuck.
        lag: SimDuration,
    },
    /// A price read failed; policies ran on the last known price, `age`
    /// old at decision time.
    StalePriceUsed {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Staleness window of the price actually used.
        age: SimDuration,
    },
    /// A zone's circuit breaker tripped after consecutive control-plane
    /// failures: no requests go there until `until`, then one probe.
    ZoneQuarantined {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
        /// Quarantine end (half-open probe time).
        until: SimTime,
    },
    /// A quarantined zone's half-open probe succeeded: the breaker
    /// closed and the zone is eligible for requests again.
    ZoneBreakerClosed {
        /// When.
        at: SimTime,
        /// Which zone.
        zone: ZoneId,
    },
    /// The on-demand migration path itself needed retries; the switch
    /// was delayed by `delay` (bounded by the guard's reserve).
    OnDemandDelayed {
        /// When the migration was initiated.
        at: SimTime,
        /// Control-plane delay before the on-demand instance was granted.
        delay: SimDuration,
    },
    /// Graceful-degradation rung 1: a zone was dropped from the
    /// redundant set after persistent capacity denials (the fleet keeps
    /// it drained; stop burning retry budget there).
    ZoneShed {
        /// When.
        at: SimTime,
        /// Which zone was shed.
        zone: ZoneId,
        /// Active zones remaining after the shed.
        remaining: usize,
    },
    /// Graceful-degradation rung 2: admission control deferred the job's
    /// (re)start — no replica has run yet and every request is hitting a
    /// capacity wall, so back off further while guard slack allows.
    StartDeferred {
        /// When.
        at: SimTime,
        /// Zone whose denial triggered the deferral.
        zone: ZoneId,
        /// No new requests before this instant (always ≤ guard time).
        until: SimTime,
        /// How many deferrals this run has taken, counting this one.
        deferral: u32,
    },
    /// Graceful-degradation rung 3: the last usable zone stayed drained,
    /// so the job spilled to on-demand ahead of the deadline guard
    /// (always followed by [`Event::SwitchedToOnDemand`]).
    CapacitySpill {
        /// When.
        at: SimTime,
        /// Zone whose denial triggered the spill.
        zone: ZoneId,
        /// Consecutive capacity denials the zone had accumulated.
        denials: u32,
    },
    /// The application completed.
    Completed {
        /// When.
        at: SimTime,
    },
}

impl Event {
    /// The instant the event occurred.
    pub fn at(&self) -> SimTime {
        match self {
            Event::Requested { at, .. }
            | Event::Started { at, .. }
            | Event::Waiting { at, .. }
            | Event::Terminated { at, .. }
            | Event::CheckpointStarted { at, .. }
            | Event::CheckpointCommitted { at, .. }
            | Event::CheckpointAborted { at, .. }
            | Event::SwitchedToOnDemand { at, .. }
            | Event::HourCharged { at, .. }
            | Event::InterruptionNotice { at, .. }
            | Event::DeadlineChanged { at, .. }
            | Event::AdaptiveSwitch { at, .. }
            | Event::CheckpointWriteFailed { at, .. }
            | Event::RestoreFailed { at, .. }
            | Event::BootFailed { at, .. }
            | Event::ZoneBlackout { at, .. }
            | Event::SpotRequestFailed { at, .. }
            | Event::TerminateLagged { at, .. }
            | Event::StalePriceUsed { at, .. }
            | Event::ZoneQuarantined { at, .. }
            | Event::ZoneBreakerClosed { at, .. }
            | Event::OnDemandDelayed { at, .. }
            | Event::ZoneShed { at, .. }
            | Event::StartDeferred { at, .. }
            | Event::CapacitySpill { at, .. }
            | Event::Completed { at } => *at,
        }
    }
}

/// Control-plane health counters accumulated by the supervisor over one
/// run. All zero when the API fault plan is disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ApiStats {
    /// Spot requests that failed at the API and were retried later.
    pub spot_retries: u64,
    /// Circuit-breaker trips (a zone quarantined after consecutive
    /// control-plane failures).
    pub breaker_trips: u64,
    /// Price reads that failed (policies ran on the last known price).
    pub stale_price_reads: u64,
    /// Failed terminate calls (each adds billed lag).
    pub terminate_retries: u64,
    /// Total billed lag accumulated by terminate retries, in seconds.
    pub terminate_lag_secs: u64,
    /// Failed on-demand requests on the migration path.
    pub od_retries: u64,
}

/// Outcome of one simulated experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Total charge: spot + on-demand.
    pub cost: Price,
    /// Spot-market portion of the cost.
    pub spot_cost: Price,
    /// On-demand portion of the cost.
    pub od_cost: Price,
    /// I/O-server portion of the cost (zero unless the experiment enables
    /// `io_server` accounting).
    #[serde(default)]
    pub io_cost: Price,
    /// Absolute completion time.
    pub finished_at: SimTime,
    /// Whether the run completed by the deadline (must always be true —
    /// Algorithm 1 guarantees it; surfaced for property tests).
    pub met_deadline: bool,
    /// Number of committed checkpoints.
    pub checkpoints: u32,
    /// Number of replica (re)starts.
    pub restarts: u32,
    /// Number of out-of-bid terminations suffered.
    pub out_of_bid_terminations: u32,
    /// Whether the run ended on the on-demand market.
    pub used_on_demand: bool,
    /// Control-plane health counters (all zero without API faults).
    #[serde(default)]
    pub api: ApiStats,
    /// Event log, as retained by the engine's telemetry sink (empty
    /// when the run used a non-retaining sink such as `NullRecorder`).
    pub events: Vec<Event>,
}

impl RunResult {
    /// Cost in dollars (reporting).
    pub fn cost_dollars(&self) -> f64 {
        self.cost.as_dollars()
    }

    /// Makespan from an experiment start time.
    pub fn makespan(&self, start: SimTime) -> SimDuration {
        self.finished_at.since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_times_are_accessible() {
        let e = Event::Completed {
            at: SimTime::from_secs(42),
        };
        assert_eq!(e.at(), SimTime::from_secs(42));
        let e = Event::Requested {
            at: SimTime::from_secs(7),
            zone: ZoneId(1),
            bid: Price::from_dollars(0.81),
        };
        assert_eq!(e.at(), SimTime::from_secs(7));
    }

    #[test]
    fn result_helpers() {
        let r = RunResult {
            cost: Price::from_dollars(12.0),
            spot_cost: Price::from_dollars(10.0),
            od_cost: Price::from_dollars(2.0),
            io_cost: Price::ZERO,
            finished_at: SimTime::from_hours(25),
            met_deadline: true,
            checkpoints: 3,
            restarts: 2,
            out_of_bid_terminations: 1,
            used_on_demand: true,
            api: ApiStats::default(),
            events: vec![],
        };
        assert!((r.cost_dollars() - 12.0).abs() < 1e-12);
        assert_eq!(
            r.makespan(SimTime::from_hours(1)),
            SimDuration::from_hours(24)
        );
    }
}
