//! The engine's control surface: read accessors and the mutators the
//! adaptive controller (and interactive drivers) use at decision points.

use super::{Engine, Phase};
use crate::config::ExperimentConfig;
use crate::policy::Policy;
use crate::run::Event;
use crate::telemetry::Recorder;
use redspot_market::InstanceState;
use redspot_trace::{Price, SimDuration, SimTime};

impl<R: Recorder> Engine<R> {
    // ------------------------------------------------------------------
    // Public accessors (used by the adaptive controller and tests).

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Experiment start.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Absolute deadline.
    pub fn deadline_abs(&self) -> SimTime {
        self.deadline_abs
    }

    /// Committed (durable) progress.
    pub fn committed(&self) -> SimDuration {
        self.replicas.committed()
    }

    /// Furthest live replica position (capturable progress).
    pub fn best_position(&self) -> SimDuration {
        self.replicas.best_position()
    }

    /// Spot charges so far.
    pub fn spot_cost(&self) -> Price {
        self.spot_cost
    }

    /// On-demand charges so far.
    pub fn od_cost(&self) -> Price {
        self.od_cost
    }

    /// Whether the run has finished.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Whether execution has migrated to on-demand.
    pub fn on_demand(&self) -> bool {
        matches!(self.phase, Phase::OnDemand(_))
    }

    /// The bid applied to *future* spot requests.
    pub fn bid(&self) -> Price {
        self.cfg.bid
    }

    /// Instance state of configured zone `idx`.
    pub fn zone_state(&self, idx: usize) -> InstanceState {
        self.zones[idx].inst
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    /// Read access to the telemetry sink (tests, drivers).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    // ------------------------------------------------------------------
    // Adaptive mutators.

    /// Swap the checkpoint policy (takes effect immediately).
    pub fn set_policy(&mut self, policy: Box<dyn Policy>) {
        self.policy = policy;
        if self.phase == Phase::Spot {
            self.with_ctx(|policy, ctx| policy.reschedule(ctx));
        }
    }

    /// Change the bid for future spot requests. Running instances keep the
    /// bid they were requested with (EC2 spot requests are fixed-bid).
    pub fn set_bid(&mut self, bid: Price) {
        self.cfg.bid = bid;
    }

    /// Activate or deactivate configured zone `idx`. Deactivating a
    /// billable zone retires it at its next hour boundary (no partial-hour
    /// waste); deactivating a waiting zone is immediate.
    pub fn set_active(&mut self, idx: usize, active: bool) {
        let z = &mut self.zones[idx];
        z.active = active;
        if !active {
            match z.inst {
                InstanceState::Waiting | InstanceState::Down => {
                    z.inst = InstanceState::Down;
                }
                InstanceState::Booting { .. } | InstanceState::Up => {
                    z.retire = true;
                }
            }
        } else {
            z.retire = false;
        }
    }

    /// Record an adaptive-controller switch in the event log.
    pub fn note_adaptive_switch(&mut self, to: String) {
        let at = self.now;
        self.record(Event::AdaptiveSwitch { at, to });
    }

    /// Change the deadline at runtime (Section 3.2: the algorithm
    /// continuously monitors `T_r`, so the user may move `D` while the
    /// application runs). Returns `false` when the new deadline is no
    /// longer guaranteed — i.e. it lies before the time needed to
    /// checkpoint, migrate, and finish the remaining committed work — in
    /// which case the engine still adopts it and immediately does its
    /// best (the guard fires at the next step).
    pub fn set_deadline(&mut self, deadline_abs: SimTime) -> bool {
        self.deadline_abs = deadline_abs;
        let needed = self.replicas.remaining_committed()
            + self.cfg.costs.migration()
            + self.supervisor.od_reserve();
        let feasible = deadline_abs >= self.now + needed;
        let at = self.now;
        self.record(Event::DeadlineChanged {
            at,
            deadline: deadline_abs,
            feasible,
        });
        feasible
    }
}
