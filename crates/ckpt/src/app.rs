//! Analytic application model.
//!
//! The paper abstracts the MPI application as a fixed amount of
//! uninterrupted compute time `C` (20 hours in all experiments) whose
//! progress `P` is observable through an `MPI_Pcontrol`-style interface.
//! With redundancy, each zone runs a *full replica* of the application;
//! replicas started from the same checkpoint at different times sit at
//! different positions, and global progress is the furthest position of
//! any live replica. Only checkpoints make progress durable: when every
//! replica dies, execution rolls back to the last committed checkpoint.

use crate::store::GenerationStore;
use redspot_trace::SimDuration;
use serde::{Deserialize, Serialize};

/// Static description of the application workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AppSpec {
    /// Total uninterrupted compute time `C`.
    pub work: SimDuration,
    /// Iteration length for iterative MPI applications. Progress is
    /// reported through an `MPI_Pcontrol`-style hook at iteration
    /// completion, so checkpoints can only capture whole iterations.
    /// `None` models continuously-checkpointable progress (the paper's
    /// simulation default).
    #[serde(default)]
    pub iteration: Option<SimDuration>,
}

impl AppSpec {
    /// The paper's standard workload: 20 hours of compute.
    pub const PAPER: AppSpec = AppSpec {
        work: SimDuration::from_hours(20),
        iteration: None,
    };

    /// Construct from a work requirement.
    pub const fn new(work: SimDuration) -> AppSpec {
        AppSpec {
            work,
            iteration: None,
        }
    }

    /// Make the workload iterative: progress is only observable (and
    /// checkpointable) at multiples of `iteration`.
    ///
    /// # Panics
    /// Panics if the iteration length is zero.
    pub fn with_iteration(mut self, iteration: SimDuration) -> AppSpec {
        assert!(
            iteration > SimDuration::ZERO,
            "iteration length must be positive"
        );
        self.iteration = Some(iteration);
        self
    }

    /// The furthest *checkpointable* position at or below `position`:
    /// `position` itself for continuous progress, else the last completed
    /// iteration boundary (the final position `work` is always
    /// checkpointable — the application has finished).
    pub fn checkpointable(&self, position: SimDuration) -> SimDuration {
        match self.iteration {
            None => position,
            Some(_) if position >= self.work => self.work,
            Some(it) => SimDuration::from_secs(position.secs() / it.secs() * it.secs()),
        }
    }
}

/// Positions of up to `n` application replicas plus the committed
/// checkpoint history. Replica `i` corresponds to zone `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaSet {
    spec: AppSpec,
    /// `Some(position)` while the replica is executing, `None` otherwise.
    positions: Vec<Option<SimDuration>>,
    /// Committed checkpoint generations (see [`GenerationStore`]).
    #[serde(default)]
    store: GenerationStore,
}

impl ReplicaSet {
    /// A fresh application: no replicas running, nothing committed.
    ///
    /// # Panics
    /// Panics if `n_zones` is zero.
    pub fn new(spec: AppSpec, n_zones: usize) -> ReplicaSet {
        assert!(n_zones > 0, "need at least one replica slot");
        ReplicaSet {
            spec,
            positions: vec![None; n_zones],
            store: GenerationStore::new(),
        }
    }

    /// The workload description.
    pub fn spec(&self) -> AppSpec {
        self.spec
    }

    /// Durable progress `P`: the newest *valid* committed checkpoint
    /// position. Restores that discover corruption fall back to older
    /// generations, so this can move backwards across a
    /// [`Self::invalidate_newest_checkpoint`] call (never across a commit).
    pub fn committed(&self) -> SimDuration {
        self.store.newest_valid()
    }

    /// Furthest position ever committed — what the reliable I/O-server
    /// path restores during an on-demand migration. Monotone; always at
    /// least [`Self::committed`].
    pub fn reliable(&self) -> SimDuration {
        self.store.reliable()
    }

    /// Remaining compute `C_r` measured from *committed* progress — the
    /// conservative value Algorithm 1 uses for its deadline guard (an
    /// uncommitted replica position can still be lost).
    pub fn remaining_committed(&self) -> SimDuration {
        self.spec.work - self.committed()
    }

    /// Remaining compute measured from the furthest live replica (used for
    /// optimistic forecasting); equals [`Self::remaining_committed`] when
    /// nothing is running.
    pub fn remaining_best(&self) -> SimDuration {
        self.spec.work - self.best_position()
    }

    /// The furthest position among live replicas, or the committed
    /// checkpoint when none are running.
    pub fn best_position(&self) -> SimDuration {
        self.positions
            .iter()
            .flatten()
            .copied()
            .chain(std::iter::once(self.committed()))
            .max()
            .expect("chain is non-empty")
    }

    /// Position of one replica, if it is executing.
    pub fn position(&self, slot: usize) -> Option<SimDuration> {
        self.positions[slot]
    }

    /// Whether any replica is executing.
    pub fn any_running(&self) -> bool {
        self.positions.iter().any(Option::is_some)
    }

    /// Whether the committed position covers all work.
    pub fn complete(&self) -> bool {
        self.committed() >= self.spec.work
    }

    /// Begin executing a replica from `from` (usually the committed
    /// checkpoint). Idempotent restarts from earlier positions are allowed;
    /// positions past the total work are clamped.
    ///
    /// # Panics
    /// Panics if the slot is already running.
    pub fn start(&mut self, slot: usize, from: SimDuration) {
        assert!(
            self.positions[slot].is_none(),
            "replica {slot} already running"
        );
        self.positions[slot] = Some(from.min(self.spec.work));
    }

    /// Stop a replica (zone terminated); its speculative progress is lost.
    /// Stopping an idle slot is a no-op.
    pub fn stop(&mut self, slot: usize) {
        self.positions[slot] = None;
    }

    /// Advance a running replica by `dt` of useful compute, clamped at the
    /// total work. No-op for idle slots.
    pub fn advance(&mut self, slot: usize, dt: SimDuration) {
        if let Some(pos) = self.positions[slot] {
            self.positions[slot] = Some((pos + dt).min(self.spec.work));
        }
    }

    /// Commit a checkpoint at `position`, making that progress durable as
    /// a fresh generation.
    ///
    /// # Panics
    /// Panics if `position` regresses behind the current committed point —
    /// checkpoints never move progress backwards.
    pub fn commit(&mut self, position: SimDuration) {
        self.store.commit(position.min(self.spec.work));
    }

    /// A restore found the newest checkpoint generation corrupt: drop it
    /// and return the position restore now falls back to (zero once the
    /// generation history is exhausted). The reliable I/O-server view is
    /// unaffected.
    pub fn invalidate_newest_checkpoint(&mut self) -> SimDuration {
        self.store.invalidate_newest()
    }

    /// Reset every replica to idle (e.g. after migrating to on-demand).
    pub fn stop_all(&mut self) {
        self.positions.iter_mut().for_each(|p| *p = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(hours: u64) -> SimDuration {
        SimDuration::from_hours(hours)
    }

    fn set() -> ReplicaSet {
        ReplicaSet::new(AppSpec::PAPER, 3)
    }

    #[test]
    fn fresh_state() {
        let r = set();
        assert_eq!(r.committed(), SimDuration::ZERO);
        assert_eq!(r.remaining_committed(), h(20));
        assert!(!r.any_running());
        assert!(!r.complete());
        assert_eq!(r.best_position(), SimDuration::ZERO);
    }

    #[test]
    fn progress_and_commit_cycle() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(2));
        assert_eq!(r.best_position(), h(2));
        assert_eq!(r.committed(), SimDuration::ZERO); // speculative only
        r.commit(h(2));
        assert_eq!(r.committed(), h(2));
        assert_eq!(r.remaining_committed(), h(18));
    }

    #[test]
    fn losing_all_replicas_rolls_back_to_checkpoint() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(3));
        r.commit(h(3));
        r.advance(0, h(2)); // speculative position 5h
        assert_eq!(r.best_position(), h(5));
        r.stop(0);
        assert_eq!(r.best_position(), h(3)); // back to committed
        assert_eq!(r.remaining_best(), h(17));
    }

    #[test]
    fn replicas_at_different_positions() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(4));
        r.commit(h(4));
        // Waiting zone restarts from the fresh checkpoint while zone 0
        // runs ahead.
        r.start(1, r.committed());
        r.advance(0, h(2));
        r.advance(1, h(1));
        assert_eq!(r.position(0), Some(h(6)));
        assert_eq!(r.position(1), Some(h(5)));
        assert_eq!(r.best_position(), h(6));
        // Losing the leader falls back to the trailing replica.
        r.stop(0);
        assert_eq!(r.best_position(), h(5));
    }

    #[test]
    fn work_clamps() {
        let mut r = ReplicaSet::new(AppSpec::new(h(2)), 1);
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(10));
        assert_eq!(r.best_position(), h(2));
        r.commit(h(2));
        assert!(r.complete());
        // Starting beyond the work clamps as well.
        let mut r2 = ReplicaSet::new(AppSpec::new(h(2)), 1);
        r2.start(0, h(100));
        assert_eq!(r2.position(0), Some(h(2)));
    }

    #[test]
    #[should_panic(expected = "behind committed")]
    fn commit_cannot_regress() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(5));
        r.commit(h(5));
        r.commit(h(4));
    }

    #[test]
    #[should_panic(expected = "already running")]
    fn double_start_panics() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.start(0, SimDuration::ZERO);
    }

    #[test]
    fn corrupt_restore_falls_back_a_generation() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.advance(0, h(3));
        r.commit(h(3));
        r.advance(0, h(4));
        r.commit(h(7));
        assert_eq!(r.committed(), h(7));
        // Restore discovers the 7h checkpoint is corrupt.
        assert_eq!(r.invalidate_newest_checkpoint(), h(3));
        assert_eq!(r.committed(), h(3));
        assert_eq!(r.remaining_committed(), h(17));
        // The reliable migration path still has the furthest commit.
        assert_eq!(r.reliable(), h(7));
        // Exhausting the history bottoms out at a from-scratch restart.
        assert_eq!(r.invalidate_newest_checkpoint(), SimDuration::ZERO);
        assert_eq!(r.reliable(), h(7));
    }

    #[test]
    fn stop_all_clears_everything() {
        let mut r = set();
        r.start(0, SimDuration::ZERO);
        r.start(2, SimDuration::ZERO);
        r.stop_all();
        assert!(!r.any_running());
    }
}
