//! Expected zone up-time at a bid price (Appendix B, Eqs. 2–3).
//!
//! Starting from the current price state, probability mass is propagated
//! through the empirical transition matrix with mass in out-of-bid states
//! absorbed (the instance terminates). The expected up-time is the
//! expected number of surviving 5-minute steps; iteration stops once the
//! estimate is stable at seconds granularity (the paper's `Th`).
//!
//! The forward kernel answers [`MarkovModel::expected_uptime`]: each start
//! state is a lane of one state-major buffer. It pulls: the transition
//! matrix is stored by column, and a step gathers each state's next mass
//! from its up sources (a prefix of its column, because up states are the
//! lowest levels), adding it to the survival in the same pass. Buffers
//! hold up states only. A lane's arithmetic is exactly that of a dense,
//! one-start propagation, so results are bit-identical to it (the
//! test-only oracle in this crate checks that).
//!
//! [`MarkovModel::average_uptime`] needs one number from every up state.
//! It steps one backward survival vector instead of one lane per start:
//! `b₁` holds each up state's row sum and `b_k = Q_U · b_{k−1}`, so
//! `b_k[s]` is the survival `k` steps after starting in `s`. Each start
//! then follows the forward lane's stop, tail, cap and rounding rules.
//! The backward sums associate differently, so its survivals differ from
//! the forward lane's in the last bits. A derived bound on that distance
//! (DESIGN.md §13) settles most starts exactly as the forward lane would;
//! the few it leaves in doubt run through the forward kernel, so the
//! average is bit-identical too.

use crate::states::{StateSpace, DEFAULT_BIN_MILLIS};
use crate::transition::TransitionMatrix;
use redspot_trace::{Price, PriceSeries, SimDuration, Window};

/// A per-zone Markov price model built from a history window.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovModel {
    states: StateSpace,
    trans: TransitionMatrix,
    /// Seconds per chain step (the history's sampling interval).
    step_secs: u64,
}

/// Iterations before switching to geometric tail extrapolation. Sticky
/// chains (prices that essentially never leave the bid) would otherwise
/// burn thousands of matrix-vector products per query.
pub(crate) const EXACT_STEPS: usize = 600;

/// Cap on the expected up-time: 30 days of 5-minute steps. Beyond this the
/// distinction is irrelevant to a ≤ 30-hour experiment.
pub(crate) const MAX_EXPECTED_STEPS: f64 = 8_640.0;

/// Unit roundoff of `f64`: a correctly rounded operation's relative error
/// is at most this.
const UNIT_ROUNDOFF: f64 = f64::EPSILON / 2.0;

/// The relative half-width of an interval, around a value the backward
/// pass computed, that holds the forward kernel's value of the same
/// quantity, when neither kernel rounds any term of the exact sum more
/// than `roundings` times (DESIGN.md §13 counts them).
///
/// Both kernels add non-negative products of the same stored
/// probabilities, so each value lies within `γ_m = m·u / (1 − m·u)`
/// (relative) of the exact sum, and the two lie within
/// `2γ_m / (1 − γ_m) ≤ 2.05·m·u` of each other while `m·u ≤ 0.01`
/// (`m` below 9·10¹³). Four more units cover evaluating the ends
/// `x · (1 ∓ w)`, two roundings each, and gradual underflow, whose
/// absolute error is far below `u · Th`.
fn spread(roundings: usize) -> f64 {
    (2.05 * roundings as f64 + 4.0) * UNIT_ROUNDOFF
}

impl MarkovModel {
    /// Build from the portion of `series` inside `window` (the paper uses
    /// a 2-day history) with the default one-cent price quantization.
    ///
    /// ```
    /// use redspot_markov::MarkovModel;
    /// use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, Window};
    /// // A sticky cheap price: long expected up-time at any higher bid.
    /// let series = PriceSeries::new(
    ///     SimTime::ZERO,
    ///     vec![Price::from_dollars(0.27); 288],
    /// );
    /// let model = MarkovModel::from_series(&series, Window::new(series.start(), series.end()));
    /// let uptime = model.expected_uptime(Price::from_dollars(0.27), Price::from_dollars(0.81));
    /// assert!(uptime > SimDuration::from_hours(24));
    /// ```
    pub fn from_series(series: &PriceSeries, window: Window) -> MarkovModel {
        MarkovModel::with_bin(series, window, DEFAULT_BIN_MILLIS)
    }

    /// Build with an explicit quantization bin width.
    pub fn with_bin(series: &PriceSeries, window: Window, bin_millis: u64) -> MarkovModel {
        // The samples `series.slice(window)` would copy, borrowed.
        let (lo, hi) = series.window_indices(window);
        let samples = &series.samples()[lo..hi];
        let states = StateSpace::from_history(samples, bin_millis);
        let trans = if samples.len() >= 2 {
            TransitionMatrix::from_history(&states, samples)
        } else {
            // Degenerate one-sample history: the price never moves.
            TransitionMatrix::from_history(&states, &[samples[0], samples[0]])
        };
        MarkovModel {
            states,
            trans,
            step_secs: series.step(),
        }
    }

    /// Number of price states.
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Expected up-time of a spot instance started now, given the current
    /// spot price and a bid (Eq. 3). Zero when the zone is already
    /// out-of-bid.
    pub fn expected_uptime(&self, current_price: Price, bid: Price) -> SimDuration {
        if current_price > bid {
            return SimDuration::ZERO;
        }
        let n_up = self.states.up_count(bid);
        if n_up == 0 {
            return SimDuration::ZERO;
        }
        // If quantization snapped the current price into a down state even
        // though current_price <= bid, start from the lowest-priced up
        // state instead; the instance is observably up right now.
        let start = Some(self.states.state_of(current_price))
            .filter(|&s| s < n_up)
            .unwrap_or(0);
        self.uptimes(n_up, &[start])[0]
    }

    /// Combined expected up-time across several zones at a common bid: the
    /// paper sums per-zone expectations for (near-)independent zones
    /// (Section 4.2), so redundancy's effective MTBF grows with `N`.
    pub fn combined_uptime(
        models: &[MarkovModel],
        current_prices: &[Price],
        bid: Price,
    ) -> SimDuration {
        debug_assert_eq!(models.len(), current_prices.len());
        models
            .iter()
            .zip(current_prices)
            .map(|(m, &p)| m.expected_uptime(p, bid))
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Probabilistic average up-time across all up starting states, each
    /// weighted equally — the Threshold policy's `TimeThresh`.
    pub fn average_uptime(&self, bid: Price) -> SimDuration {
        // Weight each up state equally by its appearance in the state
        // space; a frequency-weighted version would need the raw history,
        // and the uniform version is what the Threshold description needs:
        // "the probabilistic average up time of a zone". Every up state's
        // price maps to that state and is within the bid, so each one's
        // uptime is `expected_uptime` from it, without a nudge.
        let n_up = self.states.up_count(bid);
        if n_up == 0 {
            return SimDuration::ZERO;
        }
        let total: u64 = self.up_state_uptimes(n_up).iter().map(|u| u.secs()).sum();
        SimDuration::from_secs(total / n_up as u64)
    }

    /// The expected up-time from each of the first `n_up` states, in state
    /// order: the backward pass settles most starts, and the forward
    /// kernel runs the ones it leaves in doubt.
    pub(crate) fn up_state_uptimes(&self, n_up: usize) -> Vec<SimDuration> {
        let settled = self.backward_uptimes(n_up);
        let doubtful: Vec<usize> = (0..n_up).filter(|&s| settled[s].is_none()).collect();
        let mut forward = if doubtful.is_empty() {
            Vec::new()
        } else {
            self.uptimes(n_up, &doubtful)
        }
        .into_iter();
        settled
            .into_iter()
            .map(|up| up.unwrap_or_else(|| forward.next().expect("one lane per doubtful start")))
            .collect()
    }

    /// The backward pass: the expected up-time from each of the first
    /// `n_up` states, in state order, or `None` where the bound leaves the
    /// forward lane's answer in doubt.
    ///
    /// One survival vector steps through `b₁ = row sums`,
    /// `b_k = Q_U · b_{k−1}`, and each start accumulates `b_k[s]` with
    /// the forward lane's rules. The forward survival at step `k` lies
    /// within `spread(k·n_up + n)` of the backward one, and the forward
    /// step sum within `spread(k·(n_up + 1) + n)` of the backward sum
    /// (see [`spread`]). A start is settled when:
    ///
    /// - at every step, its survival interval lies wholly below `Th` (it
    ///   stops here) or wholly at or above it (it goes on), so its stop
    ///   step is certain;
    /// - the tail, cap, scaling and rounding, applied to both ends of its
    ///   interval, give the same whole second. Each of those operations
    ///   is monotone in its inputs, rounding included, so the forward
    ///   lane's second lies between the two ends' seconds. The tail's
    ///   ratio takes its ends from both survivals' intervals, which is
    ///   where `1/(1 − r)` widens a tail-taking start's interval.
    pub(crate) fn backward_uptimes(&self, n_up: usize) -> Vec<Option<SimDuration>> {
        let chain = self.trans.up_chain(n_up);
        let n = self.states.len();
        let tol = 1.0 / self.step_secs as f64; // seconds granularity (Th)
        let seconds = |steps: f64| (steps.min(MAX_EXPECTED_STEPS) * self.step_secs as f64).round();
        let tail = |alive: f64, prev_alive: f64| {
            let r = (alive / prev_alive).clamp(0.0, 0.999_999);
            alive * r / (1.0 - r)
        };
        let mut out = vec![None; n_up];
        let mut open: Vec<Lane> = (0..n_up)
            .map(|id| Lane {
                id,
                steps: 0.0,
                prev_alive: 1.0,
            })
            .collect();
        let mut survival = chain.row_sums();
        let mut next = vec![0.0f64; n_up];
        for k in 1..=EXACT_STEPS {
            if k > 1 {
                chain.step_back(&survival, &mut next);
                std::mem::swap(&mut survival, &mut next);
            }
            let last = k == EXACT_STEPS;
            let alive_spread = spread(k * n_up + n);
            let prev_spread = spread((k - 1) * n_up + n);
            let steps_spread = spread(k * (n_up + 1) + n);
            open.retain_mut(|lane| {
                let alive = survival[lane.id];
                let prev_alive = std::mem::replace(&mut lane.prev_alive, alive);
                lane.steps += alive;
                let (lo, hi) = (alive * (1.0 - alive_spread), alive * (1.0 + alive_spread));
                if lo < tol && hi >= tol {
                    return false; // the forward lane may stop here or go on
                }
                let stopped = hi < tol;
                if !stopped && !last {
                    return true;
                }
                let mut steps = [
                    lane.steps * (1.0 - steps_spread),
                    lane.steps * (1.0 + steps_spread),
                ];
                if !stopped {
                    steps[0] += tail(lo, prev_alive * (1.0 + prev_spread));
                    steps[1] += tail(hi, prev_alive * (1.0 - prev_spread));
                }
                let [low, high] = steps.map(seconds);
                if low == high {
                    out[lane.id] = Some(SimDuration::from_secs(low as u64));
                }
                false
            });
            if open.is_empty() {
                break;
            }
        }
        out
    }

    /// The forward uptime kernel: the expected up-time from each of
    /// `starts` (up states, so below `n_up`), in order, each start a lane
    /// of one state-major buffer stepped through the up chain at once: one
    /// lane for [`expected_uptime`](Self::expected_uptime), and one per
    /// start the backward pass of [`average_uptime`](Self::average_uptime)
    /// leaves in doubt.
    ///
    /// Every lane follows the single-start rules on its own: E[steps up] =
    /// Σ_k (probability still alive after k steps), stopping once a step's
    /// survival falls below seconds granularity (the paper's `Th`), with a
    /// geometric tail after [`EXACT_STEPS`], capped at
    /// [`MAX_EXPECTED_STEPS`] and rounded to whole seconds. A lane's
    /// arithmetic never depends on the other lanes, so its result is the
    /// one it would get alone; finished lanes leave the buffer.
    fn uptimes(&self, n_up: usize, starts: &[usize]) -> Vec<SimDuration> {
        let tol = 1.0 / self.step_secs as f64; // seconds granularity (Th)
        let mut out = vec![SimDuration::ZERO; starts.len()];
        let mut lanes: Vec<Lane> = (0..starts.len())
            .map(|id| Lane {
                id,
                steps: 0.0,
                prev_alive: 1.0,
            })
            .collect();
        let chain = self.trans.up_chain(n_up);
        let mut dist = vec![0.0f64; n_up * lanes.len()];
        for (l, &s) in starts.iter().enumerate() {
            dist[s * lanes.len() + l] = 1.0;
        }
        let mut next = vec![0.0f64; dist.len()];
        let mut scratch = vec![0.0f64; lanes.len()];
        let mut survival = vec![0.0f64; lanes.len()];
        let mut keep = vec![true; lanes.len()];
        for k in 0..EXACT_STEPS {
            chain.step_lanes(&dist, &mut next, &mut scratch, &mut survival);
            std::mem::swap(&mut dist, &mut next);
            let last = k + 1 == EXACT_STEPS;
            for ((lane, &alive), kept) in lanes.iter_mut().zip(&survival).zip(&mut keep) {
                lane.steps += alive;
                let stopped = alive < tol;
                if !stopped && last {
                    // Geometric tail: survival decays roughly by a constant
                    // per-step ratio once the distribution has mixed; the
                    // remaining sum is alive · r / (1 − r).
                    let r = (alive / lane.prev_alive).clamp(0.0, 0.999_999);
                    lane.steps += alive * r / (1.0 - r);
                }
                *kept = !stopped && !last;
                if !*kept {
                    let steps = lane.steps.min(MAX_EXPECTED_STEPS);
                    out[lane.id] =
                        SimDuration::from_secs((steps * self.step_secs as f64).round() as u64);
                }
                lane.prev_alive = alive;
            }
            if keep.iter().all(|&kept| kept) {
                continue;
            }
            // Drop finished lanes: keep the survivors' columns, in order.
            let width = lanes.len();
            let mut w = 0;
            for r in 0..dist.len() {
                if keep[r % width] {
                    dist[w] = dist[r];
                    w += 1;
                }
            }
            dist.truncate(w);
            next.truncate(w);
            let mut kept = keep.iter();
            lanes.retain(|_| *kept.next().expect("one flag per lane"));
            if lanes.is_empty() {
                break;
            }
            scratch.truncate(lanes.len());
            survival.truncate(lanes.len());
            keep.truncate(lanes.len());
        }
        out
    }
}

/// One start state's progress through [`MarkovModel::uptimes`] or
/// [`MarkovModel::backward_uptimes`].
struct Lane {
    /// Position of the start in the caller's list (the backward pass's
    /// list is every up state, so this is the state itself).
    id: usize,
    /// E[steps up] so far.
    steps: f64,
    /// Survival after the previous step (1 before the first).
    prev_alive: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use redspot_trace::{SimTime, SimTime as T, PRICE_STEP};

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    fn series(prices: &[u64]) -> PriceSeries {
        PriceSeries::new(T::ZERO, prices.iter().map(|&m| p(m)).collect())
    }

    fn model(prices: &[u64]) -> MarkovModel {
        let s = series(prices);
        let w = Window::new(s.start(), s.end());
        MarkovModel::from_series(&s, w)
    }

    #[test]
    fn out_of_bid_has_zero_uptime() {
        let m = model(&[270, 270, 900, 270]);
        assert_eq!(m.expected_uptime(p(900), p(500)), SimDuration::ZERO);
    }

    #[test]
    fn stable_price_gives_long_uptime() {
        // Price never moves: survival forever, capped at 30 days.
        let m = model(&[270; 100]);
        let up = m.expected_uptime(p(270), p(500));
        assert_eq!(up, SimDuration::from_secs(PRICE_STEP * 8_640), "got {up}");
    }

    #[test]
    fn geometric_survival_matches_closed_form() {
        // Two states, P(leave up) = 0.5 per step: E[steps] = 1 (geometric
        // survival: sum of 0.5^k for k>=1).
        let m = model(&[270, 900, 270, 900, 270]);
        let up = m.expected_uptime(p(270), p(500));
        let expected = PRICE_STEP as f64 * 1.0;
        assert!(
            (up.secs() as f64 - expected).abs() <= PRICE_STEP as f64 * 0.1,
            "got {up}, expected ≈{expected}s"
        );
    }

    #[test]
    fn higher_bid_never_reduces_uptime() {
        let hist = [270, 310, 500, 270, 800, 310, 270, 500, 900, 270];
        let m = model(&hist);
        let mut last = SimDuration::ZERO;
        for bid in [300u64, 500, 800, 1000] {
            let up = m.expected_uptime(p(270), p(bid));
            assert!(up >= last, "uptime decreased at bid {bid}");
            last = up;
        }
    }

    #[test]
    fn combined_uptime_sums_zones() {
        let m1 = model(&[270, 900, 270, 900, 270]);
        let m2 = model(&[270; 50]);
        let solo1 = m1.expected_uptime(p(270), p(500));
        let solo2 = m2.expected_uptime(p(270), p(500));
        let combined = MarkovModel::combined_uptime(&[m1, m2], &[p(270), p(270)], p(500));
        assert_eq!(combined, solo1 + solo2);
        assert!(combined > solo1);
    }

    #[test]
    fn average_uptime_positive_when_affordable() {
        let m = model(&[270, 310, 900, 270, 310, 270]);
        assert!(m.average_uptime(p(500)) > SimDuration::ZERO);
        assert_eq!(m.average_uptime(p(100)), SimDuration::ZERO);
    }

    #[test]
    fn quantization_snap_keeps_running_zone_alive() {
        // Bid sits inside the bin holding the current price: the mask may
        // mark that bin down, but the zone is observably up.
        let m = model(&[270, 271, 272, 273, 274, 270]);
        let up = m.expected_uptime(p(274), p(274));
        assert!(up > SimDuration::ZERO);
    }

    #[test]
    fn nudge_starts_from_the_lowest_priced_up_state() {
        // Levels 270/300/900: price 700 snaps to 900, down at bid 800, so
        // the chain starts from 270 (the lowest-priced up state), not from
        // 300 (the nearest one). From 270 the price lingers; from 300 it
        // always jumps to 900.
        let m = model(&[270, 270, 270, 270, 300, 900, 270, 270, 300, 900, 270]);
        let nudged = m.expected_uptime(p(700), p(800));
        assert_eq!(nudged, m.expected_uptime(p(270), p(800)));
        assert_ne!(nudged, m.expected_uptime(p(300), p(800)));
    }

    #[test]
    fn single_sample_window_degenerates_gracefully() {
        let s = series(&[270, 900, 270]);
        let w = Window::new(SimTime::ZERO, SimTime::from_secs(PRICE_STEP));
        let m = MarkovModel::from_series(&s, w);
        assert_eq!(m.n_states(), 1);
        assert!(m.expected_uptime(p(270), p(500)) > SimDuration::ZERO);
    }
}
