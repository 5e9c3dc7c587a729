//! Empirical transition matrices over price states.

use crate::states::StateSpace;
use redspot_trace::Price;

/// A row-stochastic transition matrix `TRANS` where `TRANS[n][m]` is the
/// probability of the spot price moving from state `n` to state `m` in one
/// 5-minute step (Appendix B).
///
/// Rows are stored in compressed sparse row (CSR) form: a price history
/// visits few of the `n²` state pairs (at five-cent bins, a 48-hour
/// high-volatility window has about 30 states and 83 non-zero transitions
/// among some 900 entries), so only the non-zero entries are kept, and
/// only they take part in a step.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionMatrix {
    /// Row `i`'s entries sit at `offsets[i]..offsets[i + 1]` of `cols` and
    /// `probs`; `offsets` has `n + 1` elements.
    offsets: Vec<usize>,
    /// Destination state of each entry, ascending within a row.
    cols: Vec<u32>,
    /// Probability of each entry, always positive.
    probs: Vec<f64>,
}

impl TransitionMatrix {
    /// Count transitions between consecutive samples of `history` under
    /// `states`. States that never occur as a source get a self-loop
    /// (the only unbiased choice with zero evidence).
    ///
    /// # Panics
    /// Panics if `history` has fewer than two samples.
    pub fn from_history(states: &StateSpace, history: &[Price]) -> TransitionMatrix {
        assert!(
            history.len() >= 2,
            "need at least two samples for transitions"
        );
        let n = states.len();
        assert!(u32::try_from(n).is_ok(), "state count must fit in u32");
        let mut counts = vec![0u64; n * n];
        let mut from = states.state_of(history[0]);
        for &price in &history[1..] {
            let to = states.state_of(price);
            counts[from * n + to] += 1;
            from = to;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut probs = Vec::new();
        offsets.push(0);
        for (row, row_counts) in counts.chunks_exact(n).enumerate() {
            let total: u64 = row_counts.iter().sum();
            if total == 0 {
                cols.push(row as u32);
                probs.push(1.0);
            } else {
                for (col, &c) in row_counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
                    cols.push(col as u32);
                    probs.push(c as f64 / total as f64);
                }
            }
            offsets.push(cols.len());
        }
        TransitionMatrix {
            offsets,
            cols,
            probs,
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the matrix is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `from`'s non-zero entries: destination states and their
    /// probabilities.
    fn row(&self, from: usize) -> (&[u32], &[f64]) {
        let span = self.offsets[from]..self.offsets[from + 1];
        (&self.cols[span.clone()], &self.probs[span])
    }

    /// Transition probability from state `from` to state `to`.
    pub fn prob(&self, from: usize, to: usize) -> f64 {
        let (cols, probs) = self.row(from);
        cols.binary_search(&(to as u32)).map_or(0.0, |k| probs[k])
    }

    /// One Chapman-Kolmogorov step restricted to *up* states (Eq. 2), for
    /// several independent distributions ("lanes") at once: propagate
    /// `dist` through the chain into `next`, dropping the mass that sits
    /// in masked-out (down) source states. The lost mass is each lane's
    /// termination probability at this step.
    ///
    /// Both buffers are state-major — lane `l` of state `i` is element
    /// `i * lanes + l` — and the lane count is `dist.len() / self.len()`.
    /// `next` is overwritten. Only non-zero transitions are visited; for
    /// every lane, each `next[j]` receives the same products in the same
    /// ascending-source order as the dense product would, and a skipped
    /// zero term could only have added `+0.0` to a non-negative sum, so
    /// the result is bit-identical to the dense step.
    ///
    /// # Panics
    /// Panics if `up` does not have one flag per state, or the buffers do
    /// not hold the same whole number of lanes.
    pub fn step_masked(&self, dist: &[f64], up: &[bool], next: &mut [f64]) {
        let n = self.len();
        let lanes = dist.len() / n;
        assert_eq!(up.len(), n, "one up flag per state");
        assert!(
            lanes > 0 && dist.len() == n * lanes && next.len() == dist.len(),
            "buffers must hold a whole number of lanes"
        );
        next.fill(0.0);
        let rows = dist
            .chunks_exact(lanes)
            .zip(up)
            .zip(self.offsets.windows(2));
        for ((src, &is_up), span) in rows {
            if !is_up || src.iter().all(|&mass| mass == 0.0) {
                continue;
            }
            let entries = self.cols[span[0]..span[1]]
                .iter()
                .zip(&self.probs[span[0]..span[1]]);
            if let [mass] = *src {
                for (&j, &p) in entries {
                    next[j as usize] += mass * p;
                }
            } else {
                for (&j, &p) in entries {
                    let dst = &mut next[j as usize * lanes..][..lanes];
                    for (nx, &mass) in dst.iter_mut().zip(src) {
                        *nx += mass * p;
                    }
                }
            }
        }
    }

    /// Each row sums to 1 (within tolerance) — used by tests and debug
    /// assertions.
    pub fn is_stochastic(&self) -> bool {
        (0..self.len()).all(|row| {
            let s: f64 = self.row(row).1.iter().sum();
            (s - 1.0).abs() < 1e-9
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    #[test]
    fn counts_simple_chain() {
        // 270 -> 270 -> 900 -> 270
        let hist = vec![p(270), p(270), p(900), p(270)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert!(t.is_stochastic());
        // From 270: one self-loop, one to 900.
        assert!((t.prob(0, 0) - 0.5).abs() < 1e-12);
        assert!((t.prob(0, 1) - 0.5).abs() < 1e-12);
        // From 900: always back to 270.
        assert!((t.prob(1, 0) - 1.0).abs() < 1e-12);
        assert_eq!(t.prob(1, 1), 0.0);
    }

    #[test]
    fn unobserved_source_gets_self_loop() {
        // 900 appears only as the final sample: never a source.
        let hist = vec![p(270), p(270), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert!(t.is_stochastic());
        assert!((t.prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stores_only_observed_transitions() {
        // Three states, three distinct transitions, no unobserved source.
        let hist = vec![p(270), p(500), p(900), p(270)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        assert_eq!(t.len(), 3);
        assert_eq!((t.cols.len(), t.probs.len()), (3, 3));
        assert_eq!(t.offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn masked_step_absorbs_down_states() {
        let hist = vec![p(270), p(900), p(270), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        // Start fully in state 0 (price 270); bid only covers state 0.
        let up = s.up_mask(p(500));
        let mut d1 = [0.0; 2];
        t.step_masked(&[1.0, 0.0], &up, &mut d1);
        // 270 always moves to 900 in this history: all mass lands in the
        // down state.
        assert!((d1[1] - 1.0).abs() < 1e-12);
        // Next step: that mass is absorbed (terminated).
        let mut d2 = [0.0; 2];
        t.step_masked(&d1, &up, &mut d2);
        assert!(d2.iter().sum::<f64>() < 1e-12);
    }

    #[test]
    fn lanes_step_independently() {
        let hist = vec![p(270), p(270), p(900), p(270), p(500), p(270)];
        let s = StateSpace::from_history(&hist, 10);
        let t = TransitionMatrix::from_history(&s, &hist);
        let up = s.up_mask(p(600));
        // Two lanes, state-major: lane 0 starts in state 0, lane 1 in 1.
        let mut both = [0.0; 6];
        t.step_masked(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], &up, &mut both);
        for (lane, start) in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]].iter().enumerate() {
            let mut solo = [0.0; 3];
            t.step_masked(start, &up, &mut solo);
            let column: Vec<f64> = both.iter().skip(lane).step_by(2).copied().collect();
            assert_eq!(column, solo);
        }
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_panics() {
        let hist = vec![p(270)];
        let s = StateSpace::from_history(&hist, 10);
        TransitionMatrix::from_history(&s, &hist);
    }
}
