//! Empirical transition matrices over price states, stored by column, and
//! the masked Chapman-Kolmogorov step that the uptime kernel runs on them.

use crate::states::StateSpace;
use redspot_trace::Price;

/// A row-stochastic transition matrix `TRANS` where `TRANS[n][m]` is the
/// probability of the spot price moving from state `n` to state `m` in one
/// 5-minute step (Appendix B).
///
/// Only the non-zero entries are kept, column by column (compressed sparse
/// column form): for each destination state, its source states in
/// ascending order with their probabilities. A price history visits few
/// of the `n²` state pairs (at five-cent bins, a 48-hour high-volatility
/// window has about 30 states and 83 non-zero transitions among some 900
/// entries). Columns suit the uptime kernel: up states are the lowest
/// levels, so a column's up sources are a prefix of it, and a step
/// gathers each state's next mass from that prefix alone ([`UpChain`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TransitionMatrix {
    /// Column `j`'s entries sit at `offsets[j]..offsets[j + 1]` of `rows`
    /// and `probs`; `offsets` has `n + 1` elements.
    offsets: Vec<usize>,
    /// Source state of each entry, ascending within a column.
    rows: Vec<u32>,
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
    pub(crate) fn from_history(states: &StateSpace, history: &[Price]) -> TransitionMatrix {
        assert!(
            history.len() >= 2,
            "need at least two samples for transitions"
        );
        let n = states.len();
        assert!(u32::try_from(n).is_ok(), "state count must fit in u32");
        // Counted column-major (`counts[to * n + from]`), so each column
        // is emitted by one sequential pass over its sources.
        let mut counts = vec![0u64; n * n];
        let mut totals = vec![0u64; n];
        let mut nnz = 0;
        let mut from = states.state_of(history[0]);
        for &price in &history[1..] {
            let to = states.state_of(price);
            let count = &mut counts[to * n + from];
            nnz += usize::from(*count == 0);
            *count += 1;
            totals[from] += 1;
            from = to;
        }
        nnz += totals.iter().filter(|&&total| total == 0).count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut rows = Vec::with_capacity(nnz);
        let mut probs = Vec::with_capacity(nnz);
        offsets.push(0);
        for (to, column) in counts.chunks_exact(n).enumerate() {
            for (from, (&count, &total)) in column.iter().zip(&totals).enumerate() {
                if total == 0 {
                    if from == to {
                        rows.push(from as u32);
                        probs.push(1.0);
                    }
                } else if count > 0 {
                    rows.push(from as u32);
                    probs.push(count as f64 / total as f64);
                }
            }
            offsets.push(rows.len());
        }
        TransitionMatrix {
            offsets,
            rows,
            probs,
        }
    }

    /// Column `j`'s source states and their probabilities.
    #[cfg(test)]
    fn column(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.offsets[j]..self.offsets[j + 1];
        (&self.rows[span.clone()], &self.probs[span])
    }

    /// The chain as a lane sees it at a bid that keeps the first `n_up`
    /// states up: each column's up sources, found once per query.
    pub(crate) fn up_chain(&self, n_up: usize) -> UpChain<'_> {
        let mut spans = Vec::new();
        let mut up_spans = 0;
        for (state, bounds) in self.offsets.windows(2).enumerate() {
            let sources = &self.rows[bounds[0]..bounds[1]];
            let hi = bounds[0] + sources.partition_point(|&i| (i as usize) < n_up);
            if hi > bounds[0] {
                spans.push(Span {
                    state,
                    lo: bounds[0],
                    hi,
                });
                up_spans += usize::from(state < n_up);
            }
        }
        UpChain {
            matrix: self,
            n_up,
            spans,
            up_spans,
        }
    }

    /// Transition probability from state `from` to state `to`.
    #[cfg(test)]
    pub(crate) fn prob(&self, from: usize, to: usize) -> f64 {
        let (sources, probs) = self.column(to);
        sources
            .binary_search(&(from as u32))
            .map_or(0.0, |k| probs[k])
    }

    /// Each row sums to 1 (within tolerance).
    #[cfg(test)]
    pub(crate) fn is_stochastic(&self) -> bool {
        let mut sums = vec![0.0f64; self.offsets.len() - 1];
        for (&i, &p) in self.rows.iter().zip(&self.probs) {
            sums[i as usize] += p;
        }
        sums.iter().all(|s| (s - 1.0).abs() < 1e-9)
    }
}

/// A [`TransitionMatrix`] restricted to the sources that are up at one
/// bid: the first `n_up` states (the levels at or below the bid). Mass in
/// the other, down, states is absorbed — the instance has terminated
/// (Appendix B, Eq. 2) — so a step moves mass out of up states only, and
/// a lane's buffers hold up states only.
pub(crate) struct UpChain<'a> {
    matrix: &'a TransitionMatrix,
    n_up: usize,
    /// The states with at least one up source, ascending; the first
    /// `up_spans` of them are up states.
    spans: Vec<Span>,
    up_spans: usize,
}

/// Where a state's up sources sit in its column: `lo..hi` of the matrix's
/// `rows` and `probs`.
struct Span {
    state: usize,
    lo: usize,
    hi: usize,
}

impl UpChain<'_> {
    /// Number of up states.
    #[cfg(test)]
    fn n_up(&self) -> usize {
        self.n_up
    }

    /// The up sources of `span`'s state and their probabilities.
    fn sources(&self, span: &Span) -> (&[u32], &[f64]) {
        (
            &self.matrix.rows[span.lo..span.hi],
            &self.matrix.probs[span.lo..span.hi],
        )
    }

    /// Each up state's row sum over all states, in ascending destination
    /// order from `0.0`: the survival one step after starting there, `b₁`
    /// of the backward recursion. Each sum has at most one term per
    /// state.
    pub(crate) fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.n_up];
        for span in &self.spans {
            let (sources, probs) = self.sources(span);
            for (&i, &p) in sources.iter().zip(probs) {
                sums[i as usize] += p;
            }
        }
        sums
    }

    /// One backward step, `out = Q_U · b`: `out[i] = Σ_j p(i → j) · b[j]`
    /// over up states `j`, where `b[j]` is the survival `k` steps after
    /// starting in `j` and `out[i]` is the survival `k + 1` steps after
    /// starting in `i`. Each sum has at most one term per up state.
    ///
    /// # Panics
    /// Panics if the buffers do not hold one element per up state.
    pub(crate) fn step_back(&self, b: &[f64], out: &mut [f64]) {
        assert!(
            b.len() == self.n_up && out.len() == self.n_up,
            "buffers must hold one element per up state"
        );
        out.fill(0.0);
        for span in &self.spans[..self.up_spans] {
            let (sources, probs) = self.sources(span);
            let survival = b[span.state];
            for (&i, &p) in sources.iter().zip(probs) {
                out[i as usize] += p * survival;
            }
        }
    }

    /// One Chapman-Kolmogorov step for several independent lanes at once.
    /// Both buffers are state-major — lane `l` of up state `i` is element
    /// `i * lanes + l` — with `lanes = survival.len()`. `dist` holds each
    /// up state's mass, `next` is overwritten with the mass each up state
    /// holds one step later, and `survival` with each lane's survival:
    /// every state's next mass, down states included, summed in ascending
    /// state order from `-0.0`. Mass that lands in a down state counts
    /// this step and is absorbed by the next. `scratch` (one element per
    /// lane) holds a down state's next mass while it is summed.
    ///
    /// Each state's next mass is gathered from its column: the same
    /// products `mass × p`, added in the same ascending-source order, as
    /// a row-by-row scatter of the dense matrix would add them. A term it
    /// skips (a zero probability, a down source, or a state with no up
    /// source at all) or adds (a zero mass) is `+0.0` on a non-negative
    /// sum, so every lane's result is bit-identical to the dense step on
    /// that lane alone. (Every up state is the source of some column, so
    /// the survival's first addition already leaves `-0.0` behind.)
    ///
    /// # Panics
    /// Panics if the buffers do not hold one element per up state and
    /// lane.
    pub(crate) fn step_lanes(
        &self,
        dist: &[f64],
        next: &mut [f64],
        scratch: &mut [f64],
        survival: &mut [f64],
    ) {
        let lanes = survival.len();
        assert!(
            lanes > 0
                && dist.len() == self.n_up * lanes
                && next.len() == dist.len()
                && scratch.len() == lanes,
            "buffers must hold one element per up state and lane"
        );
        next.fill(0.0);
        let (up, down) = self.spans.split_at(self.up_spans);
        if let [alive] = survival {
            // One lane: the same sums, without the per-lane loops.
            let gather = |span: &Span| {
                let (sources, probs) = self.sources(span);
                let mut mass = 0.0;
                for (&i, &p) in sources.iter().zip(probs) {
                    mass += dist[i as usize] * p;
                }
                mass
            };
            *alive = -0.0;
            for span in up {
                next[span.state] = gather(span);
                *alive += next[span.state];
            }
            for span in down {
                *alive += gather(span);
            }
            return;
        }
        let gather = |span: &Span, acc: &mut [f64], survival: &mut [f64]| {
            let (sources, probs) = self.sources(span);
            for (&i, &p) in sources.iter().zip(probs) {
                let src = &dist[i as usize * lanes..][..lanes];
                for (a, &mass) in acc.iter_mut().zip(src) {
                    *a += mass * p;
                }
            }
            for (s, &a) in survival.iter_mut().zip(acc.iter()) {
                *s += a;
            }
        };
        survival.fill(-0.0);
        for span in up {
            gather(span, &mut next[span.state * lanes..][..lanes], survival);
        }
        for span in down {
            scratch.fill(0.0);
            gather(span, scratch, survival);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    fn matrix(hist: &[Price]) -> (StateSpace, TransitionMatrix) {
        let s = StateSpace::from_history(hist, 10);
        let t = TransitionMatrix::from_history(&s, hist);
        (s, t)
    }

    #[test]
    fn counts_simple_chain() {
        // 270 -> 270 -> 900 -> 270
        let (_, t) = matrix(&[p(270), p(270), p(900), p(270)]);
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
        let (_, t) = matrix(&[p(270), p(270), p(900)]);
        assert!(t.is_stochastic());
        assert!((t.prob(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stores_only_observed_transitions_by_column() {
        // Three states, three distinct transitions, no unobserved source:
        // 270 -> 500, 500 -> 900, 900 -> 270.
        let (_, t) = matrix(&[p(270), p(500), p(900), p(270)]);
        assert_eq!(t.offsets, vec![0, 1, 2, 3]);
        // Column 0 (270) is fed by 900, column 1 by 270, column 2 by 500.
        assert_eq!(t.rows, vec![2, 0, 1]);
    }

    #[test]
    fn up_sources_are_a_prefix_of_each_column() {
        // 270 and 500 feed 270, 900 feeds 500, 270 feeds 900; at bid 400
        // only 270 is up.
        let (s, t) = matrix(&[p(270), p(270), p(900), p(500), p(270)]);
        let chain = t.up_chain(s.up_count(p(400)));
        assert_eq!(chain.n_up(), 1);
        assert_eq!(t.column(0).0, &[0, 1][..]);
        // 500 has no up source, so only 270's and 900's columns are kept.
        let kept: Vec<(usize, &[u32])> = chain
            .spans
            .iter()
            .map(|span| (span.state, chain.sources(span).0))
            .collect();
        assert_eq!(kept, vec![(0, &[0][..]), (2, &[0][..])]);
        assert_eq!(chain.up_spans, 1);
    }

    /// `step_lanes` on the lanes of `starts`, each a distribution over the
    /// up states: each lane's next distribution and survival.
    fn step(chain: &UpChain<'_>, starts: &[&[f64]]) -> Vec<(Vec<f64>, f64)> {
        let lanes = starts.len();
        let mut dist = vec![0.0; chain.n_up() * lanes];
        for (l, start) in starts.iter().enumerate() {
            for (i, &mass) in start.iter().enumerate() {
                dist[i * lanes + l] = mass;
            }
        }
        let mut next = vec![f64::NAN; dist.len()];
        let mut survival = vec![f64::NAN; lanes];
        chain.step_lanes(&dist, &mut next, &mut vec![f64::NAN; lanes], &mut survival);
        let lane = |l: usize| next.iter().skip(l).step_by(lanes).copied().collect();
        (0..lanes).map(|l| (lane(l), survival[l])).collect()
    }

    #[test]
    fn step_absorbs_down_states() {
        let (s, t) = matrix(&[p(270), p(900), p(270), p(900)]);
        // Start fully in state 0 (price 270); bid only covers state 0.
        let chain = t.up_chain(s.up_count(p(500)));
        // 270 always moves to 900 in this history: all mass survives the
        // first step, landing in the down state...
        let [(d1, alive)] = &step(&chain, &[&[1.0]])[..] else {
            unreachable!()
        };
        assert!((alive - 1.0).abs() < 1e-12);
        assert_eq!(d1, &[0.0]);
        // ...and is absorbed (terminated) by the next.
        assert!(step(&chain, &[d1])[0].1 < 1e-12);
    }

    #[test]
    fn lanes_step_independently() {
        let (s, t) = matrix(&[p(270), p(270), p(900), p(270), p(500), p(270)]);
        let chain = t.up_chain(s.up_count(p(600)));
        assert_eq!(chain.n_up(), 2);
        // Two lanes (the multi-lane loops) against each lane alone (the
        // one-lane branch): lane 0 starts in state 0, lane 1 in state 1.
        let starts: [&[f64]; 2] = [&[1.0, 0.0], &[0.0, 1.0]];
        let both = step(&chain, &starts);
        for (start, (next, alive)) in starts.iter().zip(&both) {
            let solo = &step(&chain, &[start])[0];
            assert_eq!(next, &solo.0);
            assert_eq!(alive.to_bits(), solo.1.to_bits());
        }
    }

    #[test]
    fn step_matches_a_dense_scatter_bit_for_bit() {
        // A generated 48 h window at five-cent bins: ~30 states whose
        // probabilities are not binary fractions, so summing in any other
        // order than the dense one shows in the low bits.
        let traces = redspot_trace::gen::GenConfig::high_volatility(42).generate();
        let hist = &traces.zones()[0].samples()[..576];
        let s = StateSpace::from_history(hist, 50);
        let t = TransitionMatrix::from_history(&s, hist);
        let n = s.len();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bid in [p(810), p(2_400)] {
            let chain = t.up_chain(s.up_count(bid));
            let n_up = chain.n_up();
            // Lane 0 spreads over every up state, lane 1 starts in state
            // 0; each runs alone (one-lane branch) and beside the other.
            let mut lanes = [vec![1.0 / n_up as f64; n_up], vec![0.0; n_up]];
            lanes[1][0] = 1.0;
            for _ in 0..50 {
                let refs: Vec<&[f64]> = lanes.iter().map(Vec::as_slice).collect();
                let both = step(&chain, &refs);
                for (l, dist) in lanes.iter_mut().enumerate() {
                    // Row by row, every destination, zeros included.
                    let mut dense = vec![0.0f64; n];
                    for (i, &mass) in dist.iter().enumerate() {
                        for (j, slot) in dense.iter_mut().enumerate() {
                            *slot += mass * t.prob(i, j);
                        }
                    }
                    let alive = dense.iter().sum::<f64>().to_bits();
                    let (solo, solo_alive) = &step(&chain, &[dist])[0];
                    for (next, survival) in [(solo, solo_alive), (&both[l].0, &both[l].1)] {
                        assert_eq!(survival.to_bits(), alive);
                        assert_eq!(bits(next), bits(&dense[..n_up]));
                    }
                    *dist = dense[..n_up].to_vec();
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn single_sample_panics() {
        matrix(&[p(270)]);
    }
}
