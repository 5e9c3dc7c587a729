//! Price-state discretization.
//!
//! The paper's Markov model has one state per distinct spot price in the
//! history (Appendix B). Real CC2 prices move on a coarse grid; our
//! synthetic generator produces milli-dollar jitter, so we quantize prices
//! into fixed-width bins (default one cent) before building states —
//! the same model, robust to fine-grained inputs.

use redspot_trace::Price;

/// A discretized price state space: sorted, deduplicated bin
/// representatives for every price observed in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StateSpace {
    /// Bin width in milli-dollars.
    bin: u64,
    /// Sorted representative price (bin lower edge) per state.
    levels: Vec<u64>,
}

/// Default quantization: one cent.
pub const DEFAULT_BIN_MILLIS: u64 = 10;

impl StateSpace {
    /// Build the state space for a price history with the given bin width.
    ///
    /// # Panics
    /// Panics if `history` is empty or `bin_millis` is zero.
    pub(crate) fn from_history(history: &[Price], bin_millis: u64) -> StateSpace {
        assert!(!history.is_empty(), "state space needs observations");
        assert!(bin_millis > 0, "bin width must be positive");
        let mut levels: Vec<u64> = history
            .iter()
            .map(|p| p.millis() / bin_millis * bin_millis)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        StateSpace {
            bin: bin_millis,
            levels,
        }
    }

    /// Number of states `N`.
    pub(crate) fn len(&self) -> usize {
        self.levels.len()
    }

    /// The state index for `price`: its own bin if observed, otherwise the
    /// nearest observed bin (prices outside the history snap to the edge).
    pub(crate) fn state_of(&self, price: Price) -> usize {
        let q = price.millis() / self.bin * self.bin;
        match self.levels.binary_search(&q) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i == self.levels.len() => self.levels.len() - 1,
            Err(i) => {
                // Snap to the nearer neighbour.
                if q - self.levels[i - 1] <= self.levels[i] - q {
                    i - 1
                } else {
                    i
                }
            }
        }
    }

    /// Representative price of a state.
    ///
    /// # Panics
    /// Panics if `state` is out of range.
    #[cfg(test)]
    pub(crate) fn price_of(&self, state: usize) -> Price {
        Price::from_millis(self.levels[state])
    }

    /// Number of up states at `bid`: the indicator `I(i) = 1 iff price_i ≤
    /// bid` (Appendix B, Eq. 2) holds exactly for the states below this
    /// count, because levels are sorted.
    pub(crate) fn up_count(&self, bid: Price) -> usize {
        self.levels.partition_point(|&l| l <= bid.millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(m: u64) -> Price {
        Price::from_millis(m)
    }

    #[test]
    fn quantizes_and_dedups() {
        let hist = vec![p(271), p(274), p(305), p(271), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        assert_eq!(s.len(), 3); // bins 270, 300, 900
        assert_eq!(s.price_of(0), p(270));
        assert_eq!(s.price_of(1), p(300));
        assert_eq!(s.price_of(2), p(900));
    }

    #[test]
    fn state_lookup_snaps_to_nearest() {
        let hist = vec![p(270), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        assert_eq!(s.state_of(p(275)), 0);
        assert_eq!(s.state_of(p(100)), 0); // below range
        assert_eq!(s.state_of(p(2_000)), 1); // above range
        assert_eq!(s.state_of(p(500)), 0); // closer to 270
        assert_eq!(s.state_of(p(700)), 1); // closer to 900
    }

    #[test]
    fn up_count_respects_bid() {
        let hist = vec![p(270), p(500), p(900)];
        let s = StateSpace::from_history(&hist, 10);
        assert_eq!(s.up_count(p(500)), 2);
        assert_eq!(s.up_count(p(499)), 1);
        assert_eq!(s.up_count(p(100)), 0);
        assert_eq!(s.up_count(p(10_000)), 3);
    }

    #[test]
    #[should_panic(expected = "needs observations")]
    fn empty_history_panics() {
        StateSpace::from_history(&[], 10);
    }
}
