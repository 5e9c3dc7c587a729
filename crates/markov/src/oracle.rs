//! The dense reference kernel, for tests only, and the properties that pin
//! the sparse kernel to it bit for bit.
//!
//! [`DenseModel`] is the Appendix-B uptime computation in its plainest
//! form: a row-major `n × n` probability matrix, one start state per
//! propagation, and a fresh distribution per step. [`MarkovModel`] must
//! return exactly the same `SimDuration` for every query, at every
//! sampling step. For `average_uptime` that covers both of its paths: the
//! backward survival vector and the forward lanes the bound sends back.

use crate::states::StateSpace;
use crate::uptime::{MarkovModel, EXACT_STEPS, MAX_EXPECTED_STEPS};
use proptest::prelude::*;
use redspot_trace::gen::GenConfig;
use redspot_trace::{
    highlight_bids, Price, PriceSeries, SimDuration, SimTime, TraceSet, Window, PRICE_STEP,
};

/// The dense model: the same states and probabilities as [`MarkovModel`],
/// stored and propagated without skipping zeros.
struct DenseModel {
    states: StateSpace,
    n: usize,
    /// Row-major transition probabilities.
    probs: Vec<f64>,
    step_secs: u64,
}

impl DenseModel {
    fn with_bin(series: &PriceSeries, window: Window, bin_millis: u64) -> DenseModel {
        let slice = series.slice(window);
        let samples = slice.samples();
        let states = StateSpace::from_history(samples, bin_millis);
        let history = if samples.len() >= 2 {
            samples.to_vec()
        } else {
            vec![samples[0], samples[0]]
        };
        let n = states.len();
        let mut counts = vec![0u64; n * n];
        for w in history.windows(2) {
            counts[states.state_of(w[0]) * n + states.state_of(w[1])] += 1;
        }
        let mut probs = vec![0.0f64; n * n];
        for row in 0..n {
            let total: u64 = counts[row * n..(row + 1) * n].iter().sum();
            if total == 0 {
                probs[row * n + row] = 1.0;
            } else {
                for col in 0..n {
                    probs[row * n + col] = counts[row * n + col] as f64 / total as f64;
                }
            }
        }
        DenseModel {
            states,
            n,
            probs,
            step_secs: slice.step(),
        }
    }

    fn step_masked(&self, dist: &[f64], up: &[bool]) -> Vec<f64> {
        let mut next = vec![0.0f64; self.n];
        for (i, (&mass, &alive)) in dist.iter().zip(up).enumerate() {
            if !alive || mass == 0.0 {
                continue;
            }
            let row = &self.probs[i * self.n..(i + 1) * self.n];
            for (nx, &p) in next.iter_mut().zip(row) {
                *nx += mass * p;
            }
        }
        next
    }

    fn expected_uptime(&self, current_price: Price, bid: Price) -> SimDuration {
        if current_price > bid {
            return SimDuration::ZERO;
        }
        let up: Vec<bool> = (0..self.n)
            .map(|i| self.states.price_of(i) <= bid)
            .collect();
        let mut dist = vec![0.0f64; self.n];
        dist[self.states.state_of(current_price)] = 1.0;
        if !up[self.states.state_of(current_price)] {
            if let Some(i) = up.iter().position(|&u| u) {
                dist.iter_mut().for_each(|d| *d = 0.0);
                dist[i] = 1.0;
            } else {
                return SimDuration::ZERO;
            }
        }
        let mut expected_steps = 0.0f64;
        let tol = 1.0 / self.step_secs as f64;
        let mut prev_alive = 1.0f64;
        for k in 0..EXACT_STEPS {
            dist = self.step_masked(&dist, &up);
            let alive: f64 = dist.iter().sum();
            expected_steps += alive;
            if alive < tol {
                break;
            }
            if k + 1 == EXACT_STEPS {
                let r = (alive / prev_alive).clamp(0.0, 0.999_999);
                expected_steps += alive * r / (1.0 - r);
            }
            prev_alive = alive;
        }
        let steps = expected_steps.min(MAX_EXPECTED_STEPS);
        SimDuration::from_secs((steps * self.step_secs as f64).round() as u64)
    }

    fn average_uptime(&self, bid: Price) -> SimDuration {
        let ups: Vec<usize> = (0..self.n)
            .filter(|&i| self.states.price_of(i) <= bid)
            .collect();
        if ups.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = ups
            .iter()
            .map(|&i| self.expected_uptime(self.states.price_of(i), bid).secs())
            .sum();
        SimDuration::from_secs(total / ups.len() as u64)
    }
}

fn p(millis: u64) -> Price {
    Price::from_millis(millis)
}

/// The sparse and the dense model of the whole of `prices`, sampled every
/// `step_secs` seconds.
fn models(prices: &[u64], bin_millis: u64, step_secs: u64) -> (MarkovModel, DenseModel) {
    let series = PriceSeries::with_step(
        SimTime::ZERO,
        step_secs,
        prices.iter().map(|&m| p(m)).collect(),
    );
    let window = Window::new(series.start(), series.end());
    (
        MarkovModel::with_bin(&series, window, bin_millis),
        DenseModel::with_bin(&series, window, bin_millis),
    )
}

/// Asserts that every up state's uptime at `bid`, and their average,
/// equal the oracle's, and returns how many starts the backward pass left
/// to the forward kernel.
fn assert_every_start_matches(sparse: &MarkovModel, dense: &DenseModel, bid: Price) -> usize {
    let n_up = dense.states.up_count(bid);
    let want: Vec<SimDuration> = (0..n_up)
        .map(|s| dense.expected_uptime(dense.states.price_of(s), bid))
        .collect();
    assert_eq!(sparse.up_state_uptimes(n_up), want, "bid {bid}");
    assert_eq!(
        sparse.average_uptime(bid),
        dense.average_uptime(bid),
        "bid {bid}"
    );
    sparse
        .backward_uptimes(n_up)
        .iter()
        .filter(|up| up.is_none())
        .count()
}

/// The starts the backward pass leaves to the forward kernel at `bid`.
fn doubtful(model: &MarkovModel, dense: &DenseModel, bid: Price) -> Vec<usize> {
    let settled = model.backward_uptimes(dense.states.up_count(bid));
    (0..settled.len())
        .filter(|&s| settled[s].is_none())
        .collect()
}

/// Everyday price levels; with 10- and 50-milli bins some share a state.
const ALPHABET: [u64; 8] = [250, 257, 270, 281, 300, 330, 410, 480];

/// A 2–600-sample history made of runs of one price each: mostly levels
/// from [`ALPHABET`], sometimes a spike far above them. Long runs at a
/// high bid make sticky chains that reach the geometric tail or the cap;
/// short runs and low bids make chains that absorb within a few steps.
fn arb_history() -> impl Strategy<Value = Vec<u64>> {
    let run = (0usize..10, 500u64..3_000, 1usize..60).prop_map(|(pick, spike, len)| {
        let price = ALPHABET.get(pick).copied().unwrap_or(spike);
        (price, len)
    });
    (prop::collection::vec(run, 1..40), 2usize..=600).prop_map(|(runs, cap)| {
        let mut history: Vec<u64> = runs
            .into_iter()
            .flat_map(|(price, len)| std::iter::repeat_n(price, len))
            .take(cap)
            .collect();
        if history.len() < 2 {
            history.push(history[0]);
        }
        history
    })
}

fn arb_bin() -> impl Strategy<Value = u64> {
    prop_oneof![Just(10u64), Just(50u64)]
}

/// Sampling steps in seconds. At one second `Th` is 1 itself, so rounding
/// in the survival decides when a sticky chain stops.
fn arb_step() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(2u64), Just(60u64), Just(300u64)]
}

/// Prices and bids from below the lowest level to above the highest spike.
fn arb_price() -> impl Strategy<Value = u64> {
    0u64..3_500
}

/// A history in which every state is the source of a power-of-two number
/// of transitions, so every transition probability is a binary fraction
/// (as in `geometric_survival_matches_closed_form`). Each [`ALPHABET`]
/// level appears 0 or 2^e times (e < 6) in shuffled order, and the first
/// sample is repeated at the end, so each appearance is one transition's
/// source. Sums of such probabilities are often exact, which lands
/// survivals exactly on `Th` and seconds exactly on `.5`. Use a one-milli
/// bin, so that no two levels share a state.
fn arb_dyadic_history() -> impl Strategy<Value = Vec<u64>> {
    (
        prop::collection::vec(0u32..7, ALPHABET.len()),
        1u64..u64::MAX,
    )
        .prop_map(|(exponents, mut seed)| {
            let mut history: Vec<u64> = ALPHABET
                .iter()
                .zip(&exponents)
                .filter(|&(_, &e)| e > 0)
                .flat_map(|(&price, &e)| std::iter::repeat_n(price, 1 << (e - 1)))
                .collect();
            if history.is_empty() {
                history.push(ALPHABET[0]);
            }
            for i in (1..history.len()).rev() {
                // xorshift64: a fixed shuffle per seed.
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                history.swap(i, (seed % (i as u64 + 1)) as usize);
            }
            history.push(history[0]);
            history
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expected_uptime_equals_the_dense_oracle(
        history in arb_history(),
        bin in arb_bin(),
        step in arb_step(),
        queries in prop::collection::vec((arb_price(), arb_price()), 1..8),
    ) {
        let (sparse, dense) = models(&history, bin, step);
        for (price, bid) in queries {
            prop_assert_eq!(
                sparse.expected_uptime(p(price), p(bid)),
                dense.expected_uptime(p(price), p(bid)),
                "price {} bid {} bin {} step {}", price, bid, bin, step
            );
        }
    }

    #[test]
    fn average_uptime_equals_the_dense_oracle(
        history in arb_history(),
        bin in arb_bin(),
        step in arb_step(),
        bids in prop::collection::vec(arb_price(), 1..5),
    ) {
        let (sparse, dense) = models(&history, bin, step);
        for bid in bids {
            prop_assert_eq!(
                sparse.average_uptime(p(bid)),
                dense.average_uptime(p(bid)),
                "bid {} bin {} step {}", bid, bin, step
            );
        }
    }

    #[test]
    fn dyadic_chains_hit_ties_and_thresholds_exactly(
        history in arb_dyadic_history(),
        step in arb_step(),
    ) {
        let (sparse, dense) = models(&history, 1, step);
        for bid in ALPHABET {
            assert_every_start_matches(&sparse, &dense, p(bid));
        }
    }

    #[test]
    fn combined_uptime_equals_the_dense_oracle(
        zones in prop::collection::vec((arb_history(), arb_price()), 1..4),
        bin in arb_bin(),
        step in arb_step(),
        bid in arb_price(),
    ) {
        let (sparse, dense): (Vec<_>, Vec<_>) =
            zones.iter().map(|(history, _)| models(history, bin, step)).unzip();
        let prices: Vec<Price> = zones.iter().map(|&(_, price)| p(price)).collect();
        let expected = dense
            .iter()
            .zip(&prices)
            .map(|(m, &price)| m.expected_uptime(price, p(bid)))
            .fold(SimDuration::ZERO, |a, b| a + b);
        prop_assert_eq!(MarkovModel::combined_uptime(&sparse, &prices, p(bid)), expected);
    }
}

#[test]
fn geometric_tail_matches_the_oracle() {
    // From 270 the price leaves with probability 1/200 per step, so the
    // survival after 600 steps (≈ 0.05) is still above `Th` and the tail
    // closes the sum at exactly 200 steps; without the tail it would stop
    // near 190.
    let mut history = vec![270; 200];
    history.extend([900, 270]);
    let (sparse, dense) = models(&history, 10, PRICE_STEP);
    let up = sparse.expected_uptime(p(270), p(500));
    assert_eq!(up, dense.expected_uptime(p(270), p(500)));
    assert!(up.secs().abs_diff(200 * PRICE_STEP) <= 1, "got {up}");
    assert_eq!(sparse.average_uptime(p(500)), dense.average_uptime(p(500)));
}

#[test]
fn step_cap_matches_the_oracle() {
    // A price that never leaves the bid: survival 1 forever, capped.
    let (sparse, dense) = models(&[270; 100], 10, PRICE_STEP);
    let up = sparse.expected_uptime(p(270), p(500));
    assert_eq!(up, dense.expected_uptime(p(270), p(500)));
    assert_eq!(up.secs(), MAX_EXPECTED_STEPS as u64 * PRICE_STEP);
    assert_eq!(sparse.average_uptime(p(500)), up);
}

#[test]
fn nudge_matches_the_oracle() {
    // Price 700 snaps to the 900 state, which bid 800 leaves down.
    let (sparse, dense) = models(
        &[270, 270, 270, 270, 300, 900, 270, 270, 300, 900, 270],
        10,
        PRICE_STEP,
    );
    assert_eq!(
        sparse.expected_uptime(p(700), p(800)),
        dense.expected_uptime(p(700), p(800))
    );
}

#[test]
fn closed_class_beside_a_leaky_one_matches_the_oracle() {
    // {270, 280} is closed, with transition probabilities that are not
    // binary fractions (270 -> 270 is 3/7), so survival from it is 1 only
    // up to rounding; 300 always moves to the down state 900.
    let history = [
        300, 900, 300, 900, 270, 280, 280, 270, 270, 280, 270, 280, 280, 270, 270, 270, 280,
    ];
    let bid = p(500);
    let query = |step: u64| {
        let (sparse, dense) = models(&history, 10, step);
        for price in [270, 300] {
            assert_eq!(
                sparse.expected_uptime(p(price), bid),
                dense.expected_uptime(p(price), bid),
                "price {price} step {step}"
            );
        }
        assert_eq!(sparse.average_uptime(bid), dense.average_uptime(bid));
        [
            sparse.expected_uptime(p(270), bid).secs(),
            sparse.expected_uptime(p(300), bid).secs(),
            sparse.average_uptime(bid).secs(),
        ]
    };
    // At five minutes the closed start takes the 30-day cap.
    assert_eq!(query(300), [2_592_000, 300, 1_728_100]);
    // At one second `Th` is 1, and rounding ends the closed start's sum
    // after two steps: a start that cannot leave the bid does not always
    // reach the cap (8,640 s here).
    assert_eq!(query(1), [2, 1, 3]);
}

#[test]
fn a_start_whose_backward_sum_rounds_the_other_way_falls_back() {
    // A generated window at the policies' five-cent bin. From its lowest
    // state, the forward lane's expected up-time rounds to 33,577 s, but
    // the backward survivals, summed by the same rules, round to 33,578 s:
    // the two kernels associate their sums differently, and here the
    // last bits straddle a half second. The bound must send this start
    // to the forward kernel.
    let traces = GenConfig::high_volatility(0).generate();
    let series = &traces.zones()[1];
    let window = Window::new(SimTime::from_hours(450), SimTime::from_hours(498));
    let bid = p(810);
    let sparse = MarkovModel::with_bin(series, window, 50);
    let dense = DenseModel::with_bin(series, window, 50);
    assert!(doubtful(&sparse, &dense, bid).contains(&0));
    assert_every_start_matches(&sparse, &dense, bid);
    assert_eq!(
        sparse.up_state_uptimes(dense.states.up_count(bid))[0].secs(),
        33_577
    );
}

#[test]
fn the_stop_step_is_checked_at_every_step() {
    // On each history, the forward lane from one start stops at a step
    // where its survival is just below `Th` and the backward survival is
    // at or just above it. One step later the backward survival is
    // clearly below `Th`, so checking the stop only where the backward
    // pass stops would settle the start one step late (8 s instead of
    // 7 s at a 2 s step; 3 s instead of 2 s at 1 s).
    let cases: [(&[u64], u64, usize); 2] = [
        (
            &[
                330, 330, 270, 270, 270, 330, 250, 330, 250, 300, 300, 250, 300,
            ],
            2,
            0,
        ),
        (
            &[
                270, 250, 300, 250, 270, 250, 330, 330, 300, 300, 270, 300, 270, 250,
            ],
            1,
            2,
        ),
    ];
    for (history, step, start) in cases {
        let (sparse, dense) = models(history, 10, step);
        let bid = p(300);
        assert!(
            doubtful(&sparse, &dense, bid).contains(&start),
            "step {step}"
        );
        assert_every_start_matches(&sparse, &dense, bid);
    }
}

#[test]
fn a_tail_taking_start_widens_by_the_ratio() {
    // A daily sampling step puts a day's worth of seconds in every step,
    // so the geometric tail's `1/(1 − r)` widening shows in whole
    // seconds. From the lowest state this chain is still alive after 600
    // steps and takes the tail; the forward lane's answer is 332,993,407 s
    // (about 3,854 steps, under the cap). Bounding only the step sum, and
    // adding the backward tail to both ends, settles it 1 s off.
    let runs = [
        (410, 48),
        (900, 74),
        (270, 65),
        (480, 66),
        (410, 10),
        (270, 55),
        (410, 68),
        (900, 27),
        (250, 60),
        (330, 31),
        (270, 48),
        (480, 79),
        (900, 19),
        (250, 13),
        (410, 70),
        (300, 56),
    ];
    let history: Vec<u64> = runs
        .iter()
        .flat_map(|&(price, len)| std::iter::repeat_n(price, len))
        .collect();
    let (sparse, dense) = models(&history, 10, 86_400);
    let bid = p(410);
    assert!(doubtful(&sparse, &dense, bid).contains(&0));
    assert_every_start_matches(&sparse, &dense, bid);
    assert_eq!(sparse.expected_uptime(p(250), bid).secs(), 332_993_407);
}

/// The 48-hour windows of every zone of `traces`, `stride_hours` apart.
fn windows(traces: &TraceSet, stride_hours: u64) -> Vec<(usize, PriceSeries)> {
    let mut out = Vec::new();
    for (zone, series) in traces.zones().iter().enumerate() {
        let mut start = series.start();
        while start + SimDuration::from_hours(48) <= series.end() {
            let window = Window::new(start, start + SimDuration::from_hours(48));
            out.push((zone, series.slice(window)));
            start += SimDuration::from_hours(stride_hours);
        }
    }
    out
}

#[test]
fn generated_windows_match_the_oracle() {
    // Real windows at the policies' five-cent bin: the paper's markets,
    // queried as Markov-Daly (from the window's last price) and Threshold
    // (averaged over up states) do at the highlight bids and above every
    // level.
    let mut bids = highlight_bids().to_vec();
    bids.push(Price::from_dollars(3.07));
    let markets = [
        GenConfig::high_volatility(42).generate(),
        GenConfig::low_volatility(3).generate(),
    ];
    let mut compared = 0;
    let (mut starts, mut fallbacks) = (0, 0);
    for traces in &markets {
        for (zone, window) in windows(traces, 200) {
            let whole = Window::new(window.start(), window.end());
            let sparse = MarkovModel::with_bin(&window, whole, 50);
            let dense = DenseModel::with_bin(&window, whole, 50);
            let last = *window.samples().last().expect("non-empty window");
            for &bid in &bids {
                let at = format!("zone {zone} window at {} bid {bid}", window.start());
                assert_eq!(
                    sparse.expected_uptime(last, bid),
                    dense.expected_uptime(last, bid),
                    "{at}"
                );
                let n_up = dense.states.up_count(bid);
                fallbacks += assert_every_start_matches(&sparse, &dense, bid);
                starts += n_up;
                compared += 2;
            }
        }
    }
    // Four windows (at 0, 200, 400 and 600 h) of six zones, four bids,
    // two queries.
    assert_eq!(compared, 192);
    // The backward pass answers the large majority of `average_uptime`'s
    // 838 starts (all of them, when this was written); a bound that sent
    // every start forward would fail here.
    assert_eq!(starts, 838);
    assert!(
        fallbacks * 20 <= starts,
        "{fallbacks} of {starts} starts fell back to the forward kernel"
    );
}
