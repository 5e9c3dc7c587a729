//! Bit-identity properties of the permutation scan.
//!
//! The scan ([`PermutationScan`]) is a pure optimisation: for any trace,
//! window (aligned or not, overrunning the trace or disjoint from it),
//! bid grid, and zone mask, it must produce *exactly* the integers and
//! floats of the naive per-permutation history walk — and a full adaptive
//! run driven by it must be byte-equal to one driven by the naive walk,
//! with or without the incremental window cache.

use proptest::prelude::*;
use redspot::core::adaptive::forecast::{estimate, window_stats, Forecast};
use redspot::core::PermutationScan;
use redspot::prelude::*;
use redspot::trace::gen::{GenConfig, ZoneRegime};

/// Arbitrary aligned multi-zone traces: 1–3 zones, 8–300 samples, prices
/// drawn (via a per-case LCG, so lengths stay aligned across zones) from
/// a palette straddling the whole bid grid plus unaffordable spikes.
fn arb_traces() -> impl Strategy<Value = TraceSet> {
    (
        1usize..=3,
        8u64..300,
        0u64..1_000_000,
        prop_oneof![Just(0u64), Just(3_600), Just(450)],
    )
        .prop_map(|(n_zones, len, seed, start)| {
            const PALETTE: [u64; 8] = [150, 270, 470, 810, 1_070, 2_000, 3_070, 5_000];
            let mut state = seed.wrapping_mul(2).wrapping_add(1);
            let mut next = move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 33
            };
            TraceSet::new(
                (0..n_zones)
                    .map(|_| {
                        let prices = (0..len)
                            .map(|_| Price::from_millis(PALETTE[(next() % 8) as usize]))
                            .collect();
                        redspot::trace::PriceSeries::new(SimTime::from_secs(start), prices)
                    })
                    .collect(),
            )
        })
}

/// Arbitrary windows, deliberately including unaligned phases, windows
/// overrunning the trace end, and windows disjoint from the trace.
fn arb_window() -> impl Strategy<Value = Window> {
    (0u64..120_000, 1u64..100_000).prop_map(|(start, dur)| {
        Window::new(SimTime::from_secs(start), SimTime::from_secs(start + dur))
    })
}

/// A non-empty subset of the paper bid grid (plus the $0.81 sweet spot).
fn arb_grid() -> impl Strategy<Value = Vec<Price>> {
    (1u32..0xFFFF).prop_map(|mask| {
        let mut full = paper_bid_grid();
        full.push(Price::from_millis(810));
        let picked: Vec<Price> = full
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 16)) != 0)
            .map(|(_, &b)| b)
            .collect();
        if picked.is_empty() {
            vec![Price::from_millis(810)]
        } else {
            picked
        }
    })
}

fn forecast_bits(f: &Forecast) -> (u64, u64, u64) {
    (
        f.progress_rate.to_bits(),
        f.spend_rate.to_bits(),
        f.availability.to_bits(),
    )
}

/// All non-empty zone masks over `n` zones.
fn zone_masks(n: usize) -> Vec<Vec<bool>> {
    (1u32..(1 << n))
        .map(|bits| (0..n).map(|z| bits & (1 << z) != 0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every (bid, zone mask, policy) permutation, the scan's integer
    /// window statistics and the resulting float forecast are bit-equal to
    /// the naive walk's.
    #[test]
    fn scan_forecasts_are_bit_identical_to_naive(
        traces in arb_traces(),
        window in arb_window(),
        grid in arb_grid(),
    ) {
        let zones: Vec<ZoneId> = traces.zone_ids().collect();
        let scan = PermutationScan::build(&traces, &zones, &grid, window);
        for &bid in &grid {
            let j = scan.bid_index(bid);
            for mask in zone_masks(zones.len()) {
                let selected: Vec<ZoneId> = zones
                    .iter()
                    .zip(&mask)
                    .filter_map(|(&z, &on)| on.then_some(z))
                    .collect();
                let naive = window_stats(&traces, &selected, window, bid);
                prop_assert_eq!(scan.stats(j, &mask), naive, "stats bid {} mask {:?}", bid, &mask);
                for kind in [
                    PolicyKind::Periodic,
                    PolicyKind::MarkovDaly,
                    PolicyKind::SpotOnCadence,
                    PolicyKind::RandomizedBid(0xB1D),
                ] {
                    let reference = estimate(&traces, &selected, window, bid, CkptCosts::LOW, kind);
                    let scanned = scan.forecast(j, &mask, CkptCosts::LOW, kind);
                    prop_assert_eq!(
                        forecast_bits(&scanned),
                        forecast_bits(&reference),
                        "forecast bid {} mask {:?} kind {}", bid, &mask, kind
                    );
                }
            }
        }
    }

    /// Advancing one scan through a random walk of decision points gives
    /// the same structures as a cold build at every point — including
    /// misaligned hops that force the rebuild path and windows sliding off
    /// the trace end.
    #[test]
    fn incremental_advance_matches_cold_build(
        traces in arb_traces(),
        grid in arb_grid(),
        start in 0u64..50_000,
        deltas in prop::collection::vec(1u64..30_000, 2..10),
        history in prop_oneof![Just(21_600u64), Just(86_400), Just(12_345)],
    ) {
        let zones: Vec<ZoneId> = traces.zone_ids().collect();
        let mut now = SimTime::from_secs(start.max(1));
        let back = SimDuration::from_secs(history);
        // `now >= 1` and `history >= 1`, so `now - history` (saturating)
        // is always strictly before `now`.
        let mut scan = PermutationScan::build(
            &traces,
            &zones,
            &grid,
            Window::new(now.saturating_sub(back), now),
        );
        for &d in &deltas {
            now += SimDuration::from_secs(d);
            let window = Window::new(now.saturating_sub(back), now);
            scan.advance(&traces, window);
            let cold = PermutationScan::build(&traces, &zones, &grid, window);
            prop_assert_eq!(scan.n_steps(), cold.n_steps());
            for &bid in &grid {
                let j = scan.bid_index(bid);
                for mask in zone_masks(zones.len()) {
                    prop_assert_eq!(scan.stats(j, &mask), cold.stats(j, &mask));
                }
                for n in 1..=zones.len() {
                    prop_assert_eq!(scan.top_zones(j, n), cold.top_zones(j, n));
                }
            }
        }
    }
}

/// Realistic markets for whole-run equality (mirrors the adaptive
/// property suite's generator, shortened).
fn arb_market() -> impl Strategy<Value = TraceSet> {
    (
        0u64..5_000,
        150u64..800,     // calm base
        1_000u64..3_000, // elevated base
        0.0f64..0.05,    // p_calm_to_elevated
        0.02f64..0.2,    // p_elevated_to_calm
        0.0f64..0.02,    // p_spike
    )
        .prop_map(|(seed, calm, elev, p_up, p_down, p_spike)| {
            let mk = |i: usize| ZoneRegime {
                calm_base: calm + 15 * i as u64,
                calm_jitter: calm / 10,
                p_move: 0.15,
                elevated_base: elev + 50 * i as u64,
                elevated_jitter: elev / 10,
                p_calm_to_elevated: p_up,
                p_elevated_to_calm: p_down,
                p_spike,
                spike_range: (2_000, 3_070),
                spike_steps: (2, 20),
            };
            GenConfig {
                zones: (0..3).map(mk).collect(),
                duration: SimDuration::from_hours(24 * 3),
                start: SimTime::ZERO,
                seed,
                common_amplitude: 6,
            }
            .generate()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A full adaptive experiment is byte-equal across the naive decision
    /// loop and the cached scan.
    #[test]
    fn adaptive_runs_are_byte_equal_across_modes(
        traces in arb_market(),
        slack_pct in 10u64..60,
        seed in 0u64..100,
    ) {
        let mut cfg = ExperimentConfig::paper_default()
            .with_slack_percent(slack_pct)
            .with_seed(seed);
        cfg.app = AppSpec::new(SimDuration::from_hours(10));
        cfg.deadline = SimDuration::from_secs(cfg.app.work.secs() * (100 + slack_pct) / 100);
        let start = SimTime::from_hours(48);

        // Put all four scanable policies in the permutation grid — the
        // stochastic pair must not break scan/naive bit-equality either.
        let acfg = AdaptiveConfig {
            policy_kinds: vec![
                PolicyKind::Periodic,
                PolicyKind::MarkovDaly,
                PolicyKind::SpotOnCadence,
                PolicyKind::RandomizedBid(0xB1D),
            ],
            ..AdaptiveConfig::default()
        };
        let naive = AdaptiveRunner::new(&traces, start, cfg.clone())
            .with_config(acfg.clone())
            .with_naive_forecasts()
            .run();
        let scanned = AdaptiveRunner::new(&traces, start, cfg)
            .with_config(acfg)
            .run();

        prop_assert_eq!(&naive, &scanned, "scan changed the run");
        prop_assert!(naive.met_deadline);
    }
}
