//! Property-based tests for the trace substrate.

use proptest::prelude::*;
use redspot_trace::gen::{GenConfig, ZoneRegime};
use redspot_trace::{Price, PriceSeries, SimDuration, SimTime, Window};

proptest! {
    /// Price fixed-point round trip through dollars never drifts more
    /// than half a milli-dollar.
    #[test]
    fn price_dollar_round_trip(millis in 0u64..100_000_000) {
        let p = Price::from_millis(millis);
        let back = Price::from_dollars(p.as_dollars());
        prop_assert_eq!(p, back);
    }

    /// Price arithmetic is consistent with the underlying integers.
    #[test]
    fn price_arithmetic_is_integer_arithmetic(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let (pa, pb) = (Price::from_millis(a), Price::from_millis(b));
        prop_assert_eq!((pa + pb).millis(), a + b);
        prop_assert_eq!(pa.saturating_sub(pb).millis(), a.saturating_sub(b));
        prop_assert_eq!(pa.midpoint(pb).millis(), (a + b) / 2);
        prop_assert_eq!((pa * 3).millis(), a * 3);
    }

    /// Pro-rated cost is monotone in duration and exact on whole hours.
    #[test]
    fn prorated_monotone(rate in 1u64..30_000, secs in 0u64..1_000_000) {
        let p = Price::from_millis(rate);
        prop_assert!(p.prorated(secs) <= p.prorated(secs + 60));
        prop_assert_eq!(p.prorated(3_600), p);
    }

    /// Billed hours is the ceiling of the duration in hours.
    #[test]
    fn billed_hours_is_ceiling(secs in 0u64..1_000_000) {
        let d = SimDuration::from_secs(secs);
        let h = d.billed_hours();
        prop_assert!(h * 3_600 >= secs);
        prop_assert!(h == 0 || (h - 1) * 3_600 < secs);
    }

    /// price_at always returns one of the series' samples, and slicing
    /// preserves lookups inside the window.
    #[test]
    fn series_lookup_and_slice_agree(
        samples in prop::collection::vec(1u64..5_000, 4..60),
        query in 0u64..20_000,
        lo in 0usize..3,
    ) {
        let prices: Vec<Price> = samples.iter().map(|&m| Price::from_millis(m)).collect();
        let s = PriceSeries::new(SimTime::ZERO, prices.clone());
        let t = SimTime::from_secs(query);
        prop_assert!(prices.contains(&s.price_at(t)));

        let w = Window::new(
            SimTime::from_secs(lo as u64 * 300),
            s.end(),
        );
        let sub = s.slice(w);
        // Lookups inside the slice agree with the parent series.
        let mid = SimTime::from_secs(lo as u64 * 300 + 150);
        prop_assert_eq!(sub.price_at(mid), s.price_at(mid));
    }

    /// Windows laid out by the overlapping layout always fit the span.
    #[test]
    fn layout_fits_span(count in 1usize..50, span_h in 40u64..200) {
        let span = Window::new(SimTime::ZERO, SimTime::from_hours(span_h));
        let wins = redspot_trace::overlapping_windows(span, SimDuration::from_hours(30), count);
        prop_assert_eq!(wins.len(), count);
        for w in &wins {
            prop_assert!(w.start() >= span.start());
            prop_assert!(w.end() <= span.end());
        }
    }

    /// Generated traces are positive, aligned and deterministic per seed,
    /// whatever the regime parameters.
    #[test]
    fn generator_is_total_and_deterministic(
        seed in 0u64..1_000,
        calm in 100u64..1_000,
        elev in 1_000u64..3_000,
        p_spike in 0.0f64..0.05,
    ) {
        let regime = ZoneRegime {
            calm_base: calm,
            calm_jitter: calm / 10,
            p_move: 0.2,
            elevated_base: elev,
            elevated_jitter: elev / 10,
            p_calm_to_elevated: 0.01,
            p_elevated_to_calm: 0.05,
            p_spike,
            spike_range: (elev, elev * 2),
            spike_steps: (1, 5),
        };
        let cfg = GenConfig {
            zones: vec![regime.clone(), regime],
            duration: SimDuration::from_hours(24),
            start: SimTime::ZERO,
            seed,
            common_amplitude: 5,
        };
        let a = cfg.generate();
        let b = cfg.generate();
        prop_assert_eq!(&a, &b);
        for z in a.zones() {
            prop_assert!(z.min_price() > Price::ZERO);
            prop_assert_eq!(z.len(), 24 * 12);
        }
    }

    /// Combined availability is at least every single zone's availability
    /// and at most their sum.
    #[test]
    fn combined_availability_bounds(seed in 0u64..200, bid in 200u64..3_000) {
        let set = GenConfig::high_volatility(seed).generate();
        let bid = Price::from_millis(bid);
        let combined = set.combined_availability(bid);
        let singles = set.zone_availabilities(bid);
        for &s in &singles {
            prop_assert!(combined >= s - 1e-12);
        }
        prop_assert!(combined <= singles.iter().sum::<f64>() + 1e-12);
        prop_assert!((0.0..=1.0).contains(&combined));
    }
}

/// The pre-index `next_price_change`: a linear forward rescan from the
/// sample covering `t`. Kept as the reference implementation for the
/// equivalence property below.
fn next_price_change_linear(s: &PriceSeries, t: SimTime) -> Option<(SimTime, Price)> {
    let samples = s.samples();
    let idx = if t <= s.start() {
        0
    } else {
        (((t.secs() - s.start().secs()) / s.step()) as usize).min(samples.len() - 1)
    };
    let cur = samples[idx];
    for (j, &p) in samples.iter().enumerate().skip(idx + 1) {
        if p != cur {
            return Some((s.start() + SimDuration::from_secs(j as u64 * s.step()), p));
        }
    }
    None
}

proptest! {
    /// The O(log n) change-point index answers `next_price_change`
    /// identically to the original linear rescan, over arbitrary series
    /// (including long flat runs, which is where the index pays off) and
    /// arbitrary query times including points before the start and past
    /// the end.
    ///
    /// A clone taken before any query answers from the index whichever of
    /// the two builds it.
    #[test]
    fn next_price_change_matches_linear_rescan(
        runs in prop::collection::vec((1u64..6, 1usize..8), 1..20),
        start in 0u64..2_000,
        query in 0u64..60_000,
        clone_first in 0u8..2,
    ) {
        let s = PriceSeries::new(SimTime::from_secs(start), run_prices(&runs));
        let early = s.clone();
        let t = SimTime::from_secs(query);
        let expected = next_price_change_linear(&s, t);
        let (first, second) = if clone_first == 1 { (&early, &s) } else { (&s, &early) };
        prop_assert_eq!(first.next_price_change(t), expected);
        prop_assert_eq!(second.next_price_change(t), expected);
    }
}

/// A series built from (value, run-length) pairs, so flat spans of every
/// length are exercised, not just i.i.d. samples.
fn run_prices(runs: &[(u64, usize)]) -> Vec<Price> {
    runs.iter()
        .flat_map(|&(v, n)| std::iter::repeat_n(Price::from_millis(v * 100), n))
        .collect()
}

/// Two threads race to build the one index their clones share: both
/// answer every query exactly as the linear rescan does.
#[test]
fn clones_queried_concurrently_match_linear_rescan() {
    let runs: Vec<(u64, usize)> = (0..400).map(|i| (1 + i % 5, 1 + i as usize % 7)).collect();
    let s = PriceSeries::new(SimTime::from_secs(600), run_prices(&runs));
    let queries: Vec<SimTime> = (0..s.end().secs() + 900)
        .step_by(97)
        .map(SimTime::from_secs)
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|&t| next_price_change_linear(&s, t))
        .collect();
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        let forward = s.clone();
        let backward = s.clone();
        let (start, queries, expected) = (&start, &queries, &expected);
        let a = scope.spawn(move || {
            start.wait();
            for (t, want) in queries.iter().zip(expected) {
                assert_eq!(forward.next_price_change(*t), *want, "at {t:?}");
            }
        });
        let b = scope.spawn(move || {
            start.wait();
            for (t, want) in queries.iter().zip(expected).rev() {
                assert_eq!(backward.next_price_change(*t), *want, "at {t:?}");
            }
        });
        a.join().unwrap();
        b.join().unwrap();
    });
}

proptest! {
    /// CSV export/import round-trips any generated trace exactly
    /// (milli-dollar precision is preserved by the 3-decimal format).
    #[test]
    fn csv_round_trip_is_exact(seed in 0u64..300) {
        use std::io::Cursor;
        let cfg = GenConfig { duration: SimDuration::from_hours(24), ..GenConfig::high_volatility(seed) };
        let set = cfg.generate();
        let mut buf = Vec::new();
        redspot_trace::io::export_csv(&set, &mut buf).unwrap();
        let back = redspot_trace::io::import_csv(Cursor::new(buf)).unwrap();
        prop_assert_eq!(set, back);
    }

    /// Bootstrap resampling preserves the sampling grid and value domain.
    #[test]
    fn bootstrap_respects_grid(seed in 0u64..100, block_h in 2u64..48, out_days in 1u64..20) {
        use redspot_trace::bootstrap::{resample, BootstrapConfig};
        let src = GenConfig::high_volatility(seed).generate();
        let cfg = BootstrapConfig {
            block: SimDuration::from_hours(block_h),
            output_len: SimDuration::from_hours(out_days * 24),
            seed,
        };
        let out = resample(&src, &cfg);
        prop_assert_eq!(out.n_zones(), src.n_zones());
        prop_assert_eq!(out.duration(), SimDuration::from_hours(out_days * 24));
        prop_assert!(out.zones().iter().all(|z| z.min_price() > Price::ZERO));
    }
}
