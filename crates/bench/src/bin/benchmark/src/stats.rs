//! Order statistics for benchmark samples.
//!
//! A tail percentile is only worth reporting when enough samples lie
//! beyond it: [`percentile`] refuses one with fewer than
//! [`MIN_BEYOND`] samples above it, so a run fails with a message instead
//! of printing a p99 that is really the maximum of a few dozen samples.

/// Samples that must lie strictly above a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Result<Vec<f64>, String> {
    if xs.is_empty() {
        return Err("no samples".into());
    }
    if let Some(bad) = xs.iter().find(|x| !x.is_finite()) {
        return Err(format!("non-finite sample {bad}"));
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> Result<f64, String> {
    let v = sorted(xs)?;
    let n = v.len();
    Ok(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank tail percentile `p` (in `(0.5, 1)`), refused unless at
/// least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.5 && p < 1.0, "percentile() is for tail percentiles");
    let v = sorted(xs)?;
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples would have only {beyond} samples beyond it (need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    Ok(v[rank - 1])
}

/// First, second and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them, so spreads here match ones computed with Python's
/// standard library.
pub fn quartiles(xs: &[f64]) -> Result<[f64; 3], String> {
    let v = sorted(xs)?;
    let len = v.len();
    if len == 1 {
        return Ok([v[0]; 3]);
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert!(median(&[]).is_err());
        assert!(median(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is the 990th, with exactly 10 above it.
        assert_eq!(percentile(&one_to(1000), 0.99).unwrap(), 990.0);
        // 999 samples: only 9 above p99 — refused, not clamped.
        let err = percentile(&one_to(999), 0.99).unwrap_err();
        assert!(err.contains("only 9 samples beyond"), "{err}");
        // 100 samples carry a p90 but no p99.
        assert_eq!(percentile(&one_to(100), 0.90).unwrap(), 90.0);
        assert!(percentile(&one_to(100), 0.99).is_err());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)).unwrap(), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]).unwrap(), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&one_to(5)).unwrap(), [1.5, 3.0, 4.5]);
        // Two samples extrapolate: statistics.quantiles([1, 2], n=4)
        // == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]).unwrap(), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[7.0]).unwrap(), [7.0; 3]);
    }
}
