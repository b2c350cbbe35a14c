//! Order statistics over the timings one run collects.
//!
//! Percentiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q * n)`. A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a p90 needs at least 100 samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Errors
///
/// Refuses an empty sample set.
pub fn median(samples: &[f64]) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("median of no samples".to_owned());
    }
    let s = sorted(samples);
    let n = s.len();
    Ok(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// 1-based nearest rank of quantile `q` among `n` samples, clamped to
/// `1..=n`.
pub fn nearest_rank(q: f64, n: usize) -> usize {
    // The small epsilon keeps exact products such as 0.9 * 100 from
    // rounding up to the next rank through floating-point error.
    let rank = (q * n as f64 - 1e-9).ceil();
    (rank.max(1.0) as usize).min(n)
}

/// The nearest-rank `q`-quantile, for `0 < q < 1`.
///
/// # Errors
///
/// Refuses the percentile when fewer than [`MIN_BEYOND`] samples lie
/// beyond it: such a tail is one or two unlucky samples, not a
/// percentile.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 {
        return Err(format!("p{:.0} of no samples", q * 100.0));
    }
    let rank = nearest_rank(q, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} over {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted(samples)[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic generator so the tests need no crates.
    fn values(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Few distinct values, so ties are common.
                ((x >> 33) % 50) as f64 / 4.0
            })
            .collect()
    }

    /// Brute force: the smallest sample `v` such that at least `q * n`
    /// samples are `<= v`, found by trying every sample.
    fn oracle_percentile(samples: &[f64], q: f64) -> f64 {
        let n = samples.len() as f64;
        let mut best: Option<f64> = None;
        for &v in samples {
            let at_or_below = samples.iter().filter(|&&w| w <= v).count() as f64;
            if at_or_below >= q * n - 1e-9 && best.is_none_or(|b| v < b) {
                best = Some(v);
            }
        }
        best.expect("non-empty")
    }

    /// Brute force: a value `m` with at least half the samples on each
    /// side; for even counts the mean of the two values that straddle it.
    fn oracle_median(samples: &[f64]) -> f64 {
        let n = samples.len();
        let mut lower = None;
        let mut upper = None;
        for &v in samples {
            let below = samples.iter().filter(|&&w| w < v).count();
            let at_or_below = samples.iter().filter(|&&w| w <= v).count();
            // v occupies sorted positions below+1 ..= at_or_below.
            if below < n.div_ceil(2) && n.div_ceil(2) <= at_or_below {
                lower = Some(v);
            }
            if below < n / 2 + 1 && n / 2 < at_or_below {
                upper = Some(v);
            }
        }
        let (lo, hi) = (lower.expect("lower"), upper.expect("upper"));
        if n % 2 == 1 {
            lo
        } else {
            (lo + hi) / 2.0
        }
    }

    #[test]
    fn median_matches_oracle() {
        for n in 1..60 {
            for seed in 0..8 {
                let v = values(seed * 131 + n as u64, n);
                assert_eq!(median(&v).unwrap(), oracle_median(&v), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn percentile_matches_oracle_when_allowed() {
        for n in 1..400 {
            let v = values(n as u64, n);
            for q in [0.5, 0.9, 0.99] {
                match percentile(&v, q) {
                    Ok(p) => assert_eq!(p, oracle_percentile(&v, q), "n={n} q={q}"),
                    Err(_) => assert!(n - nearest_rank(q, n) < MIN_BEYOND, "n={n} q={q}"),
                }
            }
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert!(percentile(&values(1, 99), 0.9).is_err());
        assert!(percentile(&values(1, 100), 0.9).is_ok());
        assert_eq!(nearest_rank(0.9, 100), 90);
        assert_eq!(nearest_rank(0.5, 1), 1);
        assert!(median(&[]).is_err());
    }
}
