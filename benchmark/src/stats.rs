//! The two estimators every reported number goes through.
//!
//! * [`percentile`] — nearest-rank percentile of the latencies *inside* one
//!   round (p50, p95).
//! * [`quantile`] — interpolated quantile *across* rounds. A run reports the
//!   **fast-quartile round**: p25 of a lower-is-better per-round value, p75
//!   of a higher-is-better one. Interference on a shared host only ever
//!   subtracts speed, so the fast quartile sits closer to the code's own
//!   cost than the median does, without chasing the single luckiest round
//!   the way a minimum would.

/// Nearest-rank percentile: the smallest sample with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`). Reorders `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let rank = ((p * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let (_, v, _) = samples.select_nth_unstable_by(rank - 1, f64::total_cmp);
    *v
}

/// Linearly interpolated quantile (`h = (n − 1)·q`, the "type 7" rule) of a
/// small set of per-round values.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

/// Which way a metric improves; selects the fast quartile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The fast-quartile round of a per-round series.
pub fn fast_quartile(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, 0.25),
        Better::Higher => quantile(values, 0.75),
    }
}

/// Across-round interquartile range as a share of the median — the
/// steadiness figure printed on the `host` line.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let med = quantile(values, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random samples with many duplicates.
    fn samples(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 40) % 997) as f64 / 7.0
            })
            .collect()
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        for n in [1usize, 2, 3, 10, 19, 20, 21, 200, 1001] {
            for p in [0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                let data = samples(n, n as u64 * 31 + 7);
                let mut sorted = data.clone();
                sorted.sort_by(f64::total_cmp);
                // Reference: count how many samples must lie at or below.
                let need = (p * n as f64).ceil().max(1.0) as usize;
                let want = sorted[need - 1];
                let mut work = data.clone();
                assert_eq!(percentile(&mut work, p), want, "n={n} p={p}");
                // The defining property, checked directly.
                let at_or_below = data.iter().filter(|&&x| x <= want).count();
                assert!(at_or_below >= need, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn quantile_matches_sorted_reference() {
        for n in [1usize, 2, 5, 12, 13] {
            let data = samples(n, 99 + n as u64);
            let mut sorted = data.clone();
            sorted.sort_by(f64::total_cmp);
            assert_eq!(quantile(&data, 0.0), sorted[0]);
            assert_eq!(quantile(&data, 1.0), sorted[n - 1]);
            for q in [0.25, 0.5, 0.75] {
                let h = (n - 1) as f64 * q;
                let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
                let want = sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64);
                assert_eq!(quantile(&data, q), want, "n={n} q={q}");
                assert!(sorted[lo] <= want && want <= sorted[hi]);
            }
        }
        // Agrees with Python's statistics.quantiles(method="inclusive").
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
    }

    #[test]
    fn fast_quartile_picks_the_fast_side() {
        let rounds = [10.0, 11.0, 12.0, 13.0, 50.0];
        assert_eq!(fast_quartile(&rounds, Better::Lower), 11.0);
        assert_eq!(fast_quartile(&rounds, Better::Higher), 13.0);
        assert!((rel_iqr(&rounds) - 2.0 / 12.0).abs() < 1e-12);
    }
}
