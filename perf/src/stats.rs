//! Order statistics over op samples.

/// Sorted copy of `values` (samples are finite wall times).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples when the count is even.
/// `0.0` for an empty slice, so an absent class reads as zero, not NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean, `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank_of(pct, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// `ceil(pct% of n)` in integer per-mille arithmetic: `99.9 / 100.0 * 1e4`
/// is not exactly 9990 in floating point, and one rank decides a rung.
fn rank_of(pct: f64, n: usize) -> usize {
    let per_mille = (pct * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000)
}

/// The tail ladder, highest first. With fewer than 40 samples no rung has
/// ten samples beyond it and the "tail" is the median.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of the ladder with at least ten samples beyond
/// it, as `(pct, value)`; `(50, median)` when the sample is too small for
/// any tail.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    match TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank_of(p, n)) >= 10)
    {
        Some(pct) => (pct, percentile(sorted, pct)),
        None => (50.0, median(sorted)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        let ramp = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        // 15 samples: not even p75 leaves ten beyond -> the median.
        assert_eq!(tail_percentile(&ramp(15)), (50.0, 8.0));
        // 40 samples: p75 leaves exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(40)), (75.0, 30.0));
        // 180 samples: p90 leaves 18 beyond, p95 only 9.
        assert_eq!(tail_percentile(&ramp(180)), (90.0, 162.0));
        // 3600 samples: p99 leaves 36 beyond, p99.9 only 3.
        assert_eq!(tail_percentile(&ramp(3600)), (99.0, 3564.0));
        // 10_000 samples: p99.9 leaves ten beyond.
        assert_eq!(tail_percentile(&ramp(10_000)), (99.9, 9990.0));
    }
}
