//! Percentiles reported by the rule the benchmark follows: a percentile
//! is reported only when at least ten samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `[0, 100]`) of `samples`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie beyond it (so p90 needs
/// at least 100 samples). The median needs at least one sample and at
/// least ten beyond it, i.e. twenty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || beyond(n, p) < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// Samples of `n` that lie strictly beyond percentile `p`, with a
/// rounding allowance for `p` like 99.9 that has no exact binary form.
fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// Interquartile mean: the mean of the middle half of `samples`, or
/// `None` for fewer than four. Steadier than the median when the
/// samples fall into tight clusters, as FedKNOW's rounds do (their cost
/// steps up with the task index): the median then sits on the edge
/// between two clusters and jumps between them from run to run.
pub fn interquartile_mean(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    if n < 4 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let middle = &sorted[n / 4..n - n / 4];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// Median of a non-empty sample, with no tail requirement: used for
/// repeated measurements of one quantity inside a run.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), None);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), None);
        assert_eq!(percentile(&s, 95.0), None);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 95.0), Some(190.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut s: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = percentile(&s, 90.0);
        s.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&s, 90.0));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn interquartile_mean_ignores_both_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), None);
        let s = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0];
        assert_eq!(interquartile_mean(&s), Some(4.5));
        let outliers = [1e9, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, -1e9];
        assert_eq!(interquartile_mean(&outliers), Some(4.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
