//! Gradient-distance metrics for signature-task selection.
//!
//! The gradient restorer (paper §III-C) picks the `k` past tasks whose
//! gradients are *most dissimilar* from the current task's gradient — the
//! paper suggests the Wasserstein distance between gradients ("e.g.
//! Wasserstein distance"), with the intuition that the largest included
//! angles mark the tasks most damaged by an unconstrained update.
//!
//! Three metrics are provided so the selection rule can be ablated:
//! 1-D [`wasserstein_1d`] over the empirical distribution of gradient
//! components (the paper's choice), [`cosine_distance`] (1 − cosine, a
//! direct angle proxy), and [`euclidean`].

use fedknow_obs::PerfCounter;

/// Work accounting for the sort-dominated Wasserstein kernel, modelled
/// by [`crate::flops::wasserstein`].
static PERF_WASSERSTEIN: PerfCounter = PerfCounter::new("wasserstein");

/// Which metric to use when ranking gradient dissimilarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DistanceMetric {
    /// 1-D Wasserstein distance between the sorted component distributions
    /// (the paper's suggested metric).
    Wasserstein,
    /// `1 − cos θ` between the gradients; monotone in the included angle.
    Cosine,
    /// Plain Euclidean distance.
    Euclidean,
}

/// Compute the configured distance between two equal-length gradients.
///
/// Panics if the lengths differ (gradient vectors in one model always
/// agree in length; a mismatch is a programming error).
pub fn gradient_distance(metric: DistanceMetric, a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "gradient lengths differ");
    match metric {
        DistanceMetric::Wasserstein => wasserstein_1d(a, b),
        DistanceMetric::Cosine => cosine_distance(a, b),
        DistanceMetric::Euclidean => euclidean(a, b),
    }
}

/// 1-D Wasserstein (earth mover's) distance between the empirical
/// distributions of the two slices: mean absolute difference of the
/// sorted samples. Both slices must have equal length.
///
/// Non-finite samples have no place on the real line the transport plan
/// lives on, so any NaN or infinity makes the distance `f64::INFINITY`
/// ("maximally dissimilar") rather than silently mis-sorting — the old
/// `partial_cmp(..).unwrap_or(Equal)` comparator left NaN wherever the
/// sort happened to put it, corrupting every pairing after it.
pub fn wasserstein_1d(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "wasserstein_1d requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let c = crate::flops::wasserstein(a.len());
    PERF_WASSERSTEIN.op(c.flops, c.bytes);
    match (sorted_finite(a), sorted_finite(b)) {
        (Some(sa), Some(sb)) => sorted_distance(&sa, &sb),
        _ => f64::INFINITY,
    }
}

/// A sorted copy of `v`, or `None` if it holds a NaN or an infinity.
fn sorted_finite(v: &[f32]) -> Option<Vec<f32>> {
    if !v.iter().all(|x| x.is_finite()) {
        return None;
    }
    let mut sorted = v.to_vec();
    sorted.sort_unstable_by(f32::total_cmp);
    Some(sorted)
}

/// Mean absolute difference of two sorted, equal-length, non-empty
/// samples: the 1-D Wasserstein distance between them.
fn sorted_distance(sa: &[f32], sb: &[f32]) -> f64 {
    let total: f64 = sa
        .iter()
        .zip(sb)
        .map(|(&x, &y)| ((x - y).abs()) as f64)
        .sum();
    total / sa.len() as f64
}

/// [`wasserstein_1d`] of `reference` against each candidate, with the
/// reference screened and sorted once rather than once per pair. Each
/// distance is bit-identical to the per-pair one: the same sorted arrays
/// summed in the same order. Charges the work done — one reference sort,
/// then one sort and one sweep per candidate.
fn wasserstein_scores(reference: &[f32], candidates: &[Vec<f32>]) -> Vec<f64> {
    let n = reference.len();
    for c in candidates {
        assert_eq!(c.len(), n, "gradient lengths differ");
    }
    if n == 0 || candidates.is_empty() {
        return vec![0.0; candidates.len()];
    }
    let (sort, sweep) = (
        crate::flops::wasserstein_sort(n),
        crate::flops::wasserstein_sweep(n),
    );
    let m = candidates.len() as u64;
    PERF_WASSERSTEIN.op(
        (m + 1) * sort.flops + m * sweep.flops,
        (m + 1) * sort.bytes + m * sweep.bytes,
    );
    let sorted_ref = sorted_finite(reference);
    candidates
        .iter()
        .map(|c| match (&sorted_ref, sorted_finite(c)) {
            (Some(sr), Some(sc)) => sorted_distance(sr, &sc),
            _ => f64::INFINITY,
        })
        .collect()
}

/// `1 − cosine similarity`. Ranges over `[0, 2]`; `0` for parallel,
/// `1` for orthogonal, `2` for anti-parallel. Zero vectors are treated as
/// orthogonal to everything (distance 1).
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_distance requires equal lengths");
    let (mut dot, mut na, mut nb) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += (x as f64) * (x as f64);
        nb += (y as f64) * (y as f64);
    }
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot / (na.sqrt() * nb.sqrt())
}

/// Euclidean distance.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Rank `candidates` by descending distance from `reference` and return the
/// indices of the `k` most dissimilar ones (the paper's signature-task
/// selection rule). Stable for ties (lower index first). `k` is clamped to
/// the candidate count.
pub fn most_dissimilar(
    metric: DistanceMetric,
    reference: &[f32],
    candidates: &[Vec<f32>],
    k: usize,
) -> Vec<usize> {
    let scores = match metric {
        DistanceMetric::Wasserstein => wasserstein_scores(reference, candidates),
        _ => candidates
            .iter()
            .map(|c| gradient_distance(metric, reference, c))
            .collect(),
    };
    let mut scored: Vec<(usize, f64)> = scores
        .into_iter()
        // A NaN score (non-finite gradients under Cosine/Euclidean) ranks
        // as maximally dissimilar, matching `wasserstein_1d`'s convention
        // for non-finite inputs, instead of corrupting the sort order.
        .map(|d| if d.is_nan() { f64::INFINITY } else { d })
        .enumerate()
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .take(k.min(candidates.len()))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasserstein_of_identical_is_zero() {
        let a = vec![3.0, -1.0, 2.0];
        assert_eq!(wasserstein_1d(&a, &a), 0.0);
    }

    #[test]
    fn wasserstein_is_shift_distance_for_shifted_samples() {
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![1.0, 2.0, 3.0];
        assert!((wasserstein_1d(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_is_symmetric_and_permutation_invariant() {
        let a = vec![5.0, -2.0, 0.5, 9.0];
        let b = vec![1.0, 1.0, -3.0, 2.0];
        let ab = wasserstein_1d(&a, &b);
        let ba = wasserstein_1d(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        let a_perm = vec![9.0, 0.5, -2.0, 5.0];
        assert!((wasserstein_1d(&a_perm, &b) - ab).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_extremes() {
        let a = vec![1.0, 0.0];
        assert!(cosine_distance(&a, &[2.0, 0.0]).abs() < 1e-9);
        assert!((cosine_distance(&a, &[0.0, 3.0]) - 1.0).abs() < 1e-9);
        assert!((cosine_distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_cosine_is_one() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn most_dissimilar_ranks_by_distance() {
        let reference = vec![1.0, 0.0];
        let candidates = vec![
            vec![1.0, 0.0],  // identical
            vec![-1.0, 0.0], // opposite
            vec![0.0, 1.0],  // orthogonal
        ];
        let top2 = most_dissimilar(DistanceMetric::Cosine, &reference, &candidates, 2);
        assert_eq!(top2, vec![1, 2]);
    }

    #[test]
    fn most_dissimilar_clamps_k() {
        let reference = vec![1.0];
        let candidates = vec![vec![0.0]];
        let all = most_dissimilar(DistanceMetric::Euclidean, &reference, &candidates, 10);
        assert_eq!(all, vec![0]);
    }

    #[test]
    fn euclidean_matches_hand_value() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_rejects_non_finite_inputs_as_infinitely_far() {
        // Regression: the old NaN-tolerant comparator left NaN stranded
        // mid-array, pairing finite samples against the wrong partners —
        // W(a, b) could silently *shrink* when a NaN appeared.
        let clean = vec![0.0f32, 1.0, 2.0];
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let dirty = vec![0.0f32, poison, 2.0];
            assert_eq!(wasserstein_1d(&dirty, &clean), f64::INFINITY);
            assert_eq!(wasserstein_1d(&clean, &dirty), f64::INFINITY);
            assert_eq!(wasserstein_1d(&dirty, &dirty), f64::INFINITY);
        }
        // Finite inputs are unaffected by the guard.
        assert!((wasserstein_1d(&clean, &clean)).abs() < 1e-12);
    }

    #[test]
    fn sorted_once_wasserstein_matches_per_pair_bit_for_bit() {
        let reference = vec![0.3f32, -1.5, 2.25, 0.0, -0.7, 1.1];
        let candidates = vec![
            vec![0.3f32, -1.5, 2.25, 0.0, -0.7, 1.1],
            vec![1.0, 1.0, -3.0, 2.0, 0.5, -0.25],
            vec![-0.1, 0.2, -0.3, 0.4, -0.5, 0.6],
            vec![0.0, f32::NAN, 1.0, 2.0, 3.0, 4.0],
            vec![5.0, 4.0, 3.0, 2.0, 1.0, f32::INFINITY],
            vec![9.0, -9.0, 0.1, 0.2, 0.3, 0.4],
        ];
        let mut poisoned = reference.clone();
        poisoned[2] = f32::NEG_INFINITY;
        for r in [&reference, &poisoned] {
            let scores = wasserstein_scores(r, &candidates);
            for (c, s) in candidates.iter().zip(&scores) {
                assert_eq!(s.to_bits(), wasserstein_1d(r, c).to_bits());
            }
            // The ranking equals one built from per-pair distances.
            let mut per_pair: Vec<(usize, f64)> = candidates
                .iter()
                .map(|c| wasserstein_1d(r, c))
                .enumerate()
                .collect();
            per_pair.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let expected: Vec<usize> = per_pair.iter().map(|&(i, _)| i).collect();
            let ranked = most_dissimilar(DistanceMetric::Wasserstein, r, &candidates, 6);
            assert_eq!(ranked, expected);
        }
        assert_eq!(
            most_dissimilar(DistanceMetric::Wasserstein, &reference, &candidates, 6)[..2],
            [3, 4],
            "non-finite candidates rank as maximally dissimilar"
        );
    }

    #[test]
    fn most_dissimilar_ranks_nan_candidates_first_deterministically() {
        let reference = vec![1.0f32, 0.0];
        let candidates = vec![
            vec![1.0, 0.0],      // distance 0
            vec![f32::NAN, 0.0], // NaN score → +∞
            vec![-1.0, 0.0],     // distance 2
        ];
        let order = most_dissimilar(DistanceMetric::Cosine, &reference, &candidates, 3);
        assert_eq!(order, vec![1, 2, 0]);
    }
}
