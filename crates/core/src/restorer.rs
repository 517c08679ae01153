//! Gradient restorer (§III-C).
//!
//! Restores a previous task's gradient *without its training samples*
//! (Eq. 2): the model restricted to the task's signature knowledge `W_i`
//! predicts pseudo-labels on the *current* task's batch, and the restored
//! gradient is ∇ of the cross-entropy between the live model's
//! predictions and those pseudo-labels — the direction that keeps the
//! live model consistent with what task `i` knew.

use std::collections::HashMap;

use fedknow_math::distance::{most_dissimilar, DistanceMetric};
use fedknow_math::{SparseVec, Tensor};
use fedknow_nn::loss::soft_cross_entropy;
use fedknow_nn::Model;
use fedknow_obs::{CounterHandle, HistHandle};

/// Distillation loss per restore call, in milli-nats (Eq. 2's CE
/// between live predictions and pseudo-labels).
static DISTILL_LOSS_MNAT: HistHandle = HistHandle::new("restore.distill_loss_mnat");
/// Mean pseudo-label entropy per restore call, in milli-nats — high
/// entropy means the pruned teacher is uncertain and its restored
/// gradient carries little signal.
static PSEUDO_ENTROPY_MNAT: HistHandle = HistHandle::new("restore.pseudo_entropy_mnat");
/// Pseudo-label rows served from the [`PseudoLabelCache`].
static PSEUDO_HIT: CounterHandle = CounterHandle::new("restore.pseudo_hit");
/// Pseudo-label rows computed by a teacher forward.
static PSEUDO_MISS: CounterHandle = CounterHandle::new("restore.pseudo_miss");

/// Mean Shannon entropy (nats) of the rows of a `[n, c]` distribution.
fn mean_row_entropy(dist: &Tensor) -> f64 {
    let rows = dist.shape().first().copied().unwrap_or(0);
    if rows == 0 {
        return 0.0;
    }
    let cols = dist.data().len() / rows;
    let mut total = 0.0f64;
    for row in dist.data().chunks_exact(cols) {
        total -= row
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p as f64 * (p as f64).ln())
            .sum::<f64>();
    }
    total / rows as f64
}

/// Teacher pseudo-label rows, keyed by (knowledge index, sample index).
///
/// A row is the softmax of one sample's eval forward through one
/// knowledge's dense expansion. It does not depend on the live weights,
/// and an eval forward computes every row independently of the rest of
/// its batch, bit for bit, so a cached row equals a fresh full-batch
/// one. It does depend on the BatchNorm running statistics: every row is
/// dropped when they differ from the ones the rows were computed under.
/// The owner clears the cache whenever a sample or knowledge index
/// changes meaning (a new task, a restored checkpoint).
#[derive(Debug, Clone, Default)]
pub struct PseudoLabelCache {
    /// Bit patterns of the running statistics the rows were computed
    /// under.
    stats: Vec<u32>,
    rows: HashMap<(usize, usize), Box<[f32]>>,
}

impl PseudoLabelCache {
    /// Drop every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Drop every row unless `stats` equal, bit for bit, the statistics
    /// the rows were computed under.
    fn sync_stats(&mut self, stats: &[f32]) {
        let same = self.stats.len() == stats.len()
            && self.stats.iter().zip(stats).all(|(&a, b)| a == b.to_bits());
        if !same {
            self.rows.clear();
            self.stats = stats.iter().map(|v| v.to_bits()).collect();
        }
    }
}

/// Restores past-task gradients from retained knowledge.
#[derive(Debug, Clone, Default)]
pub struct GradientRestorer;

/// Train-mode forward of the live model on `x` for the standalone entry
/// points. BatchNorm running statistics are put back afterwards, so a
/// standalone restore leaves the model exactly as it found it.
fn student_forward(model: &mut Model, x: &Tensor) -> Tensor {
    let stats = model.flat_buffers();
    let logits = model.forward(x.clone(), true);
    model.set_flat_buffers(&stats);
    logits
}

/// Row indices `0..n` of the batch `x`: the sample keys of a standalone
/// restore, whose throwaway cache starts empty.
fn batch_rows(x: &Tensor) -> Vec<usize> {
    (0..x.shape()[0]).collect()
}

/// The rows of the batch `x` at `positions`, in that order.
fn gather_rows(x: &Tensor, positions: &[usize]) -> Tensor {
    let row = x.len() / x.shape()[0];
    let mut data = Vec::with_capacity(positions.len() * row);
    for &p in positions {
        data.extend_from_slice(&x.data()[p * row..(p + 1) * row]);
    }
    let mut shape = x.shape().to_vec();
    shape[0] = positions.len();
    Tensor::from_vec(data, &shape)
}

/// Pseudo-label distribution of the model's current parameters on `x`
/// (eval mode: no caches, running BN statistics).
fn teacher_forward(model: &mut Model, x: Tensor) -> Tensor {
    model.forward(x, false).softmax_rows()
}

/// Each knowledge's `[n, classes]` pseudo-labels on the batch `x`, whose
/// rows are the training samples `samples`. Rows come from `cache`;
/// for each knowledge, one eval forward of its dense expansion (retained
/// weights keep their value, pruned ones are zero) over only the rows the
/// cache lacks fills it. Under `FEDKNOW_VERIFY` each knowledge with a
/// served row is recomputed over the whole batch and compared bit for bit
/// (`restorer.pseudo_labels`). Parameters are as before on exit.
fn pseudo_labels(
    model: &mut Model,
    x: &Tensor,
    samples: &[usize],
    knowledges: &[(usize, &SparseVec)],
    cache: &mut PseudoLabelCache,
) -> Vec<Tensor> {
    let n = samples.len();
    assert_eq!(n, x.shape()[0], "one sample index per batch row");
    cache.sync_stats(&model.flat_buffers());
    let classes = model.num_classes();
    let verify = fedknow_verify::is_enabled();
    let mut live: Option<Vec<f32>> = None;
    let mut dense = Vec::new();
    let targets = knowledges
        .iter()
        .map(|&(key, w)| {
            assert_eq!(
                w.dense_len(),
                model.param_count(),
                "knowledge/model size mismatch"
            );
            let missing: Vec<usize> = (0..n)
                .filter(|&p| !cache.rows.contains_key(&(key, samples[p])))
                .collect();
            PSEUDO_MISS.add(missing.len() as u64);
            PSEUDO_HIT.add((n - missing.len()) as u64);
            let hits = missing.len() < n;
            if !missing.is_empty() || (verify && hits) {
                let live = live.get_or_insert_with(|| model.flat_params());
                dense.clear();
                dense.resize(live.len(), 0.0);
                w.scatter_into(&mut dense);
                model.set_flat_params(&dense);
            }
            if !missing.is_empty() {
                let sub = if hits {
                    gather_rows(x, &missing)
                } else {
                    x.clone()
                };
                let probs = teacher_forward(model, sub);
                for (&p, row) in missing.iter().zip(probs.data().chunks_exact(classes)) {
                    cache.rows.insert((key, samples[p]), row.into());
                }
            }
            let mut data = Vec::with_capacity(n * classes);
            for &s in samples {
                data.extend_from_slice(&cache.rows[&(key, s)]);
            }
            let target = Tensor::from_vec(data, &[n, classes]);
            if verify && hits {
                let fresh = teacher_forward(model, x.clone());
                fedknow_verify::report(
                    "restorer.pseudo_labels",
                    fedknow_verify::check::bits_equal("pseudo-labels", target.data(), fresh.data()),
                );
            }
            target
        })
        .collect();
    if let Some(live) = live {
        model.set_flat_params(&live);
    }
    targets
}

impl GradientRestorer {
    /// Restore task `i`'s gradient on the batch `x` (Eq. 2): one train
    /// forward of the live model, then [`GradientRestorer::restore_all`]
    /// with a throwaway cache, so every pseudo-label row is computed.
    /// Parameters and BatchNorm running statistics are as before on exit;
    /// gradient buffers are cleared.
    pub fn restore(&self, model: &mut Model, knowledge: &SparseVec, x: &Tensor) -> Vec<f32> {
        let logits = student_forward(model, x);
        self.restore_all(
            model,
            x,
            &batch_rows(x),
            &logits,
            [(0, knowledge)],
            &mut PseudoLabelCache::default(),
        )
        .pop()
        .expect("one knowledge restores one gradient")
    }

    /// Restore the gradient of every `(index, knowledge)` entry of
    /// `knowledges` on the batch `x` (Eq. 2), all from one shared student
    /// forward.
    ///
    /// `student_logits` must be the output of the model's most recent
    /// `forward(x, true)`, taken at its current (live) weights, and
    /// `samples[r]` the task-local index of the training sample in row
    /// `r` of `x`. The pseudo-label distribution of each knowledge is
    /// looked up in `cache` under (index, sample), and the rows it lacks
    /// come from an eval forward of the knowledge's dense expansion (see
    /// [`PseudoLabelCache`]). Each restored gradient is the backward of
    /// the cross-entropy between `student_logits` and one pseudo-label
    /// distribution, through that train forward's caches (eval forwards
    /// leave them intact; see `Layer::backward`). Parameters are restored
    /// and gradient buffers cleared on exit.
    pub fn restore_all<'a>(
        &self,
        model: &mut Model,
        x: &Tensor,
        samples: &[usize],
        student_logits: &Tensor,
        knowledges: impl IntoIterator<Item = (usize, &'a SparseVec)>,
        cache: &mut PseudoLabelCache,
    ) -> Vec<Vec<f32>> {
        let knowledges: Vec<(usize, &SparseVec)> = knowledges.into_iter().collect();
        if knowledges.is_empty() {
            return Vec::new();
        }
        let _t = fedknow_obs::timer("restore.distill_ns");
        let targets = pseudo_labels(model, x, samples, &knowledges, cache);
        // Gradients of the live model against each set of pseudo-labels.
        let restored = targets
            .iter()
            .map(|target| {
                model.zero_grad();
                let (loss, grad) = soft_cross_entropy(student_logits, target);
                if fedknow_verify::is_enabled() {
                    let (rows, cols) = (student_logits.shape()[0], student_logits.shape()[1]);
                    fedknow_verify::report(
                        "restorer.grad_rows",
                        fedknow_verify::check::grad_rows_sum_zero(grad.data(), rows, cols),
                    );
                }
                if fedknow_obs::is_enabled() {
                    DISTILL_LOSS_MNAT.record((loss.max(0.0) * 1000.0).round() as u64);
                    let entropy = mean_row_entropy(target);
                    PSEUDO_ENTROPY_MNAT.record((entropy * 1000.0).round() as u64);
                    fedknow_obs::series("restore.distill_loss", loss as f64);
                    fedknow_obs::series("restore.pseudo_entropy", entropy);
                }
                model.backward(grad);
                model.flat_grads()
            })
            .collect();
        model.zero_grad();
        restored
    }

    /// Restore gradients for every knowledge entry and rank them: returns
    /// the indices of the `k` tasks whose restored gradients are most
    /// dissimilar from `current_grad` (the signature tasks, §III-C). One
    /// train forward of the live model, then
    /// [`GradientRestorer::select_with_logits`] with a throwaway cache.
    pub fn select_signature_tasks(
        &self,
        model: &mut Model,
        knowledges: &[SparseVec],
        x: &Tensor,
        current_grad: &[f32],
        k: usize,
        metric: DistanceMetric,
    ) -> Vec<usize> {
        if knowledges.is_empty() || k == 0 {
            return Vec::new();
        }
        let logits = student_forward(model, x);
        self.select_with_logits(
            model,
            x,
            &batch_rows(x),
            &logits,
            knowledges,
            current_grad,
            k,
            metric,
            &mut PseudoLabelCache::default(),
        )
    }

    /// [`GradientRestorer::select_signature_tasks`] on the logits of the
    /// model's most recent `forward(x, true)`, with pseudo-labels keyed by
    /// each knowledge's position in `knowledges` (see
    /// [`GradientRestorer::restore_all`]).
    #[allow(clippy::too_many_arguments)]
    pub fn select_with_logits(
        &self,
        model: &mut Model,
        x: &Tensor,
        samples: &[usize],
        student_logits: &Tensor,
        knowledges: &[SparseVec],
        current_grad: &[f32],
        k: usize,
        metric: DistanceMetric,
        cache: &mut PseudoLabelCache,
    ) -> Vec<usize> {
        if knowledges.is_empty() || k == 0 {
            return Vec::new();
        }
        let _t = fedknow_obs::timer("restore.select_ns");
        let candidates = self.restore_all(
            model,
            x,
            samples,
            student_logits,
            knowledges.iter().enumerate(),
            cache,
        );
        most_dissimilar(metric, current_grad, &candidates, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::{normal_vec, seeded};
    use fedknow_nn::ModelKind;

    fn model_and_batch() -> (Model, Tensor) {
        let mut rng = seeded(1);
        let model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let x = Tensor::from_vec(normal_vec(&mut rng, 4 * 3 * 8 * 8, 0.0, 1.0), &[4, 3, 8, 8]);
        (model, x)
    }

    #[test]
    fn row_entropy_spans_one_hot_to_uniform() {
        let one_hot = Tensor::from_vec(vec![1.0, 0.0, 0.0, 0.0], &[1, 4]);
        assert_eq!(mean_row_entropy(&one_hot), 0.0);
        let uniform = Tensor::from_vec(vec![0.25; 4], &[1, 4]);
        assert!((mean_row_entropy(&uniform) - 4.0f64.ln()).abs() < 1e-9);
        let mixed = Tensor::from_vec(vec![1.0, 0.0, 0.5, 0.5], &[2, 2]);
        assert!((mean_row_entropy(&mixed) - 2.0f64.ln() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn restore_leaves_model_untouched() {
        let (mut model, x) = model_and_batch();
        let before = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&before, 0.1);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        assert_eq!(
            model.flat_params(),
            before,
            "restore must not mutate parameters"
        );
        assert!(
            model.flat_grads().iter().all(|&v| v == 0.0),
            "grad buffers must be cleared"
        );
        assert_eq!(g.len(), before.len());
    }

    #[test]
    fn shared_restore_matches_standalone_restores_bit_for_bit() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledges: Vec<SparseVec> = (1..=3)
            .map(|i| SparseVec::top_fraction_by_magnitude(&params, 0.05 * i as f64))
            .collect();
        let standalone: Vec<Vec<f32>> = knowledges
            .iter()
            .map(|w| GradientRestorer.restore(&mut model, w, &x))
            .collect();
        let logits = model.forward(x.clone(), true);
        let shared = GradientRestorer.restore_all(
            &mut model,
            &x,
            &batch_rows(&x),
            &logits,
            knowledges.iter().enumerate(),
            &mut PseudoLabelCache::default(),
        );
        assert_eq!(shared.len(), knowledges.len());
        for (i, (a, b)) in shared.iter().zip(&standalone).enumerate() {
            assert!(
                a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits()),
                "knowledge {i}: shared restore differs from a standalone one"
            );
        }
        assert_eq!(model.flat_params(), params);
        assert!(model.flat_grads().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn restore_leaves_batchnorm_statistics_untouched() {
        let mut rng = seeded(2);
        let mut model = ModelKind::ResNet18.build(&mut rng, 3, 10, 1.0);
        let x = Tensor::from_vec(normal_vec(&mut rng, 4 * 3 * 8 * 8, 0.5, 2.0), &[4, 3, 8, 8]);
        let stats = model.flat_buffers();
        assert!(!stats.is_empty(), "ResNet18 carries BN running statistics");
        let eval_before = model.forward(x.clone(), false);
        let knowledge = SparseVec::top_fraction_by_magnitude(&model.flat_params(), 0.1);
        GradientRestorer.restore(&mut model, &knowledge, &x);
        assert_eq!(model.flat_buffers(), stats, "running statistics moved");
        assert_eq!(
            model.forward(x, false).data(),
            eval_before.data(),
            "eval forward changed"
        );
    }

    /// Bit patterns of restored gradients.
    fn bits(grads: &[Vec<f32>]) -> Vec<Vec<u32>> {
        grads
            .iter()
            .map(|g| g.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// `restore_all` on the batch of `pool` rows `samples`: once through
    /// `cache`, once through an empty cache. Returns both results.
    fn cached_and_uncached(
        model: &mut Model,
        pool: &Tensor,
        samples: &[usize],
        knowledges: &[SparseVec],
        cache: &mut PseudoLabelCache,
    ) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let x = gather_rows(pool, samples);
        let logits = model.forward(x.clone(), true);
        let mut restore = |cache: &mut PseudoLabelCache| {
            bits(&GradientRestorer.restore_all(
                model,
                &x,
                samples,
                &logits,
                knowledges.iter().enumerate(),
                cache,
            ))
        };
        let cached = restore(cache);
        (cached, restore(&mut PseudoLabelCache::default()))
    }

    #[test]
    fn cached_restore_matches_uncached_over_permuted_and_partial_batches() {
        let mut rng = seeded(3);
        let mut model = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let pool = Tensor::from_vec(
            normal_vec(&mut rng, 10 * 3 * 8 * 8, 0.0, 1.0),
            &[10, 3, 8, 8],
        );
        let params = model.flat_params();
        let knowledges: Vec<SparseVec> = (1..=3)
            .map(|i| SparseVec::top_fraction_by_magnitude(&params, 0.05 * i as f64))
            .collect();
        let mut cache = PseudoLabelCache::default();
        let batches: [&[usize]; 5] = [
            &[0, 1, 2, 3],
            &[3, 2, 1, 0],
            &[4, 1, 5],
            &[9, 8, 7, 6, 5, 4, 3, 2],
            &[6, 0],
        ];
        for (b, samples) in batches.iter().enumerate() {
            let (cached, uncached) =
                cached_and_uncached(&mut model, &pool, samples, &knowledges, &mut cache);
            assert_eq!(cached, uncached, "batch {b}: cached restore differs");
            // The live weights move between steps; cached rows stay valid.
            let step = vec![1e-3f32; params.len()];
            model.apply_update(&step, 1.0);
        }
        assert_eq!(cache.rows.len(), 3 * 10, "one row per (knowledge, sample)");
    }

    #[test]
    fn cache_flushes_when_batchnorm_statistics_move() {
        let mut rng = seeded(4);
        let mut model = ModelKind::ResNet18.build(&mut rng, 3, 10, 0.25);
        let pool = Tensor::from_vec(normal_vec(&mut rng, 6 * 3 * 8 * 8, 0.5, 2.0), &[6, 3, 8, 8]);
        let knowledges = vec![SparseVec::top_fraction_by_magnitude(
            &model.flat_params(),
            0.5,
        )];
        let mut cache = PseudoLabelCache::default();
        let samples = [0, 1, 2, 3];
        let (first, _) = cached_and_uncached(&mut model, &pool, &samples, &knowledges, &mut cache);
        assert_eq!(cache.rows.len(), 4);
        // The next train forward moves the running statistics, so the
        // rows computed under the old ones must not be served.
        let (cached, uncached) =
            cached_and_uncached(&mut model, &pool, &samples, &knowledges, &mut cache);
        assert_eq!(cached, uncached, "stale rows served after BN moved");
        assert_ne!(cached, first, "BN statistics did not move the result");
    }

    #[test]
    fn full_knowledge_restores_near_zero_gradient() {
        // If the knowledge is the *entire* model, teacher and student
        // agree (up to BN train/eval differences in deeper nets; SixCnn
        // has no BN), so the distillation gradient is ~zero.
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&params, 1.0);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(
            norm < 1e-3,
            "self-distillation gradient should vanish, got {norm}"
        );
    }

    #[test]
    fn partial_knowledge_restores_nonzero_gradient() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledge = SparseVec::top_fraction_by_magnitude(&params, 0.05);
        let g = GradientRestorer.restore(&mut model, &knowledge, &x);
        let norm: f32 = g.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!(norm > 1e-4, "pruned teacher should disagree, got {norm}");
    }

    #[test]
    fn selection_returns_k_distinct_indices() {
        let (mut model, x) = model_and_batch();
        let params = model.flat_params();
        let knowledges: Vec<SparseVec> = (1..=4)
            .map(|i| SparseVec::top_fraction_by_magnitude(&params, 0.02 * i as f64))
            .collect();
        let current = vec![0.01f32; params.len()];
        let sel = GradientRestorer.select_signature_tasks(
            &mut model,
            &knowledges,
            &x,
            &current,
            2,
            DistanceMetric::Wasserstein,
        );
        assert_eq!(sel.len(), 2);
        assert_ne!(sel[0], sel[1]);
        assert!(sel.iter().all(|&i| i < 4));
    }

    #[test]
    fn selection_handles_empty_and_oversized_k() {
        let (mut model, x) = model_and_batch();
        let current = vec![0.0f32; model.param_count()];
        let none = GradientRestorer.select_signature_tasks(
            &mut model,
            &[],
            &x,
            &current,
            5,
            DistanceMetric::Cosine,
        );
        assert!(none.is_empty());
        let params = model.flat_params();
        let ks = vec![SparseVec::top_fraction_by_magnitude(&params, 0.1)];
        let sel = GradientRestorer.select_signature_tasks(
            &mut model,
            &ks,
            &x,
            &current,
            5,
            DistanceMetric::Cosine,
        );
        assert_eq!(sel, vec![0]);
    }
}
