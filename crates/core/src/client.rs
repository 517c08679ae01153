//! The FedKNOW client — wiring the extractor, restorer and integrator
//! into the federated round protocol (§III-A, Figure 3).

use crate::config::FedKnowConfig;
use crate::extractor::KnowledgeExtractor;
use crate::integrator::GradientIntegrator;
use crate::restorer::{GradientRestorer, PseudoLabelCache};
use fedknow_data::ClientTask;
use fedknow_fl::{FclClient, IterationStats, LocalTrainer, ModelTemplate};
use fedknow_math::SparseVec;
use fedknow_nn::optim::{LrSchedule, Sgd};
use fedknow_obs::HistHandle;
use rand::rngs::StdRng;

/// Jaccard overlap (per-mille) of a freshly extracted knowledge mask
/// against each previously retained task's mask — how much the top-ρ
/// supports of different tasks coincide (Eq. 1 across tasks).
static MASK_JACCARD_PM: HistHandle = HistHandle::new("extract.mask_jaccard_pm");

/// A FedKNOW client.
///
/// Per training iteration it integrates the current gradient with the
/// restored gradients of its signature tasks (forgetting prevention);
/// after each FedAvg aggregation it fine-tunes the received global model
/// with gradients rotated to stay acute with the post-aggregation
/// direction (negative-transfer prevention); after each task it extracts
/// and retains the task's signature knowledge.
pub struct FedKnowClient {
    trainer: LocalTrainer,
    cfg: FedKnowConfig,
    extractor: KnowledgeExtractor,
    restorer: GradientRestorer,
    /// Teacher pseudo-labels of the current task's samples; cleared
    /// whenever sample indices change meaning. Knowledge indices stay
    /// valid because `finish_task` only appends.
    pseudo: PseudoLabelCache,
    integrator: GradientIntegrator,
    /// Post-aggregation fine-tune schedule (Theorem 1: O(r^{-1})).
    global_opt: Sgd,
    knowledges: Vec<SparseVec>,
    /// Indices into `knowledges` of the current signature tasks.
    selected: Vec<usize>,
    /// FLOPs spent outside train_iteration (selection, fine-tunes),
    /// charged to the next iteration's stats.
    pending_flops: u64,
}

impl FedKnowClient {
    /// Build a client from the shared model template.
    pub fn new(
        template: &ModelTemplate,
        cfg: FedKnowConfig,
        batch_size: usize,
        image_shape: Vec<usize>,
    ) -> Self {
        let model = template.instantiate();
        let opt = Sgd::new(
            cfg.local_lr,
            LrSchedule::LinearDecrease {
                decrease: cfg.lr_decrease,
            },
        );
        let global_opt = Sgd::new(cfg.global_lr, LrSchedule::Inverse);
        Self {
            trainer: LocalTrainer::new(model, opt, batch_size, image_shape),
            extractor: KnowledgeExtractor::with_strategy(
                cfg.rho,
                cfg.knowledge_finetune_iters,
                cfg.strategy,
            ),
            restorer: GradientRestorer,
            pseudo: PseudoLabelCache::default(),
            integrator: GradientIntegrator::new(cfg.margin),
            global_opt,
            cfg,
            knowledges: Vec::new(),
            selected: Vec::new(),
            pending_flops: 0,
        }
    }

    /// Retained signature knowledge, one entry per finished task.
    pub fn knowledges(&self) -> &[SparseVec] {
        &self.knowledges
    }

    /// Currently selected signature-task indices.
    pub fn selected(&self) -> &[usize] {
        &self.selected
    }

    /// Borrow the underlying trainer (benchmarks and tests).
    pub fn trainer_mut(&mut self) -> &mut LocalTrainer {
        &mut self.trainer
    }

    /// Re-rank signature tasks on a fresh batch (run at task start and
    /// after every aggregation, so selection tracks the moving model).
    fn reselect(&mut self, rng: &mut StdRng) {
        if self.knowledges.is_empty() || self.trainer.num_samples() == 0 {
            self.selected.clear();
            return;
        }
        let (x, labels, samples) = self.trainer.next_batch_indexed(rng);
        let (_, logits) = self.trainer.compute_grads_with_logits(&x, &labels);
        let g = self.trainer.model.flat_grads();
        self.selected = self.restorer.select_with_logits(
            &mut self.trainer.model,
            &x,
            &samples,
            &logits,
            &self.knowledges,
            &g,
            self.cfg.k,
            self.cfg.metric,
            &mut self.pseudo,
        );
        // Selection restores all m candidates: m × (4/3) iterations of
        // work, plus the probe forward/backward. The 4/3 charges each
        // restore a student forward of its own, although all restores
        // share the probe's: simulated device time feeds deadline
        // assessment, so the debit stays fixed until it is derived from
        // counted FLOPs.
        let probe = self.trainer.iteration_flops();
        self.pending_flops += probe + self.knowledges.len() as u64 * probe * 4 / 3;
    }
}

impl FclClient for FedKnowClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.trainer.set_task(task, rng);
        self.pseudo.clear();
        self.global_opt.reset();
        self.reselect(rng);
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        let (x, labels, samples) = self.trainer.next_batch_indexed(rng);
        let (loss, logits) = self.trainer.compute_grads_with_logits(&x, &labels);
        let g = self.trainer.model.flat_grads();
        let mut flops = self.trainer.iteration_flops() + self.pending_flops;
        self.pending_flops = 0;
        let update = if self.selected.is_empty() {
            g
        } else {
            let restored = self.restorer.restore_all(
                &mut self.trainer.model,
                &x,
                &samples,
                &logits,
                self.selected.iter().map(|&i| (i, &self.knowledges[i])),
                &mut self.pseudo,
            );
            // Deliberately still 4/3 of an iteration per restore (see
            // `reselect`).
            flops += self.selected.len() as u64 * self.trainer.iteration_flops() * 4 / 3;
            self.integrator.integrate(&g, &restored)
        };
        let lr = self.trainer.opt.next_lr() as f32;
        self.trainer.model.apply_update(&update, lr);
        IterationStats {
            loss: loss as f64,
            flops,
        }
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        Some(self.trainer.model.flat_params())
    }

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
        // Keep the pre-aggregation model for the cross-aggregation
        // integration, then adopt the global model.
        let local = self.trainer.model.flat_params();
        self.trainer.model.set_flat_params(global);
        if self.trainer.num_samples() > 0 {
            let epoch = self.trainer.num_samples().div_ceil(self.trainer.batch_size);
            let iters = self
                .cfg
                .post_agg_iters
                .map_or(epoch, |n| n.min(epoch.max(1)));
            for _ in 0..iters {
                let (x, labels, samples) = self.trainer.next_batch_indexed(rng);
                // Gradient before aggregation (at the saved local
                // weights), on the same batch.
                let now = self.trainer.model.flat_params();
                self.trainer.model.set_flat_params(&local);
                self.trainer.compute_grads(&x, &labels);
                let g_before = self.trainer.model.flat_grads();
                self.trainer.model.set_flat_params(&now);
                // Gradient after aggregation (at the global weights); the
                // restores below share its forward.
                let (_, logits) = self.trainer.compute_grads_with_logits(&x, &labels);
                let g_after = self.trainer.model.flat_grads();
                // Constraints: the post-aggregation gradient (negative-
                // transfer prevention) plus the signature-task gradients
                // (the fine-tune must not undo forgetting prevention).
                let mut constraints = vec![g_after];
                constraints.extend(self.restorer.restore_all(
                    &mut self.trainer.model,
                    &x,
                    &samples,
                    &logits,
                    self.selected.iter().map(|&i| (i, &self.knowledges[i])),
                    &mut self.pseudo,
                ));
                // Deliberately still 4/3 of an iteration per restore (see
                // `reselect`).
                self.pending_flops +=
                    self.selected.len() as u64 * self.trainer.iteration_flops() * 4 / 3;
                let update = self.integrator.integrate(&g_before, &constraints);
                let lr = self.global_opt.next_lr() as f32;
                self.trainer.model.apply_update(&update, lr);
                self.pending_flops += 2 * self.trainer.iteration_flops();
            }
        }
        // The model moved: refresh the signature selection.
        self.reselect(rng);
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        let (knowledge, flops) = self.extractor.extract_and_finetune(&mut self.trainer, rng);
        self.pending_flops += flops;
        if fedknow_obs::is_enabled() && !self.knowledges.is_empty() {
            let mut sum = 0.0f64;
            for prev in &self.knowledges {
                let j = knowledge.jaccard(prev);
                MASK_JACCARD_PM.record((j * 1000.0).round() as u64);
                sum += j;
            }
            // Indexed by the finished task, not the round: the overlap
            // trajectory is a per-task series.
            fedknow_obs::series_at(
                "extract.jaccard_mean",
                self.knowledges.len() as u64,
                sum / self.knowledges.len() as f64,
            );
        }
        self.knowledges.push(knowledge);
        self.selected.clear();
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.trainer.evaluate_task(task)
    }

    /// The retained knowledge only: the pseudo-label cache is per-task
    /// working memory that can always be recomputed, so it stays out of
    /// the OOM ledger.
    fn retained_bytes(&self) -> u64 {
        self.knowledges.iter().map(|k| k.size_bytes() as u64).sum()
    }

    /// At a task boundary the FedKNOW state beyond the flat weights is
    /// the retained knowledge set and the pending-FLOPs debit (`selected`
    /// is cleared by `finish_task`, both optimisers reset at
    /// `start_task`). All of it is folded into the flat stream —
    /// integers as 16-bit limbs so every value survives an f32 (and
    /// JSON) round trip exactly.
    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        let weights = self.trainer.model.flat_params();
        let mut buf = Vec::with_capacity(weights.len() + 8);
        push_u32(&mut buf, weights.len() as u32);
        buf.extend_from_slice(&weights);
        push_u64(&mut buf, self.pending_flops);
        push_u32(&mut buf, self.knowledges.len() as u32);
        for k in &self.knowledges {
            push_u32(&mut buf, k.dense_len() as u32);
            push_u32(&mut buf, k.nnz() as u32);
            for &i in k.indices() {
                push_u32(&mut buf, i);
            }
            buf.extend_from_slice(k.values());
        }
        Some(buf)
    }

    fn restore_checkpoint(&mut self, params: &[f32], _rng: &mut StdRng) {
        let mut cur = CkCursor::new(params);
        let n = cur.u32() as usize;
        assert_eq!(
            n,
            self.trainer.model.flat_params().len(),
            "FedKNOW checkpoint was taken on a different architecture"
        );
        let weights = cur.slice(n).to_vec();
        self.trainer.model.set_flat_params(&weights);
        self.pending_flops = cur.u64();
        let tasks = cur.u32() as usize;
        self.knowledges.clear();
        for _ in 0..tasks {
            let dense_len = cur.u32() as usize;
            let nnz = cur.u32() as usize;
            let indices: Vec<u32> = (0..nnz).map(|_| cur.u32()).collect();
            let values = cur.slice(nnz).to_vec();
            self.knowledges
                .push(SparseVec::new(dense_len, indices, values));
        }
        self.selected.clear();
        self.pseudo.clear();
    }

    fn method_name(&self) -> &'static str {
        "fedknow"
    }
}

/// Append a `u32` as two 16-bit limbs, each exactly representable as f32.
fn push_u32(buf: &mut Vec<f32>, v: u32) {
    buf.push((v & 0xFFFF) as f32);
    buf.push((v >> 16) as f32);
}

/// Append a `u64` as four 16-bit limbs.
fn push_u64(buf: &mut Vec<f32>, v: u64) {
    push_u32(buf, (v & 0xFFFF_FFFF) as u32);
    push_u32(buf, (v >> 32) as u32);
}

/// Sequential reader over the flat checkpoint stream.
struct CkCursor<'a> {
    data: &'a [f32],
    pos: usize,
}

impl<'a> CkCursor<'a> {
    fn new(data: &'a [f32]) -> Self {
        Self { data, pos: 0 }
    }

    fn slice(&mut self, n: usize) -> &'a [f32] {
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    fn u32(&mut self) -> u32 {
        let s = self.slice(2);
        (s[0] as u32) | ((s[1] as u32) << 16)
    }

    fn u64(&mut self) -> u64 {
        let lo = self.u32() as u64;
        let hi = self.u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;
    use fedknow_nn::ModelKind;

    fn setup(tasks: usize) -> (FedKnowClient, Vec<ClientTask>) {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(tasks);
        let data = generate(&spec, 3);
        let parts = partition(&data, 1, &PartitionConfig::default(), 3);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
        let cfg = FedKnowConfig {
            k: 2,
            knowledge_finetune_iters: 2,
            ..Default::default()
        };
        let client = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
        (client, parts[0].tasks.clone())
    }

    #[test]
    fn knowledge_accumulates_per_task() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(1);
        for t in &tasks {
            c.start_task(t, &mut rng);
            for _ in 0..4 {
                c.train_iteration(&mut rng);
            }
            c.finish_task(&mut rng);
        }
        assert_eq!(c.knowledges().len(), 2);
        let expected = ((c.trainer_mut().model.param_count() as f64) * 0.1).round() as usize;
        assert_eq!(c.knowledges()[0].nnz(), expected);
        assert!(c.retained_bytes() > 0);
    }

    #[test]
    fn second_task_uses_signature_selection() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(2);
        c.start_task(&tasks[0], &mut rng);
        assert!(
            c.selected().is_empty(),
            "no knowledge yet on the first task"
        );
        for _ in 0..4 {
            c.train_iteration(&mut rng);
        }
        c.finish_task(&mut rng);
        c.start_task(&tasks[1], &mut rng);
        assert_eq!(c.selected().len(), 1, "one knowledge, k clamps to it");
        let stats = c.train_iteration(&mut rng);
        assert!(stats.flops > 0);
    }

    #[test]
    fn receive_global_adopts_and_fine_tunes() {
        let (mut c, tasks) = setup(1);
        let mut rng = seeded(3);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..3 {
            c.train_iteration(&mut rng);
        }
        let dim = c.upload().unwrap().len();
        let global = vec![0.01f32; dim];
        c.receive_global(&global, &mut rng);
        let after = c.upload().unwrap();
        // Fine-tuning moved the model off the raw global weights...
        assert_ne!(after, global);
        // ...but it stays near them (a couple of small steps).
        let dist: f32 = after
            .iter()
            .zip(&global)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist < 10.0, "model flew away from global: {dist}");
    }

    #[test]
    fn training_learns_first_task() {
        let (mut c, tasks) = setup(1);
        let mut rng = seeded(4);
        c.start_task(&tasks[0], &mut rng);
        for _ in 0..80 {
            c.train_iteration(&mut rng);
        }
        let acc = c.evaluate(&tasks[0]);
        let chance = 1.0 / tasks[0].classes.len() as f64;
        assert!(acc > 2.0 * chance, "accuracy {acc} vs chance {chance}");
    }

    #[test]
    fn checkpoint_roundtrip_restores_full_state() {
        let (mut c, tasks) = setup(2);
        let mut rng = seeded(6);
        for t in &tasks {
            c.start_task(t, &mut rng);
            for _ in 0..4 {
                c.train_iteration(&mut rng);
            }
            c.finish_task(&mut rng);
        }
        let saved = c.checkpoint_params().unwrap();

        let (mut fresh, _) = setup(2);
        let mut scratch = seeded(99);
        fresh.restore_checkpoint(&saved, &mut scratch);
        assert_eq!(fresh.knowledges(), c.knowledges());
        assert_eq!(fresh.upload(), c.upload());
        for t in &tasks {
            assert_eq!(fresh.evaluate(t), c.evaluate(t));
        }
        // Re-checkpointing reproduces the stream bit-for-bit — the
        // pending-FLOPs debit and every limb survive the round trip.
        assert_eq!(fresh.checkpoint_params().unwrap(), saved);
    }

    #[test]
    #[should_panic(expected = "different architecture")]
    fn checkpoint_rejects_wrong_architecture() {
        let (mut c, _) = setup(1);
        let mut bad = Vec::new();
        push_u32(&mut bad, 3);
        bad.extend_from_slice(&[0.0, 0.0, 0.0]);
        push_u64(&mut bad, 0);
        push_u32(&mut bad, 0);
        c.restore_checkpoint(&bad, &mut seeded(1));
    }

    #[test]
    fn retained_bytes_scale_with_rho() {
        let spec = DatasetSpec::cifar100().scaled(0.3, 8).with_tasks(1);
        let data = generate(&spec, 3);
        let parts = partition(&data, 1, &PartitionConfig::default(), 3);
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, spec.total_classes(), 1.0, 7);
        let mut sizes = Vec::new();
        for rho in [0.05, 0.10, 0.20] {
            let cfg = FedKnowConfig {
                rho,
                knowledge_finetune_iters: 0,
                ..Default::default()
            };
            let mut c = FedKnowClient::new(&template, cfg, 8, vec![3, 8, 8]);
            let mut rng = seeded(5);
            c.start_task(&parts[0].tasks[0], &mut rng);
            c.train_iteration(&mut rng);
            c.finish_task(&mut rng);
            sizes.push(c.retained_bytes());
        }
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
    }
}
