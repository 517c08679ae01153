//! Per-layer costs replayed on state captured during a traced run.
//!
//! The decorator keeps each client's last upload of every task. After
//! the run those weight snapshots are fed back through the public
//! layer entry points one at a time, each call timed on its own:
//!
//! * `fl` server and wire: `server::fedavg` over the captured uploads,
//!   `encode_msg`/`decode_msg` of each upload message, and
//!   `encode_frame` plus `FrameDecoder` on the encoded bytes.
//! * `core` (FedKNOW workloads): at task index `t`, a template model
//!   carrying snapshot `t` in a private `LocalTrainer`, with the
//!   knowledge of tasks `0..t` extracted by
//!   `KnowledgeExtractor::extract` from the earlier snapshots. Restore
//!   (Eq. 2), signature selection, integration (Eqs. 3–5) and
//!   extraction (Eq. 1) are timed per task index.
//! * `nn` and `math`: the trainer's forward/backward, an eval-mode
//!   forward, and the Wasserstein gradient distance.
//!
//! Every replayed output is checked: decoded messages and frames must
//! equal what was encoded, FedAvg must accept every upload, and each
//! integrated gradient's angle with every constraint is tested.

use crate::stats::median;
use crate::workload::FedRun;
use fedknow::{FedKnowConfig, GradientIntegrator, GradientRestorer, KnowledgeExtractor};
use fedknow_fl::framing::encode_frame;
use fedknow_fl::proto::{decode_msg, encode_msg};
use fedknow_fl::server::fedavg;
use fedknow_fl::{FrameDecoder, LocalTrainer, UploadMeta, WireMsg};
use fedknow_math::distance::{gradient_distance, DistanceMetric};
use fedknow_math::rng::substream;
use fedknow_nn::optim::{LrSchedule, Sgd};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Times of each replayed operation in milliseconds, by metric name and
/// task index.
#[derive(Debug, Default)]
pub struct Timings(BTreeMap<String, BTreeMap<usize, Vec<f64>>>);

impl Timings {
    fn add(&mut self, name: &str, task: usize, ms: f64) {
        self.0
            .entry(name.to_string())
            .or_default()
            .entry(task)
            .or_default()
            .push(ms);
    }

    /// Median over every sample of `name`, with the sample count.
    pub fn median(&self, name: &str) -> Option<(f64, usize)> {
        let all: Vec<f64> = self.0.get(name)?.values().flatten().copied().collect();
        (!all.is_empty()).then(|| (median(&all), all.len()))
    }

    /// Median of `name` at one task index, with the sample count.
    pub fn median_at(&self, name: &str, task: usize) -> Option<(f64, usize)> {
        let s = self.0.get(name)?.get(&task)?;
        (!s.is_empty()).then(|| (median(s), s.len()))
    }
}

/// Time `f` in milliseconds.
fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Outcome of the replays.
#[derive(Debug, Default)]
pub struct Replay {
    pub timings: Timings,
    /// GFLOP/s of each timed forward/backward.
    pub fwd_bwd_gflops: Vec<f64>,
    /// Integrated gradients checked, and how many kept an acute angle
    /// with every constraint.
    pub integrated: usize,
    pub acute: usize,
}

/// Replay the server and wire layers on every task's captured uploads.
pub fn server_and_wire(run: &FedRun, reps: usize, out: &mut Replay) -> Result<(), String> {
    let parts = run.parts.as_ref().expect("traced run keeps its data");
    let tasks = parts[0].tasks.len();
    for t in 0..tasks {
        let uploads: Vec<Option<Vec<f32>>> = run
            .logs
            .iter()
            .map(|l| l.task_snapshots.get(t).cloned())
            .collect();
        let weights: Vec<usize> = parts.iter().map(|p| p.tasks[t].train.len()).collect();
        let present = uploads.iter().flatten().count();
        for _ in 0..reps {
            let (agg, ms) = time_ms(|| fedavg(&uploads, &weights));
            let agg = agg.map_err(|e| format!("fedavg replay: {e}"))?;
            if agg.accepted != present || agg.global.is_none() {
                return Err(format!(
                    "fedavg replay at task {t} accepted {} of {present} uploads",
                    agg.accepted
                ));
            }
            out.timings.add("fl.fedavg.ms", t, ms);
        }
        for (c, up) in uploads.iter().enumerate() {
            let Some(params) = up else { continue };
            let msg = WireMsg::Upload {
                round: t as u64,
                client: c as u32,
                meta: UploadMeta {
                    weight: weights[c] as u64,
                    had_params: true,
                    ..Default::default()
                },
                params: Some(params.clone()),
                payloads: Vec::new(),
            };
            for _ in 0..reps {
                let (enc, enc_ms) = time_ms(|| encode_msg(&msg));
                let (dec, dec_ms) = time_ms(|| decode_msg(&enc.buf));
                if dec.as_ref() != Ok(&msg) {
                    return Err(format!(
                        "upload of client {c} at task {t} did not decode to itself"
                    ));
                }
                let (frame, frame_ms) = time_ms(|| {
                    let frame = encode_frame(&enc.buf).map_err(|e| format!("encode_frame: {e}"))?;
                    let mut decoder = FrameDecoder::new();
                    decoder.feed(&frame);
                    decoder
                        .next_frame()
                        .map_err(|e| format!("FrameDecoder: {e}"))
                });
                if frame?.as_deref() != Some(enc.buf.as_slice()) {
                    return Err(format!(
                        "frame of client {c} at task {t} did not decode to itself"
                    ));
                }
                out.timings.add("fl.proto.encode_ms", t, enc_ms);
                out.timings.add("fl.proto.decode_ms", t, dec_ms);
                out.timings.add("fl.frame.ms", t, frame_ms);
            }
        }
    }
    Ok(())
}

/// Replay the `nn`/`math` layers, and with `fedknow` the `core` layer,
/// on every client's task snapshots.
pub fn model_layers(
    run: &FedRun,
    fedknow: Option<&FedKnowConfig>,
    image_shape: &[usize],
    batch_size: usize,
    reps: usize,
    out: &mut Replay,
) {
    let template = run
        .template
        .as_ref()
        .expect("traced run keeps its template");
    let parts = run.parts.as_ref().expect("traced run keeps its data");
    let core = fedknow.map(|cfg| {
        (
            cfg,
            KnowledgeExtractor::with_strategy(cfg.rho, 0, cfg.strategy),
            GradientIntegrator::new(cfg.margin),
        )
    });
    for (c, log) in run.logs.iter().enumerate() {
        let mut knowledges = Vec::new();
        for (t, snapshot) in log.task_snapshots.iter().enumerate() {
            let mut model = template.instantiate();
            model.set_flat_params(snapshot);
            let mut trainer = LocalTrainer::new(
                model,
                Sgd::new(0.0, LrSchedule::Constant),
                batch_size,
                image_shape.to_vec(),
            );
            let mut rng = substream(0x5EED, (c * 1000 + t) as u64);
            trainer.set_task(&parts[c].tasks[t], &mut rng);
            let (x, labels) = trainer.next_batch(&mut rng);
            let flops = 3 * trainer.model.flops(labels.len());
            let (x2, labels2) = trainer.next_batch(&mut rng);
            trainer.compute_grads(&x2, &labels2);
            let g2 = trainer.model.flat_grads();
            let mut g = Vec::new();
            for _ in 0..reps {
                let (_, ms) = time_ms(|| trainer.compute_grads(&x, &labels));
                out.timings.add("nn.fwd_bwd.ms", t, ms);
                out.fwd_bwd_gflops.push(flops as f64 / (ms * 1e6));
                g = trainer.model.flat_grads();
                let input = x.clone();
                let (_, ms) = time_ms(|| trainer.model.forward(input, false));
                out.timings.add("nn.forward_eval.ms", t, ms);
                let (_, ms) = time_ms(|| gradient_distance(DistanceMetric::Wasserstein, &g, &g2));
                out.timings.add("math.distance.ms", t, ms);
            }
            let Some((fk, extractor, integrator)) = &core else {
                continue;
            };
            if !knowledges.is_empty() {
                let restorer = GradientRestorer;
                let mut restored = Vec::new();
                for k in &knowledges {
                    let mut r = Vec::new();
                    for _ in 0..reps {
                        let ms;
                        (r, ms) = time_ms(|| restorer.restore(&mut trainer.model, k, &x));
                        out.timings.add("core.restore.ms", t, ms);
                    }
                    restored.push(r);
                }
                let mut selected = Vec::new();
                for _ in 0..reps {
                    let ms;
                    (selected, ms) = time_ms(|| {
                        restorer.select_signature_tasks(
                            &mut trainer.model,
                            &knowledges,
                            &x,
                            &g,
                            fk.k,
                            fk.metric,
                        )
                    });
                    out.timings.add("core.select.ms", t, ms);
                }
                let constraints: Vec<Vec<f32>> =
                    selected.iter().map(|&i| restored[i].clone()).collect();
                let mut update = Vec::new();
                for _ in 0..reps {
                    let ms;
                    (update, ms) = time_ms(|| integrator.integrate(&g, &constraints));
                    out.timings.add("core.integrate.ms", t, ms);
                }
                out.integrated += 1;
                if constraints.iter().all(|k| acute(&update, k)) {
                    out.acute += 1;
                }
            }
            let mut knowledge = None;
            for _ in 0..reps {
                let (k, ms) = time_ms(|| extractor.extract(snapshot));
                out.timings.add("core.extract.ms", t, ms);
                knowledge = Some(k);
            }
            knowledges.extend(knowledge);
        }
    }
}

/// Whether `u` keeps a non-obtuse angle with `k`: `⟨u, k⟩ ≥ 0`, up to
/// the rounding of an f32 dot product.
fn acute(u: &[f32], k: &[f32]) -> bool {
    let (mut dot, mut uu, mut kk) = (0.0f64, 0.0f64, 0.0f64);
    for (&a, &b) in u.iter().zip(k) {
        dot += f64::from(a) * f64::from(b);
        uu += f64::from(a) * f64::from(a);
        kk += f64::from(b) * f64::from(b);
    }
    dot >= -1e-6 * (uu * kk).sqrt()
}
