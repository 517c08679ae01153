//! Bit-identity properties of the kernel layer.
//!
//! Two invariants the training stack leans on:
//!
//! 1. **Workspace reuse is invisible.** Buffers recycled through
//!    [`fedknow_math::pool`] must produce bit-identical results to fresh
//!    allocation — recycling may never leak stale values into a result.
//! 2. **Parallelism is invisible.** The batch-parallel conv and the
//!    row-parallel GEMM accumulate every output element in the same
//!    (ascending-k) order regardless of the thread count, so results for
//!    1, 2, 4 and 8 threads are bit-identical. Federated rounds rely on
//!    this: a client's update must not depend on how many cores its edge
//!    device has.
//! 3. **One train forward serves many backwards.** A backward after an
//!    earlier backward and an eval forward gives the same gradients as
//!    one after a fresh train forward — what lets FedKNOW's gradient
//!    restorer share the student forward across all restored tasks.
//! 4. **Eval forwards are batch-invariant.** Each row of an eval forward
//!    is the same, bit for bit, whether computed alone, in a permuted
//!    batch, or in the full batch — what lets the restorer cache teacher
//!    pseudo-labels per sample and compute only the rows it lacks.

use fedknow_math::rng::seeded;
use fedknow_math::{parallel, pool, Tensor};
use fedknow_nn::conv::Conv2d;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::models::six_cnn;
use fedknow_nn::{Layer, ModelKind};

fn input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = seeded(seed);
    let data = fedknow_math::rng::normal_vec(&mut rng, shape.iter().product(), 0.0, 1.0);
    Tensor::from_vec(data, shape)
}

/// One conv forward+backward; returns `(y, gx, flat grads)` as raw bits.
fn conv_round_trip(conv: &mut Conv2d, x: &Tensor) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    conv.zero_grad();
    let y = conv.forward(x.clone(), true);
    let gx = conv.backward(y.clone());
    let mut grads = Vec::new();
    conv.visit_params(&mut |_: &str, _: &[usize], _: &mut [f32], g: &mut [f32]| {
        grads.extend(g.iter().map(|v| v.to_bits()));
    });
    (
        y.data().iter().map(|v| v.to_bits()).collect(),
        gx.data().iter().map(|v| v.to_bits()).collect(),
        grads,
    )
}

#[test]
fn conv_is_bit_identical_across_thread_counts() {
    let mut rng = seeded(41);
    // Batch 8 so every thread count {1,2,4,8} gets a non-trivial split;
    // 17×13 input crosses the packed column tiles.
    let mut conv = Conv2d::new(&mut rng, 3, 8, 3, 1, 1, 1);
    let x = input(&[8, 3, 17, 13], 42);
    let reference = parallel::with_threads(1, || conv_round_trip(&mut conv, &x));
    for t in [2, 4, 8] {
        let got = parallel::with_threads(t, || conv_round_trip(&mut conv, &x));
        assert_eq!(got.0, reference.0, "forward differs at {t} threads");
        assert_eq!(got.1, reference.1, "input grad differs at {t} threads");
        assert_eq!(got.2, reference.2, "weight grad differs at {t} threads");
    }
}

#[test]
fn matmul_is_bit_identical_across_thread_counts() {
    // Row count crosses several mr tiles for every ISA tier.
    let a = input(&[67, 129], 43);
    let b = input(&[129, 53], 44);
    let reference = parallel::with_threads(1, || a.matmul(&b));
    for t in [2, 4, 8] {
        let got = parallel::with_threads(t, || a.matmul(&b));
        assert_eq!(
            got.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>(),
            reference
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>(),
            "matmul differs at {t} threads"
        );
    }
}

/// A full train step on the paper's 6-CNN must produce bit-identical
/// parameters for every thread count.
#[test]
fn train_step_is_bit_identical_across_thread_counts() {
    let x = input(&[8, 3, 16, 16], 45);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let step = |threads: usize| -> Vec<u32> {
        parallel::with_threads(threads, || {
            let mut rng = seeded(46);
            let mut m = six_cnn(&mut rng, 3, 10, 1.0);
            for _ in 0..2 {
                let logits = m.forward(x.clone(), true);
                let (_, grad) = cross_entropy(&logits, &labels);
                m.zero_grad();
                let _ = m.backward(grad);
                m.sgd_step(0.05);
            }
            m.flat_params().iter().map(|v| v.to_bits()).collect()
        })
    };
    let reference = step(1);
    for t in [2, 4, 8] {
        assert_eq!(step(t), reference, "trained params differ at {t} threads");
    }
}

/// Recycled workspaces must be invisible: running with the buffer pool
/// disabled (every take is a fresh allocation) gives bit-identical
/// results to running with it enabled (buffers carry stale garbage that
/// kernels must fully overwrite or zero).
#[test]
fn workspace_reuse_is_bit_identical_to_fresh_allocation() {
    let x = input(&[4, 3, 16, 16], 47);
    let labels: Vec<usize> = (0..4).map(|i| i % 10).collect();
    let run = |pool_on: bool| -> (Vec<u32>, Vec<u32>) {
        let was = pool::set_enabled(pool_on);
        let mut rng = seeded(48);
        let mut m = six_cnn(&mut rng, 3, 10, 1.0);
        let mut logits_bits = Vec::new();
        for _ in 0..3 {
            let logits = m.forward(x.clone(), true);
            logits_bits = logits.data().iter().map(|v| v.to_bits()).collect();
            let (_, grad) = cross_entropy(&logits, &labels);
            m.zero_grad();
            let _ = m.backward(grad);
            m.sgd_step(0.05);
        }
        let params = m.flat_params().iter().map(|v| v.to_bits()).collect();
        pool::set_enabled(was);
        (logits_bits, params)
    };
    // Warm the pool with one run first so the pooled run genuinely
    // recycles dirty buffers rather than allocating fresh zeroed ones.
    let _ = run(true);
    let pooled = run(true);
    let fresh = run(false);
    assert_eq!(pooled.0, fresh.0, "logits differ with pooling enabled");
    assert_eq!(pooled.1, fresh.1, "params differ with pooling enabled");
}

/// Flat gradient bits of a model.
fn grad_bits(m: &mut fedknow_nn::Model) -> Vec<u32> {
    m.flat_grads().iter().map(|v| v.to_bits()).collect()
}

/// For every architecture: forward(train) → backward(g₁) → eval forward
/// → zero_grad → backward(g₂) leaves exactly the gradients of a fresh
/// forward(train) → backward(g₂). Backward must read its train caches
/// without consuming them, and an eval forward must not overwrite them.
#[test]
fn repeated_backward_after_eval_forward_matches_fresh_forward() {
    let x = input(&[2, 3, 8, 8], 49);
    let g1 = input(&[2, 5], 50);
    let g2 = input(&[2, 5], 51);
    for kind in ModelKind::ALL {
        let mut shared = kind.build(&mut seeded(52), 3, 5, 1.0);
        shared.forward(x.clone(), true);
        shared.zero_grad();
        let _ = shared.backward(g1.clone());
        shared.forward(x.clone(), false);
        shared.zero_grad();
        let _ = shared.backward(g2.clone());

        let mut fresh = kind.build(&mut seeded(52), 3, 5, 1.0);
        fresh.forward(x.clone(), true);
        fresh.zero_grad();
        let _ = fresh.backward(g2.clone());
        assert_eq!(
            grad_bits(&mut shared),
            grad_bits(&mut fresh),
            "{}: second backward differs from a fresh one",
            kind.name()
        );
    }
}

/// Rows `positions` of the batch `x`, in that order.
fn rows(x: &Tensor, positions: &[usize]) -> Tensor {
    let row = x.len() / x.shape()[0];
    let mut data = Vec::new();
    for &p in positions {
        data.extend_from_slice(&x.data()[p * row..(p + 1) * row]);
    }
    let mut shape = x.shape().to_vec();
    shape[0] = positions.len();
    Tensor::from_vec(data, &shape)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// For every architecture, batches of 7 and 16, and 1 or 2 threads: the
/// eval forward of each
/// row alone, and of the batch reversed, equals the full-batch eval
/// forward row for row, bit for bit.
#[test]
fn eval_forward_rows_are_batch_invariant() {
    // An odd and an even batch, so rows land in full and partial tiles.
    for (n, kind) in [7, 16]
        .into_iter()
        .flat_map(|n| ModelKind::ALL.map(|k| (n, k)))
    {
        let x = input(&[n, 3, 8, 8], 53);
        let mut m = kind.build(&mut seeded(54), 3, 5, 1.0);
        // Move the BatchNorm running statistics off their initial values.
        m.forward(input(&[n, 3, 8, 8], 55), true);
        for threads in [1, 2] {
            parallel::with_threads(threads, || {
                let full = bits(&m.forward(x.clone(), false));
                let classes = full.len() / n;
                let row = |r: usize| &full[r * classes..(r + 1) * classes];
                for r in 0..n {
                    let alone = bits(&m.forward(rows(&x, &[r]), false));
                    assert_eq!(
                        alone,
                        row(r),
                        "{}: row {r} alone differs at {threads} threads",
                        kind.name()
                    );
                }
                let reversed: Vec<usize> = (0..n).rev().collect();
                let rev = bits(&m.forward(rows(&x, &reversed), false));
                for (i, &r) in reversed.iter().enumerate() {
                    assert_eq!(
                        &rev[i * classes..(i + 1) * classes],
                        row(r),
                        "{}: row {r} of the reversed batch differs at {threads} threads",
                        kind.name()
                    );
                }
            });
        }
    }
}
