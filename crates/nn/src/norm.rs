//! Batch normalisation.

use crate::layer::{Layer, ParamVisitor};
use fedknow_math::{pool, Tensor};

/// Per-channel batch normalisation over `[B, C, H, W]`.
///
/// Training mode normalises with batch statistics and maintains running
/// estimates; eval mode normalises with the running estimates. Backward
/// implements the full batch-norm gradient (including the statistics'
/// dependence on the input).
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Tensor,
    beta: Tensor,
    grad_gamma: Tensor,
    grad_beta: Tensor,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Training-forward caches.
    cached_xhat: Vec<f32>,
    cached_inv_std: Vec<f32>,
    cached_shape: Vec<usize>,
}

impl BatchNorm2d {
    /// New batch-norm layer with γ = 1, β = 0.
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_xhat: Vec::new(),
            cached_inv_std: Vec::new(),
            cached_shape: Vec::new(),
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 4, "BatchNorm2d expects [B,C,H,W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.channels, "BatchNorm2d channel mismatch");
        let plane = h * w;
        let n = (b * plane) as f32;
        let mut out = x.into_vec();

        if train {
            self.cached_shape.clear();
            self.cached_shape.extend_from_slice(&[b, c, h, w]);
            self.cached_inv_std.clear();
            self.cached_inv_std.resize(c, 0.0);
            let xhat = &mut self.cached_xhat;
            xhat.clear();
            xhat.resize(out.len(), 0.0);
            for ch in 0..c {
                let mut mean = 0.0f32;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    mean += out[base..base + plane].iter().sum::<f32>();
                }
                mean /= n;
                let mut var = 0.0f32;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    var += out[base..base + plane]
                        .iter()
                        .map(|v| (v - mean).powi(2))
                        .sum::<f32>();
                }
                var /= n;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                self.cached_inv_std[ch] = inv_std;
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                let (g, be) = (self.gamma.data()[ch], self.beta.data()[ch]);
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    for i in base..base + plane {
                        let xh = (out[i] - mean) * inv_std;
                        xhat[i] = xh;
                        out[i] = g * xh + be;
                    }
                }
            }
        } else {
            for ch in 0..c {
                let inv_std = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                let mean = self.running_mean[ch];
                let (g, be) = (self.gamma.data()[ch], self.beta.data()[ch]);
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    for v in &mut out[base..base + plane] {
                        *v = g * (*v - mean) * inv_std + be;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[b, c, h, w])
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        assert!(
            !self.cached_shape.is_empty(),
            "backward before forward(train)"
        );
        let (b, c, h, w) = (
            self.cached_shape[0],
            self.cached_shape[1],
            self.cached_shape[2],
            self.cached_shape[3],
        );
        let plane = h * w;
        let n = (b * plane) as f32;
        let gy = grad.data();
        let mut gx = pool::take_zeroed(gy.len());
        for ch in 0..c {
            let g = self.gamma.data()[ch];
            let inv_std = self.cached_inv_std[ch];
            // Reductions: Σgy, Σ gy·x̂.
            let (mut sum_gy, mut sum_gy_xhat) = (0.0f32, 0.0f32);
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                let gys = &gy[base..base + plane];
                let xhats = &self.cached_xhat[base..base + plane];
                for (&g_i, &xh) in gys.iter().zip(xhats) {
                    sum_gy += g_i;
                    sum_gy_xhat += g_i * xh;
                }
            }
            self.grad_beta.data_mut()[ch] += sum_gy;
            self.grad_gamma.data_mut()[ch] += sum_gy_xhat;
            let k = g * inv_std / n;
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    gx[i] = k * (n * gy[i] - sum_gy - self.cached_xhat[i] * sum_gy_xhat);
                }
            }
        }
        Tensor::from_vec(gx, &[b, c, h, w])
    }

    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(
            "bn.gamma",
            &[self.channels],
            self.gamma.data_mut(),
            self.grad_gamma.data_mut(),
        );
        v.visit(
            "bn.beta",
            &[self.channels],
            self.beta.data_mut(),
            self.grad_beta.data_mut(),
        );
    }

    fn zero_grad(&mut self) {
        self.grad_gamma.data_mut().fill(0.0);
        self.grad_beta.data_mut().fill(0.0);
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        v(&mut self.running_mean);
        v(&mut self.running_var);
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        (
            4 * in_shape.iter().product::<usize>() as u64,
            in_shape.to_vec(),
        )
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_normalises_batch() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1, 1, 1]);
        let y = bn.forward(x, true);
        let mean: f32 = y.data().iter().sum::<f32>() / 4.0;
        let var: f32 = y.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        // Train a few batches with mean 10 so running stats move there.
        for _ in 0..200 {
            let x = Tensor::from_vec(vec![9.0, 10.0, 11.0, 10.0], &[4, 1, 1, 1]);
            let _ = bn.forward(x, true);
        }
        let y = bn.forward(Tensor::from_vec(vec![10.0], &[1, 1, 1, 1]), false);
        assert!(
            y.data()[0].abs() < 0.1,
            "input at running mean should map near 0"
        );
    }

    #[test]
    fn backward_gradient_sums_to_zero_per_channel() {
        // Because the batch mean is subtracted, ∂L/∂x sums to 0 over the
        // batch when gamma is constant — a classic BN sanity property
        // (holds exactly when Σgy·x̂ contributions balance; with uniform
        // upstream gradient it is exact).
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1, 1, 1]);
        let _ = bn.forward(x, true);
        let gx = bn.backward(Tensor::full(&[4, 1, 1, 1], 1.0));
        let s: f32 = gx.data().iter().sum();
        assert!(s.abs() < 1e-4, "sum {s}");
    }
}
