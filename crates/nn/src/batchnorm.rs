//! Batch normalization \[Ioffe & Szegedy, ICML 2015\].
//!
//! The paper's networks use batch normalization between the dense layer and
//! the tanh activation. This implementation keeps running statistics for
//! inference mode and exposes trainable scale (`gamma`) and shift (`beta`).

use crate::{NnError, Param};
use noble_linalg::Matrix;

/// Batch normalization over the feature dimension of `(batch, dim)` inputs.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f64>,
    running_var: Vec<f64>,
    momentum: f64,
    eps: f64,
    // Training-pass cache.
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Matrix,
    inv_std: Vec<f64>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `dim` features with momentum 0.9 and
    /// epsilon `1e-5`.
    pub fn new(dim: usize) -> Self {
        BatchNorm::with_params(dim, Param::new)
    }

    /// [`BatchNorm::new`] with [`Param::frozen`] scale and shift, for
    /// networks restored for inference.
    pub(crate) fn frozen(dim: usize) -> Self {
        BatchNorm::with_params(dim, Param::frozen)
    }

    fn with_params(dim: usize, param: fn(Matrix) -> Param) -> Self {
        BatchNorm {
            gamma: param(Matrix::filled(1, dim, 1.0)),
            beta: param(Matrix::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.9,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.gamma.value.cols()
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }

    /// Forward pass. In training mode, normalizes by batch statistics and
    /// updates the running estimates; in inference mode, uses the running
    /// estimates.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] for a wrong feature dimension and
    /// [`NnError::EmptyData`] for an empty batch in training mode.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Result<Matrix, NnError> {
        if x.cols() != self.dim() {
            return Err(NnError::ShapeMismatch {
                context: "batchnorm forward",
                expected: self.dim(),
                found: x.cols(),
            });
        }
        let n = x.rows();
        if training {
            if n == 0 {
                return Err(NnError::EmptyData);
            }
            let mean = x.column_means();
            let mut var = vec![0.0; self.dim()];
            for i in 0..n {
                for (j, &v) in x.row(i).iter().enumerate() {
                    let d = v - mean[j];
                    var[j] += d * d;
                }
            }
            for v in &mut var {
                *v /= n as f64;
            }
            let inv_std: Vec<f64> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut x_hat = Matrix::zeros(n, self.dim());
            for i in 0..n {
                for j in 0..self.dim() {
                    x_hat[(i, j)] = (x[(i, j)] - mean[j]) * inv_std[j];
                }
            }
            let mut y = Matrix::zeros(n, self.dim());
            for i in 0..n {
                for j in 0..self.dim() {
                    y[(i, j)] = self.gamma.value[(0, j)] * x_hat[(i, j)] + self.beta.value[(0, j)];
                }
            }
            for j in 0..self.dim() {
                self.running_mean[j] =
                    self.momentum * self.running_mean[j] + (1.0 - self.momentum) * mean[j];
                self.running_var[j] =
                    self.momentum * self.running_var[j] + (1.0 - self.momentum) * var[j];
            }
            self.cache = Some(BnCache { x_hat, inv_std });
            Ok(y)
        } else {
            let mut y = x.clone();
            self.infer_in_place(&mut y, 0)?;
            Ok(y)
        }
    }

    /// Inference-mode normalization of `y` in place, with the running
    /// statistics. Column `j` of `y` is feature `col0 + j`, so a caller
    /// that computed only some of the features normalizes just those.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `col0 + y.cols()` exceeds
    /// the feature dimension.
    pub(crate) fn infer_in_place(&self, y: &mut Matrix, col0: usize) -> Result<(), NnError> {
        let w = y.cols();
        if col0 + w > self.dim() {
            return Err(NnError::ShapeMismatch {
                context: "batchnorm forward",
                expected: self.dim(),
                found: col0 + w,
            });
        }
        if w == 0 {
            return Ok(());
        }
        let cols = col0..col0 + w;
        // One square root per column; each element keeps its division
        // (not a multiply by the reciprocal), so the bits are unchanged.
        let sd: Vec<f64> = self.running_var[cols.clone()]
            .iter()
            .map(|&v| (v + self.eps).sqrt())
            .collect();
        let mean = &self.running_mean[cols.clone()];
        let gamma = &self.gamma.value.row(0)[cols.clone()];
        let beta = &self.beta.value.row(0)[cols];
        for row in y.as_mut_slice().chunks_exact_mut(w) {
            for (j, v) in row.iter_mut().enumerate() {
                let x_hat = (*v - mean[j]) / sd[j];
                *v = gamma[j] * x_hat + beta[j];
            }
        }
        Ok(())
    }

    /// Backward pass through the batch-norm transform.
    ///
    /// Accumulates gradients for `gamma`/`beta` and returns the input
    /// gradient using the standard fused formula.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if called before a training-mode
    /// forward pass, or [`NnError::ShapeMismatch`] on a bad gradient shape.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix, NnError> {
        self.gamma.ensure_state();
        self.beta.ensure_state();
        let cache = self.cache.as_ref().ok_or_else(|| {
            NnError::InvalidConfig("batchnorm backward called before training forward".to_string())
        })?;
        let n = cache.x_hat.rows();
        if grad_out.rows() != n || grad_out.cols() != self.dim() {
            return Err(NnError::ShapeMismatch {
                context: "batchnorm backward",
                expected: self.dim(),
                found: grad_out.cols(),
            });
        }
        let d = self.dim();
        let mut dgamma = vec![0.0; d];
        let mut dbeta = vec![0.0; d];
        for i in 0..n {
            for j in 0..d {
                dgamma[j] += grad_out[(i, j)] * cache.x_hat[(i, j)];
                dbeta[j] += grad_out[(i, j)];
            }
        }
        for j in 0..d {
            self.gamma.grad[(0, j)] += dgamma[j];
            self.beta.grad[(0, j)] += dbeta[j];
        }
        // dX = gamma*inv_std/n * (n*G - sum(G) - x_hat * sum(G*x_hat))
        let mut dx = Matrix::zeros(n, d);
        let nf = n as f64;
        for i in 0..n {
            for j in 0..d {
                let g = self.gamma.value[(0, j)];
                dx[(i, j)] = g * cache.inv_std[j] / nf
                    * (nf * grad_out[(i, j)] - dbeta[j] - cache.x_hat[(i, j)] * dgamma[j]);
            }
        }
        Ok(dx)
    }

    /// Drops the gradient and optimizer buffers and the training-pass
    /// cache; the running statistics inference uses stay.
    pub(crate) fn release_training_state(&mut self) {
        self.gamma.release_state();
        self.beta.release_state();
        self.cache = None;
    }

    /// Mutable access to the parameter tensors (gamma, beta), for the
    /// optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    /// Immutable view of the parameter tensors (gamma, beta), for
    /// serialization.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    /// The running inference statistics `(mean, variance)`.
    ///
    /// These are *state*, not trainable parameters, but inference-mode
    /// forward passes depend on them — a serialized model must carry them
    /// to reproduce its outputs bit-exactly.
    pub fn running_stats(&self) -> (&[f64], &[f64]) {
        (&self.running_mean, &self.running_var)
    }

    /// Overwrites the running inference statistics (deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when either slice's length is not
    /// the layer dimension.
    pub fn set_running_stats(&mut self, mean: &[f64], var: &[f64]) -> Result<(), NnError> {
        for s in [mean, var] {
            if s.len() != self.dim() {
                return Err(NnError::ShapeMismatch {
                    context: "batchnorm running stats",
                    expected: self.dim(),
                    found: s.len(),
                });
            }
        }
        self.running_mean.copy_from_slice(mean);
        self.running_var.copy_from_slice(var);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_standardizes_batch() {
        let mut bn = BatchNorm::new(2);
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 30.0], vec![5.0, 50.0]]).unwrap();
        let y = bn.forward(&x, true).unwrap();
        // Per-column mean should be ~0, variance ~1 (gamma=1, beta=0).
        for j in 0..2 {
            let col = y.column(j);
            let m: f64 = col.iter().sum::<f64>() / 3.0;
            let v: f64 = col.iter().map(|c| (c - m) * (c - m)).sum::<f64>() / 3.0;
            assert!(m.abs() < 1e-10, "mean {m}");
            assert!((v - 1.0).abs() < 1e-3, "var {v}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let x = Matrix::from_rows(&[vec![4.0], vec![6.0]]).unwrap();
        // Several passes to converge the running stats toward mean 5.
        for _ in 0..200 {
            bn.forward(&x, true).unwrap();
        }
        let probe = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let y = bn.forward(&probe, false).unwrap();
        assert!(
            y[(0, 0)].abs() < 0.1,
            "running mean should be near 5, got output {}",
            y[(0, 0)]
        );
    }

    #[test]
    fn forward_rejects_wrong_dim() {
        let mut bn = BatchNorm::new(3);
        assert!(bn.forward(&Matrix::zeros(2, 2), true).is_err());
        assert!(bn.forward(&Matrix::zeros(0, 3), true).is_err());
    }

    #[test]
    fn backward_requires_forward() {
        let mut bn = BatchNorm::new(2);
        assert!(bn.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn backward_matches_finite_difference() {
        // Check dX numerically through a sum-of-outputs-squared objective.
        let x = Matrix::from_rows(&[vec![0.2, -0.5], vec![1.0, 0.7], vec![-0.3, 0.1]]).unwrap();
        let loss = |bn: &mut BatchNorm, x: &Matrix| -> f64 {
            let y = bn.forward(x, true).unwrap();
            y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let mut bn = BatchNorm::new(2);
        let y = bn.forward(&x, true).unwrap();
        let grad_out = y.scale(2.0); // d(sum y^2)/dy
        let dx = bn.backward(&grad_out).unwrap();
        let h = 1e-5;
        for (i, j) in [(0, 0), (1, 1), (2, 0)] {
            let mut xp = x.clone();
            xp[(i, j)] += h;
            let mut xm = x.clone();
            xm[(i, j)] -= h;
            // Fresh layers so running stats do not contaminate the check.
            let mut bp = BatchNorm::new(2);
            let mut bm = BatchNorm::new(2);
            let num = (loss(&mut bp, &xp) - loss(&mut bm, &xm)) / (2.0 * h);
            assert!(
                (dx[(i, j)] - num).abs() < 1e-4,
                "dX[{i}{j}]: analytic {} vs numeric {num}",
                dx[(i, j)]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let mut bn = BatchNorm::new(1);
        bn.forward(&x, true).unwrap();
        let g = Matrix::filled(3, 1, 1.0);
        bn.backward(&g).unwrap();
        // dbeta = sum of grad = 3; dgamma = sum(g * x_hat) = 0 for symmetric x_hat.
        assert!((bn.beta.grad[(0, 0)] - 3.0).abs() < 1e-12);
        assert!(bn.gamma.grad[(0, 0)].abs() < 1e-10);
    }

    #[test]
    fn parameter_count_and_dim() {
        let bn = BatchNorm::new(7);
        assert_eq!(bn.dim(), 7);
        assert_eq!(bn.parameter_count(), 14);
    }
}
