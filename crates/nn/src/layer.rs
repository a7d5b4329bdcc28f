//! The dense (fully connected) layer.

use crate::{xavier_uniform, NnError, Param};
use noble_linalg::Matrix;
use std::ops::Range;

/// A fully connected layer computing `Y = X W + b` on row-major batches.
///
/// `X` is `(batch, in_dim)`, `W` is `(in_dim, out_dim)`, `b` broadcasts over
/// the batch. The layer caches its input during [`Dense::forward`] in
/// training mode so [`Dense::backward`] can form the weight gradient.
#[derive(Debug, Clone)]
pub struct Dense {
    weights: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a dense layer with Xavier-uniform weights and zero bias.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            weights: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// Creates a dense layer from explicit weights and bias (for tests and
    /// deserialization). The parameters start frozen: their gradient and
    /// optimizer buffers are only allocated if the layer is ever trained.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `bias.cols() != weights.cols()`
    /// or `bias.rows() != 1`.
    pub fn from_parts(weights: Matrix, bias: Matrix) -> Result<Self, NnError> {
        if bias.rows() != 1 || bias.cols() != weights.cols() {
            return Err(NnError::ShapeMismatch {
                context: "dense bias",
                expected: weights.cols(),
                found: bias.cols(),
            });
        }
        Ok(Dense {
            weights: Param::frozen(weights),
            bias: Param::frozen(bias),
            cached_input: None,
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weights.value.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weights.value.cols()
    }

    /// Immutable view of the weight matrix `(in_dim, out_dim)`.
    pub fn weights(&self) -> &Matrix {
        &self.weights.value
    }

    /// Immutable view of the bias row vector.
    pub fn bias(&self) -> &Matrix {
        &self.bias.value
    }

    /// Number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Forward pass. When `training` is true the input is cached for the
    /// backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != in_dim`.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Result<Matrix, NnError> {
        let y = self.infer(x, 0..self.out_dim(), false)?;
        if training {
            self.cached_input = Some(x.clone());
        }
        Ok(y)
    }

    /// Output columns `cols` of the affine map `x W + b`: the product is
    /// read in place from the columns of `W`, and the bias is added in
    /// place. The bits equal the same columns of [`Dense::forward`].
    /// `weights_finite` is the caller's knowledge that every weight is
    /// finite, which lets the product skip all-zero groups of inputs (see
    /// [`Matrix::matmul_columns`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `x.cols() != in_dim`, and
    /// propagates a range outside `0..out_dim`.
    pub(crate) fn infer(
        &self,
        x: &Matrix,
        cols: Range<usize>,
        weights_finite: bool,
    ) -> Result<Matrix, NnError> {
        if x.cols() != self.in_dim() {
            return Err(NnError::ShapeMismatch {
                context: "dense forward",
                expected: self.in_dim(),
                found: x.cols(),
            });
        }
        let mut y = x.matmul_columns(&self.weights.value, cols.clone(), weights_finite)?;
        let b = &self.bias.value.row(0)[cols];
        for i in 0..y.rows() {
            for (yv, &bv) in y.row_mut(i).iter_mut().zip(b) {
                *yv += bv;
            }
        }
        Ok(y)
    }

    /// Whether every weight is finite (one read of the weights).
    pub(crate) fn weights_all_finite(&self) -> bool {
        self.weights.value.as_slice().iter().all(|v| v.is_finite())
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when called before a training-mode
    /// forward pass, or [`NnError::ShapeMismatch`] on a bad gradient shape.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<Matrix, NnError> {
        self.weights.ensure_state();
        self.bias.ensure_state();
        let x = self.cached_input.as_ref().ok_or_else(|| {
            NnError::InvalidConfig("dense backward called before training forward".to_string())
        })?;
        if grad_out.cols() != self.out_dim() || grad_out.rows() != x.rows() {
            return Err(NnError::ShapeMismatch {
                context: "dense backward",
                expected: self.out_dim(),
                found: grad_out.cols(),
            });
        }
        // dW = X^T G ; db = column sums of G ; dX = G W^T
        let dw = x.transpose().matmul(grad_out)?;
        let dw_sum = self.weights.grad.add(&dw)?;
        self.weights.grad = dw_sum;
        for j in 0..self.out_dim() {
            let col_sum: f64 = (0..grad_out.rows()).map(|i| grad_out[(i, j)]).sum();
            self.bias.grad[(0, j)] += col_sum;
        }
        Ok(grad_out.matmul(&self.weights.value.transpose())?)
    }

    /// Drops everything only training needs: the gradient and optimizer
    /// buffers and the cached forward input. Inference is unaffected;
    /// training again re-sizes the buffers to zeros.
    pub fn release_training_state(&mut self) {
        self.weights.release_state();
        self.bias.release_state();
        self.cached_input = None;
    }

    /// Mutable access to the parameter tensors (weights, bias), for the
    /// optimizer.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weights, &mut self.bias]
    }

    /// Immutable view of the parameter tensors (weights, bias), for
    /// serialization.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weights, &self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_layer() -> Dense {
        // W = [[1, 2], [3, 4]], b = [10, 20]
        Dense::from_parts(
            Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[vec![10.0, 20.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn forward_affine() {
        let mut layer = simple_layer();
        let x = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let y = layer.forward(&x, false).unwrap();
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn forward_shape_check() {
        let mut layer = simple_layer();
        let x = Matrix::zeros(1, 3);
        assert!(layer.forward(&x, false).is_err());
    }

    #[test]
    fn from_parts_validates_bias() {
        let w = Matrix::zeros(2, 3);
        assert!(Dense::from_parts(w.clone(), Matrix::zeros(1, 2)).is_err());
        assert!(Dense::from_parts(w.clone(), Matrix::zeros(2, 3)).is_err());
        assert!(Dense::from_parts(w, Matrix::zeros(1, 3)).is_ok());
    }

    #[test]
    fn backward_requires_forward() {
        let mut layer = simple_layer();
        assert!(layer.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0], vec![2.0, 0.3]]).unwrap();
        // Scalar objective: sum of outputs. dL/dY = ones.
        let loss_of =
            |layer: &mut Dense, x: &Matrix| -> f64 { layer.forward(x, false).unwrap().sum() };
        let mut layer = simple_layer();
        layer.forward(&x, true).unwrap();
        let ones = Matrix::filled(2, 2, 1.0);
        let dx = layer.backward(&ones).unwrap();

        let h = 1e-6;
        // Weight gradient check.
        for (i, j) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let mut lp = simple_layer();
            let mut lm = simple_layer();
            let mut wp = lp.weights.value.clone();
            wp[(i, j)] += h;
            lp.weights.value = wp;
            let mut wm = lm.weights.value.clone();
            wm[(i, j)] -= h;
            lm.weights.value = wm;
            let num = (loss_of(&mut lp, &x) - loss_of(&mut lm, &x)) / (2.0 * h);
            assert!(
                (layer.weights.grad[(i, j)] - num).abs() < 1e-5,
                "dW[{i}{j}]: analytic {} vs numeric {num}",
                layer.weights.grad[(i, j)]
            );
        }
        // Input gradient check.
        for (i, j) in [(0, 0), (1, 1)] {
            let mut xp = x.clone();
            xp[(i, j)] += h;
            let mut xm = x.clone();
            xm[(i, j)] -= h;
            let mut l = simple_layer();
            let num = (loss_of(&mut l, &xp) - loss_of(&mut l, &xm)) / (2.0 * h);
            assert!((dx[(i, j)] - num).abs() < 1e-5);
        }
        // Bias gradient: column sums of ones = batch size.
        assert_eq!(layer.bias.grad.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut layer = simple_layer();
        let x = Matrix::from_rows(&[vec![1.0, 0.0]]).unwrap();
        let g = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        layer.forward(&x, true).unwrap();
        layer.backward(&g).unwrap();
        let first = layer.weights.grad.clone();
        layer.forward(&x, true).unwrap();
        layer.backward(&g).unwrap();
        assert_eq!(layer.weights.grad.as_slice()[0], 2.0 * first.as_slice()[0]);
        for p in layer.params_mut() {
            p.zero_grad();
        }
        assert!(layer.weights.grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn parameter_count() {
        let layer = Dense::new(4, 3, 0);
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
        assert_eq!(layer.in_dim(), 4);
        assert_eq!(layer.out_dim(), 3);
    }
}
