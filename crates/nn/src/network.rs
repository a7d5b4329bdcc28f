//! The multilayer perceptron: a sequential stack of dense, batch-norm and
//! activation layers.

use crate::screen::Screen;
use crate::{Activation, BatchNorm, Dense, NnError, Optimizer, Param};
use noble_linalg::Matrix;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::OnceLock;

/// One stage of an [`Mlp`].
#[derive(Debug, Clone)]
enum Layer {
    Dense(Dense),
    BatchNorm(BatchNorm),
    Activation(Activation, Option<Matrix>),
}

/// A feed-forward network built from dense, batch-norm and activation
/// stages.
///
/// The paper's WiFi model is
/// `Dense(W, 128) → BatchNorm → Tanh → Dense(128, 128) → BatchNorm → Tanh →
/// Dense(128, K)`; build it with [`Mlp::builder`]:
///
/// ```
/// use noble_nn::{Activation, Mlp};
///
/// let mlp = Mlp::builder(32, 7)
///     .dense(128).batch_norm().activation(Activation::Tanh)
///     .dense(128).batch_norm().activation(Activation::Tanh)
///     .dense(10)
///     .build();
/// assert_eq!(mlp.in_dim(), 32);
/// assert_eq!(mlp.out_dim(), 10);
/// ```
///
/// The network also carries one fact: whether every weight of its first
/// dense layer is known to be finite. While it holds, inference lets that
/// layer's product skip all-zero groups of inputs, with the same bits
/// (see [`Matrix::matmul_columns`]). Only the first layer gains from it:
/// a fingerprint hears few access points, so its input is mostly zeros,
/// while a hidden activation is almost never exactly zero. Decoding a
/// parameter blob and the end of training learn the fact (see
/// [`crate::load_parameters`] and [`crate::Trainer::fit`]); every `&mut`
/// path to the parameters clears it — [`Mlp::params_mut`] (and so
/// [`Mlp::apply_gradients`]), [`Mlp::set_running_stats`] and a
/// training-mode [`Mlp::forward`].
///
/// When the network ends in a wide dense layer, it also keeps that layer's
/// *certified f32 screen* (an f32 copy of its weights and a per-column
/// error bound), with which [`Mlp::predict_argmax`] picks classes with the
/// exact answer while scoring most logits in f32. Decoding a blob builds
/// it, in a separate pass after the decode loop; a network that was
/// trained instead builds it on its first `predict_argmax` call. The same
/// `&mut` paths drop it.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
    in_dim: usize,
    out_dim: usize,
    input_weights_finite: bool,
    /// The screen of the last dense layer once built; `None` inside when
    /// the layer does not qualify.
    screen: OnceLock<Option<Screen>>,
}

/// Architecture description of one [`Mlp`] stage, introspectable via
/// [`Mlp::layer_specs`] and replayable via [`Mlp::from_specs`] — the
/// structural half of model serialization (parameter values travel via
/// [`crate::save_parameters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MlpLayerSpec {
    /// A dense layer `(in_dim, out_dim)`.
    Dense {
        /// Input width.
        in_dim: usize,
        /// Output width.
        out_dim: usize,
    },
    /// A batch-norm stage over `dim` features.
    BatchNorm {
        /// Feature width.
        dim: usize,
    },
    /// An element-wise activation.
    Activation(Activation),
}

/// Builder for [`Mlp`] (see [`Mlp::builder`]).
#[derive(Debug)]
pub struct MlpBuilder {
    layers: Vec<Layer>,
    in_dim: usize,
    current_dim: usize,
    seed: u64,
    next_layer_index: u64,
}

impl MlpBuilder {
    /// Appends a dense layer mapping the current width to `out_dim`.
    pub fn dense(mut self, out_dim: usize) -> Self {
        let layer_seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.next_layer_index);
        self.next_layer_index += 1;
        self.layers.push(Layer::Dense(Dense::new(
            self.current_dim,
            out_dim,
            layer_seed,
        )));
        self.current_dim = out_dim;
        self
    }

    /// Appends a batch-normalization stage over the current width.
    pub fn batch_norm(mut self) -> Self {
        self.layers
            .push(Layer::BatchNorm(BatchNorm::new(self.current_dim)));
        self
    }

    /// Appends an element-wise activation.
    pub fn activation(mut self, act: Activation) -> Self {
        self.layers.push(Layer::Activation(act, None));
        self
    }

    /// Finalizes the network.
    pub fn build(self) -> Mlp {
        Mlp {
            out_dim: self.current_dim,
            in_dim: self.in_dim,
            layers: self.layers,
            screen: OnceLock::new(),
            input_weights_finite: false,
        }
    }
}

impl Mlp {
    /// Starts building a network that accepts `in_dim` features.
    ///
    /// `seed` drives all weight initialization deterministically; each layer
    /// derives its own sub-seed.
    pub fn builder(in_dim: usize, seed: u64) -> MlpBuilder {
        MlpBuilder {
            layers: Vec::new(),
            in_dim,
            current_dim: in_dim,
            seed,
            next_layer_index: 0,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total number of trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => d.parameter_count(),
                Layer::BatchNorm(b) => b.parameter_count(),
                Layer::Activation(..) => 0,
            })
            .sum()
    }

    /// Number of dense layers (used by the energy model's MAC counter).
    pub fn dense_shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::Dense(d) => Some((d.in_dim(), d.out_dim())),
                _ => None,
            })
            .collect()
    }

    /// Whether the network contains batch-norm stages.
    pub fn has_batch_norm(&self) -> bool {
        self.layers.iter().any(|l| matches!(l, Layer::BatchNorm(_)))
    }

    /// Forward pass over a `(batch, in_dim)` matrix.
    ///
    /// In training mode intermediate values are cached for
    /// [`Mlp::backward`]; in inference mode this is [`Mlp::predict`].
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers.
    pub fn forward(&mut self, x: &Matrix, training: bool) -> Result<Matrix, NnError> {
        if !training {
            return self.infer(x, self.layers.len(), None);
        }
        // The optimizer step that follows rewrites the weights.
        self.forget_weight_facts();
        let mut h = Cow::Borrowed(x);
        for layer in &mut self.layers {
            h = Cow::Owned(match layer {
                Layer::Dense(d) => d.forward(&h, true)?,
                Layer::BatchNorm(b) => b.forward(&h, true)?,
                Layer::Activation(a, cache) => {
                    let y = a.forward(&h);
                    *cache = Some(y.clone());
                    y
                }
            });
        }
        Ok(h.into_owned())
    }

    /// Inference pass: no caching, running batch-norm statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers.
    pub fn predict(&mut self, x: &Matrix) -> Result<Matrix, NnError> {
        self.infer(x, self.layers.len(), None)
    }

    /// Inference over output columns `cols` only: a `(batch, cols.len())`
    /// matrix whose bits equal those columns of [`Mlp::predict`]. The
    /// final dense layer reads just those columns of its weights, so a
    /// caller that needs one head of a multi-head output pays for that
    /// head alone.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers, and rejects a
    /// range outside `0..out_dim`.
    pub fn predict_columns(&self, x: &Matrix, cols: Range<usize>) -> Result<Matrix, NnError> {
        self.infer(x, self.layers.len(), Some(cols))
    }

    /// The arg-max class of output columns `cols` for every row of `x`:
    /// an index into `cols`, the first of the largest outputs, NaNs
    /// skipped, `0` when every output is NaN — the class
    /// [`noble_linalg::argmax`] picks from [`Mlp::predict_columns`].
    ///
    /// A final dense layer of at least [`crate::SCREEN_MIN_ROW_FLOPS`]
    /// multiply-adds per row whose parameters are finite and within f32
    /// range gets a certified f32 screen, built when the parameters were
    /// decoded or else by the first call, and kept until a `&mut` path
    /// drops it (see [`Mlp`]). With it, the last layer
    /// scores `cols` in f32, bounds each score's distance from the exact
    /// output, and recomputes in f64 only the columns whose bound reaches
    /// the best score's. The class is the same, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers, and rejects an
    /// empty range or one outside `0..out_dim`.
    pub fn predict_argmax(&self, x: &Matrix, cols: Range<usize>) -> Result<Vec<usize>, NnError> {
        if cols.is_empty() {
            return Err(NnError::InvalidConfig(
                "an arg-max needs at least one column".into(),
            ));
        }
        if let Some(Layer::Dense(last)) = self.layers.last() {
            if let Some(screen) = self.screen.get_or_init(|| Screen::build(last)) {
                let h = self.infer(x, self.layers.len() - 1, None)?;
                return screen.classes(last, &h, cols);
            }
        }
        Ok(self
            .predict_columns(x, cols)?
            .iter_rows()
            .map(|row| noble_linalg::argmax(row).unwrap_or(0))
            .collect())
    }

    /// The one inference routine: layers `..stop` in order. The first
    /// dense product skips all-zero input groups while its weights are
    /// known finite (same bits; see [`Mlp`]); bias, batch-norm (running
    /// statistics) and activations run in place. With `cols`, the last
    /// dense layer computes only those output columns, and the stages
    /// after it work on those columns alone.
    fn infer(
        &self,
        x: &Matrix,
        stop: usize,
        cols: Option<Range<usize>>,
    ) -> Result<Matrix, NnError> {
        let layers = &self.layers[..stop];
        let last_dense = layers.iter().rposition(|l| matches!(l, Layer::Dense(_)));
        let mut skip_zero_groups = self.input_weights_finite;
        let mut h = Cow::Borrowed(x);
        // The feature index of column 0 of `h`.
        let mut col0 = 0;
        for (i, layer) in layers.iter().enumerate() {
            match layer {
                Layer::Dense(d) => {
                    let range = match &cols {
                        Some(range) if Some(i) == last_dense => range.clone(),
                        _ => 0..d.out_dim(),
                    };
                    col0 = range.start;
                    h = Cow::Owned(d.infer(&h, range, skip_zero_groups)?);
                    skip_zero_groups = false;
                }
                Layer::BatchNorm(b) => b.infer_in_place(h.to_mut(), col0)?,
                Layer::Activation(a, _) => a.apply_in_place(h.to_mut()),
            }
        }
        Ok(h.into_owned())
    }

    /// Single-sample inference: one feature row in, one output row out.
    ///
    /// This is the serving-style per-fix path; for throughput, stack
    /// samples and use [`Mlp::predict_batch`] instead — one forward over
    /// the whole batch reuses each weight matrix while it is
    /// cache-resident and amortizes per-call allocation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `row.len() != in_dim`.
    pub fn predict_one(&mut self, row: &[f64]) -> Result<Vec<f64>, NnError> {
        if row.len() != self.in_dim {
            return Err(NnError::ShapeMismatch {
                context: "predict_one",
                expected: self.in_dim,
                found: row.len(),
            });
        }
        let x = Matrix::from_vec(1, self.in_dim, row.to_vec()).expect("length checked");
        Ok(self.forward(&x, false)?.into_vec())
    }

    /// Batched inference over stacked samples: one forward pass over a
    /// `(rows.len(), in_dim)` matrix instead of `rows.len()` single-row
    /// forwards. Output row `i` corresponds to input row `i` and matches
    /// [`Mlp::predict_one`] on that row to floating-point reassociation
    /// (batch-norm inference uses running statistics, so rows are
    /// independent).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when any row's length differs
    /// from `in_dim`.
    pub fn predict_batch(&mut self, rows: &[Vec<f64>]) -> Result<Matrix, NnError> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, self.out_dim));
        }
        let mut data = Vec::with_capacity(rows.len() * self.in_dim);
        for row in rows {
            if row.len() != self.in_dim {
                return Err(NnError::ShapeMismatch {
                    context: "predict_batch",
                    expected: self.in_dim,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        let x = Matrix::from_vec(rows.len(), self.in_dim, data).expect("lengths checked");
        self.forward(&x, false)
    }

    /// Output of the *penultimate* stage in inference mode — the learned
    /// embedding the paper analyzes in its manifold argument (§III-C).
    ///
    /// Runs all layers except the final dense layer.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the constituent layers.
    pub fn embed(&mut self, x: &Matrix) -> Result<Matrix, NnError> {
        let last_dense = self
            .layers
            .iter()
            .rposition(|l| matches!(l, Layer::Dense(_)))
            .ok_or_else(|| NnError::InvalidConfig("network has no dense layer".to_string()))?;
        self.infer(x, last_dense, None)
    }

    /// Backward pass: consumes `dL/d_output` and accumulates parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when called before a
    /// training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Matrix) -> Result<(), NnError> {
        self.backward_with_input_grad(grad_out).map(|_| ())
    }

    /// Backward pass that also returns `dL/d_input` — needed when several
    /// networks are chained end-to-end (e.g. NObLe's projection →
    /// displacement → location modules) and the upstream module continues
    /// the chain.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when called before a
    /// training-mode forward pass.
    pub fn backward_with_input_grad(&mut self, grad_out: &Matrix) -> Result<Matrix, NnError> {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = match layer {
                Layer::Dense(d) => d.backward(&g)?,
                Layer::BatchNorm(b) => b.backward(&g)?,
                Layer::Activation(a, cache) => {
                    let y = cache.as_ref().ok_or_else(|| {
                        NnError::InvalidConfig(
                            "activation backward called before training forward".to_string(),
                        )
                    })?;
                    let d = a.derivative_from_output(y);
                    g.hadamard(&d)?
                }
            };
        }
        Ok(g)
    }

    /// Applies one optimizer step to every parameter and clears gradients.
    pub fn apply_gradients(&mut self, optimizer: &mut Optimizer) {
        optimizer.begin_step();
        for p in self.params_mut() {
            optimizer.update(p);
        }
    }

    /// Mutable access to every trainable parameter tensor. The first
    /// layer's weights no longer count as known finite, and the screen is
    /// dropped (see [`Mlp`]).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.forget_weight_facts();
        let mut out = Vec::new();
        for layer in &mut self.layers {
            match layer {
                Layer::Dense(d) => out.extend(d.params_mut()),
                Layer::BatchNorm(b) => out.extend(b.params_mut()),
                Layer::Activation(..) => {}
            }
        }
        out
    }

    /// Immutable view of every trainable parameter tensor, in the same
    /// order as [`Mlp::params_mut`] (serialization must not require
    /// exclusive access).
    pub fn params(&self) -> Vec<&Param> {
        let mut out = Vec::new();
        for layer in &self.layers {
            match layer {
                Layer::Dense(d) => out.extend(d.params()),
                Layer::BatchNorm(b) => out.extend(b.params()),
                Layer::Activation(..) => {}
            }
        }
        out
    }

    /// Running batch-norm statistics in layer order, flattened as
    /// `(mean, var)` pairs. Inference output depends on these, so a
    /// serialized model must carry them alongside its parameters.
    pub fn running_stats(&self) -> Vec<(&[f64], &[f64])> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                Layer::BatchNorm(b) => Some(b.running_stats()),
                _ => None,
            })
            .collect()
    }

    /// Overwrites the running batch-norm statistics (deserialization);
    /// `stats` pairs up with [`Mlp::running_stats`] order. Like every
    /// `&mut` path to the model's state, it clears the finite-weights fact
    /// and drops the screen (see [`Mlp`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the pair count differs from
    /// the network's batch-norm stage count, and propagates length
    /// mismatches from the stages.
    pub fn set_running_stats(&mut self, stats: &[(Vec<f64>, Vec<f64>)]) -> Result<(), NnError> {
        self.forget_weight_facts();
        let bn_layers: Vec<&mut BatchNorm> = self
            .layers
            .iter_mut()
            .filter_map(|l| match l {
                Layer::BatchNorm(b) => Some(b),
                _ => None,
            })
            .collect();
        if bn_layers.len() != stats.len() {
            return Err(NnError::InvalidConfig(format!(
                "blob carries {} batch-norm stat pairs, network has {} batch-norm stages",
                stats.len(),
                bn_layers.len()
            )));
        }
        for (b, (mean, var)) in bn_layers.into_iter().zip(stats) {
            b.set_running_stats(mean, var)?;
        }
        Ok(())
    }

    /// Index, in [`Mlp::params`] order, of the first dense layer's
    /// weight tensor: the tensor whose finiteness [`Mlp`] tracks. Each
    /// dense layer and each batch-norm stage holds two tensors.
    pub(crate) fn input_weights_tensor(&self) -> Option<usize> {
        let first = self
            .layers
            .iter()
            .position(|l| matches!(l, Layer::Dense(_)))?;
        let norms = self.layers[..first]
            .iter()
            .filter(|l| matches!(l, Layer::BatchNorm(_)))
            .count();
        Some(2 * norms)
    }

    /// Records whether the first dense layer's weights are all finite, as
    /// learned by a caller that has just read every one of them.
    pub(crate) fn set_input_weights_finite(&mut self, finite: bool) {
        self.input_weights_finite = finite;
    }

    /// Reads the first dense layer's weights once and records whether
    /// they are all finite (the end of training).
    pub(crate) fn scan_input_weights_finite(&mut self) {
        self.input_weights_finite = self.layers.iter().find_map(|l| match l {
            Layer::Dense(d) => Some(d.weights_all_finite()),
            _ => None,
        }) == Some(true);
    }

    /// Builds the screen of the last layer now (the end of
    /// [`crate::load_parameters`]), so the first served batch does not.
    pub(crate) fn build_screen(&mut self) {
        self.screen = OnceLock::from(match self.layers.last() {
            Some(Layer::Dense(last)) => Screen::build(last),
            _ => None,
        });
    }

    /// Clears every fact learned from the weights: the parameters are
    /// about to change.
    fn forget_weight_facts(&mut self) {
        self.input_weights_finite = false;
        self.screen = OnceLock::new();
    }

    /// The architecture as a replayable spec sequence (see
    /// [`MlpLayerSpec`]).
    pub fn layer_specs(&self) -> Vec<MlpLayerSpec> {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Dense(d) => MlpLayerSpec::Dense {
                    in_dim: d.in_dim(),
                    out_dim: d.out_dim(),
                },
                Layer::BatchNorm(b) => MlpLayerSpec::BatchNorm { dim: b.dim() },
                Layer::Activation(a, _) => MlpLayerSpec::Activation(*a),
            })
            .collect()
    }

    /// Rebuilds a network from [`Mlp::layer_specs`] output with zero
    /// weights (no RNG draws) and frozen parameters — callers
    /// restoring a serialized model overwrite the values with
    /// [`crate::load_parameters`] immediately after, and an
    /// inference-only model never allocates gradient or optimizer
    /// buffers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when consecutive specs disagree
    /// on widths (e.g. a dense layer whose `in_dim` is not the running
    /// width).
    pub fn from_specs(in_dim: usize, specs: &[MlpLayerSpec]) -> Result<Mlp, NnError> {
        let mut layers = Vec::with_capacity(specs.len());
        let mut width = in_dim;
        for spec in specs {
            match *spec {
                MlpLayerSpec::Dense {
                    in_dim: d_in,
                    out_dim,
                } => {
                    if d_in != width {
                        return Err(NnError::InvalidConfig(format!(
                            "dense spec expects input width {d_in}, running width is {width}"
                        )));
                    }
                    let dense =
                        Dense::from_parts(Matrix::zeros(d_in, out_dim), Matrix::zeros(1, out_dim))?;
                    layers.push(Layer::Dense(dense));
                    width = out_dim;
                }
                MlpLayerSpec::BatchNorm { dim } => {
                    if dim != width {
                        return Err(NnError::InvalidConfig(format!(
                            "batch-norm spec expects width {dim}, running width is {width}"
                        )));
                    }
                    layers.push(Layer::BatchNorm(BatchNorm::frozen(dim)));
                }
                MlpLayerSpec::Activation(a) => layers.push(Layer::Activation(a, None)),
            }
        }
        Ok(Mlp {
            layers,
            in_dim,
            out_dim: width,
            input_weights_finite: false,
            screen: OnceLock::new(),
        })
    }

    /// Drops everything only training needs — every parameter's gradient
    /// and optimizer buffers, and the cached forward activations — so a
    /// finished model holds just what inference reads. Training again
    /// re-sizes the buffers to zeros on first use.
    pub fn release_training_state(&mut self) {
        for layer in &mut self.layers {
            match layer {
                Layer::Dense(d) => d.release_training_state(),
                Layer::BatchNorm(b) => b.release_training_state(),
                Layer::Activation(_, cache) => *cache = None,
            }
        }
    }

    /// Gradient L2 norm across all parameters (diagnostics, divergence
    /// detection).
    pub fn grad_norm(&mut self) -> f64 {
        self.params()
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|g| g * g).sum::<f64>())
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Loss, MseLoss};

    #[test]
    fn builder_tracks_dims() {
        let mlp = Mlp::builder(5, 0)
            .dense(16)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(3)
            .build();
        assert_eq!(mlp.in_dim(), 5);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.dense_shapes(), vec![(5, 16), (16, 3)]);
        assert!(mlp.has_batch_norm());
        assert_eq!(mlp.parameter_count(), 5 * 16 + 16 + 16 + 16 + 16 * 3 + 3);
    }

    #[test]
    fn forward_shapes() {
        let mut mlp = Mlp::builder(4, 1)
            .dense(8)
            .activation(Activation::Relu)
            .dense(2)
            .build();
        let x = Matrix::zeros(10, 4);
        let y = mlp.forward(&x, false).unwrap();
        assert_eq!(y.shape(), (10, 2));
        assert!(mlp.forward(&Matrix::zeros(1, 5), false).is_err());
    }

    #[test]
    fn deterministic_initialization() {
        let mut a = Mlp::builder(3, 9).dense(4).dense(2).build();
        let mut b = Mlp::builder(3, 9).dense(4).dense(2).build();
        let x = Matrix::filled(2, 3, 0.7);
        assert_eq!(
            a.forward(&x, false).unwrap().as_slice(),
            b.forward(&x, false).unwrap().as_slice()
        );
        let mut c = Mlp::builder(3, 10).dense(4).dense(2).build();
        assert_ne!(
            a.forward(&x, false).unwrap().as_slice(),
            c.forward(&x, false).unwrap().as_slice()
        );
    }

    #[test]
    fn distinct_layers_get_distinct_seeds() {
        let mlp = Mlp::builder(4, 3).dense(4).dense(4).build();
        let shapes = mlp.dense_shapes();
        assert_eq!(shapes[0], shapes[1]);
        // Probe: outputs differ layer-to-layer because weights differ.
        let mut m = mlp.clone();
        let x = Matrix::identity(4);
        let h1 = m.forward(&x, false).unwrap();
        assert!(h1.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut mlp = Mlp::builder(2, 0)
            .dense(2)
            .activation(Activation::Tanh)
            .build();
        assert!(mlp.backward(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut mlp = Mlp::builder(3, 5)
            .dense(4)
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        let x = Matrix::from_rows(&[vec![0.2, -0.4, 0.9], vec![1.0, 0.1, -0.3]]).unwrap();
        let t = Matrix::from_rows(&[vec![0.5, -0.5], vec![0.0, 1.0]]).unwrap();

        let out = mlp.forward(&x, true).unwrap();
        let (_, grad) = MseLoss.evaluate(&out, &t).unwrap();
        mlp.backward(&grad).unwrap();

        // Numerically check the gradient of the FIRST dense layer's first weight.
        let analytic = {
            let params = mlp.params_mut();
            params[0].grad[(0, 0)]
        };
        let h = 1e-6;
        let loss_with_perturbation = |mlp: &Mlp, delta: f64| -> f64 {
            let mut m = mlp.clone();
            {
                let mut params = m.params_mut();
                params[0].value[(0, 0)] += delta;
            }
            let out = m.forward(&x, true).unwrap();
            MseLoss.evaluate(&out, &t).unwrap().0
        };
        let base = mlp.clone();
        let num =
            (loss_with_perturbation(&base, h) - loss_with_perturbation(&base, -h)) / (2.0 * h);
        assert!(
            (analytic - num).abs() < 1e-6,
            "analytic {analytic} vs numeric {num}"
        );
    }

    #[test]
    fn training_reduces_loss_on_xor() {
        // XOR is the classic non-linear sanity check.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        let t = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![1.0], vec![0.0]]).unwrap();
        let mut mlp = Mlp::builder(2, 13)
            .dense(8)
            .activation(Activation::Tanh)
            .dense(1)
            .build();
        let mut opt = Optimizer::adam(0.05);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..500 {
            let out = mlp.forward(&x, true).unwrap();
            let (l, g) = MseLoss.evaluate(&out, &t).unwrap();
            mlp.backward(&g).unwrap();
            mlp.apply_gradients(&mut opt);
            first_loss.get_or_insert(l);
            last_loss = l;
        }
        assert!(last_loss < first_loss.unwrap() * 0.05, "loss {last_loss}");
        assert!(last_loss < 0.02);
    }

    #[test]
    fn predict_batch_matches_per_sample_path() {
        let mut mlp = Mlp::builder(6, 21)
            .dense(16)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(3)
            .build();
        // Drive batch-norm running stats away from their init so inference
        // actually exercises them.
        let warm = Matrix::from_fn(32, 6, |i, j| ((i * 5 + j * 3) % 9) as f64 / 4.0 - 1.0);
        mlp.forward(&warm, true).unwrap();

        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| {
                (0..6)
                    .map(|j| ((i * 7 + j) % 13) as f64 / 6.0 - 1.0)
                    .collect()
            })
            .collect();
        let batched = mlp.predict_batch(&rows).unwrap();
        assert_eq!(batched.shape(), (17, 3));
        for (i, row) in rows.iter().enumerate() {
            let single = mlp.predict_one(row).unwrap();
            for j in 0..3 {
                assert!(
                    (batched[(i, j)] - single[j]).abs() < 1e-9,
                    "row {i} col {j}: batched {} vs single {}",
                    batched[(i, j)],
                    single[j]
                );
            }
        }
    }

    /// The serving shape in miniature: a wide sparse input, two hidden
    /// layers of 128 (so the blocked kernel runs) and a 3-head output.
    fn trained_sparse_net() -> (Mlp, Matrix) {
        let mut mlp = Mlp::builder(40, 17)
            .dense(128)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(128)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(70)
            .build();
        // Rows that are mostly whole zero groups, like fingerprints.
        let x = Matrix::from_fn(24, 40, |i, j| {
            if (j / 4 + i) % 5 == 0 {
                ((i * 3 + j) % 7) as f64 / 7.0 - 0.2
            } else {
                0.0
            }
        });
        let y = Matrix::from_fn(24, 70, |i, j| ((i + j) % 3) as f64 - 1.0);
        let cfg = crate::TrainConfig {
            epochs: 3,
            batch_size: 8,
            ..crate::TrainConfig::default()
        };
        crate::Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &MseLoss, None)
            .unwrap();
        (mlp, x)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn predict_columns_carries_the_bits_of_predict() {
        let (mut mlp, x) = trained_sparse_net();
        let mut restored = Mlp::from_specs(40, &mlp.layer_specs()).unwrap();
        crate::load_parameters(&mut restored, &crate::save_parameters(&mlp)).unwrap();
        let full = mlp.predict(&x).unwrap();
        assert_eq!(bits(&restored.predict(&x).unwrap()), bits(&full));
        for cols in [0..70, 5..9, 3..40, 41..70, 69..70] {
            let want = Matrix::from_fn(x.rows(), cols.len(), |i, j| full[(i, cols.start + j)]);
            for net in [&mlp, &restored] {
                let got = net.predict_columns(&x, cols.clone()).unwrap();
                assert_eq!(bits(&got), bits(&want), "columns {cols:?}");
            }
        }
        assert!(mlp.predict_columns(&x, 60..71).is_err());
    }

    #[test]
    fn a_non_finite_weight_behind_zero_inputs_still_propagates() {
        let (trained, x) = trained_sparse_net();
        // Rows whose inputs 0..4 (a whole zero group) are all zero; three
        // rows, so each streams alone and no 4-row tile shares the group.
        let x = x.select_rows(&[1, 2, 3]);
        assert!(x.as_slice().chunks(40).all(|r| r[0..4] == [0.0; 4]));
        for poison in [f64::NAN, f64::INFINITY] {
            // Through a `&mut` path to the parameters...
            let mut edited = trained.clone();
            edited.params_mut()[0].value[(1, 5)] = poison;
            // ...and through a blob that carries the non-finite weight.
            let mut restored = Mlp::from_specs(40, &edited.layer_specs()).unwrap();
            crate::load_parameters(&mut restored, &crate::save_parameters(&edited)).unwrap();
            for mut net in [edited, restored] {
                let out = net.predict(&x).unwrap();
                // 0 * NaN and 0 * inf are NaN: hidden unit 5 of every row
                // is NaN, and so is every output after it.
                assert!(
                    out.as_slice().iter().all(|v| v.is_nan()),
                    "{poison}: {out:?}"
                );
                let head = net.predict_columns(&x, 10..20).unwrap();
                assert!(head.as_slice().iter().all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn every_mut_path_clears_the_finite_weights_fact() {
        let (trained, x) = trained_sparse_net();
        let poisoned = |net: &mut Mlp| {
            // Writes behind the network's back, as a stale fact would
            // allow.
            if let Layer::Dense(d) = &mut net.layers[0] {
                d.params_mut()[0].value[(1, 5)] = f64::NAN;
            }
        };
        // One row, so no tile shares its zero group with a nonzero row.
        let row = x.select_rows(&[1]);
        let probe = |net: &mut Mlp| net.predict(&row).unwrap()[(0, 0)].is_nan();
        // The fact holds after training and after a blob decode, so a
        // silent edit is skipped over.
        let mut net = trained.clone();
        poisoned(&mut net);
        assert!(!probe(&mut net), "trained weights should count as finite");
        let mut net = Mlp::from_specs(40, &trained.layer_specs()).unwrap();
        crate::load_parameters(&mut net, &crate::save_parameters(&trained)).unwrap();
        poisoned(&mut net);
        assert!(!probe(&mut net), "decoded weights should count as finite");

        let mut net = trained.clone();
        let _ = net.params_mut();
        poisoned(&mut net);
        assert!(probe(&mut net), "params_mut");

        let mut net = trained.clone();
        net.apply_gradients(&mut Optimizer::sgd(0.0));
        poisoned(&mut net);
        assert!(probe(&mut net), "apply_gradients");

        let mut net = trained.clone();
        let stats: Vec<(Vec<f64>, Vec<f64>)> = net
            .running_stats()
            .into_iter()
            .map(|(m, v)| (m.to_vec(), v.to_vec()))
            .collect();
        net.set_running_stats(&stats).unwrap();
        poisoned(&mut net);
        assert!(probe(&mut net), "set_running_stats");

        let mut net = trained;
        net.forward(&x, true).unwrap();
        poisoned(&mut net);
        assert!(probe(&mut net), "training-mode forward");
    }

    /// A trained net whose 400-wide head (`128 × 400` multiply-adds per
    /// row) gets a screen, and probe rows with NaN, inf and all-zero
    /// inputs mixed in.
    fn trained_wide_head_net() -> (Mlp, Matrix) {
        let mut mlp = Mlp::builder(12, 23)
            .dense(128)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(128)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(400)
            .build();
        let x = Matrix::from_fn(32, 12, |i, j| ((i * 5 + j * 3) % 11) as f64 / 5.0 - 1.0);
        let y = Matrix::from_fn(32, 400, |i, j| f64::from(u8::from((i * 7 + 3) % 400 == j)));
        let cfg = crate::TrainConfig {
            epochs: 2,
            batch_size: 8,
            ..crate::TrainConfig::default()
        };
        crate::Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &MseLoss, None)
            .unwrap();
        let mut probes = Matrix::zeros(3, 12);
        probes[(0, 3)] = f64::NAN;
        probes[(1, 0)] = f64::INFINITY;
        (mlp, probes.vstack(&x).unwrap())
    }

    /// Whether `net` holds a built screen.
    fn screened(net: &Mlp) -> bool {
        matches!(net.screen.get(), Some(Some(_)))
    }

    #[test]
    fn predict_argmax_carries_the_classes_of_predict_columns() {
        let (mlp, x) = trained_wide_head_net();
        let mut restored = Mlp::from_specs(12, &mlp.layer_specs()).unwrap();
        crate::load_parameters(&mut restored, &crate::save_parameters(&mlp)).unwrap();
        assert!(screened(&restored), "decoding builds the screen");
        assert!(!screened(&mlp), "a trained net builds it on first use");
        for net in [&mlp, &restored] {
            for cols in [0..400, 5..9, 3..300, 399..400] {
                let want: Vec<usize> = net
                    .predict_columns(&x, cols.clone())
                    .unwrap()
                    .iter_rows()
                    .map(|row| noble_linalg::argmax(row).unwrap_or(0))
                    .collect();
                assert_eq!(
                    net.predict_argmax(&x, cols.clone()).unwrap(),
                    want,
                    "{cols:?}"
                );
                assert!(screened(net));
            }
        }
        assert!(mlp.predict_argmax(&x, 390..401).is_err());
        assert!(mlp.predict_argmax(&x, 7..7).is_err());
        // The narrow net of the other tests gets no screen and answers
        // through `predict_columns`.
        let (narrow, x) = trained_sparse_net();
        let want: Vec<usize> = narrow
            .predict_columns(&x, 10..40)
            .unwrap()
            .iter_rows()
            .map(|row| noble_linalg::argmax(row).unwrap_or(0))
            .collect();
        assert_eq!(narrow.predict_argmax(&x, 10..40).unwrap(), want);
        assert!(
            matches!(narrow.screen.get(), Some(None)),
            "too narrow to screen"
        );
    }

    #[test]
    fn every_mut_path_drops_the_screen() {
        let (trained, x) = trained_wide_head_net();
        trained.predict_argmax(&x, 0..400).unwrap();
        assert!(screened(&trained), "the first call builds the screen");
        let mut net = trained.clone();
        let _ = net.params_mut();
        assert!(!screened(&net), "params_mut");
        let mut net = trained.clone();
        net.apply_gradients(&mut Optimizer::sgd(0.0));
        assert!(!screened(&net), "apply_gradients");
        let mut net = trained.clone();
        let stats: Vec<(Vec<f64>, Vec<f64>)> = net
            .running_stats()
            .into_iter()
            .map(|(m, v)| (m.to_vec(), v.to_vec()))
            .collect();
        net.set_running_stats(&stats).unwrap();
        assert!(!screened(&net), "set_running_stats");
        let mut net = trained.clone();
        net.forward(&x.select_rows(&[5, 6]), true).unwrap();
        assert!(!screened(&net), "training-mode forward");
        // A screen rebuilt after an edit bounds the edited parameters: the
        // class follows the new bias (past the NaN probe row, class 0).
        let mut net = trained;
        net.params_mut().last_mut().unwrap().value[(0, 7)] = 1e6;
        let classes = net.predict_argmax(&x, 0..400).unwrap();
        assert_eq!(classes[0], 0);
        assert!(classes[1..].iter().all(|&c| c == 7), "{classes:?}");
        assert!(screened(&net));
    }

    #[test]
    fn predict_batch_rejects_ragged_and_handles_empty() {
        let mut mlp = Mlp::builder(3, 0).dense(2).build();
        assert_eq!(mlp.predict_batch(&[]).unwrap().shape(), (0, 2));
        let err = mlp.predict_batch(&[vec![1.0, 2.0, 3.0], vec![1.0]]);
        assert!(err.is_err());
        assert!(mlp.predict_one(&[1.0]).is_err());
    }

    #[test]
    fn embed_returns_penultimate_width() {
        let mut mlp = Mlp::builder(3, 2)
            .dense(7)
            .activation(Activation::Tanh)
            .dense(4)
            .build();
        let e = mlp.embed(&Matrix::zeros(5, 3)).unwrap();
        assert_eq!(e.shape(), (5, 7));
    }

    #[test]
    fn grad_norm_zero_after_apply() {
        let mut mlp = Mlp::builder(2, 0).dense(2).build();
        let x = Matrix::filled(1, 2, 1.0);
        let out = mlp.forward(&x, true).unwrap();
        let (_, g) = MseLoss.evaluate(&out, &Matrix::zeros(1, 2)).unwrap();
        mlp.backward(&g).unwrap();
        assert!(mlp.grad_norm() >= 0.0);
        let mut opt = Optimizer::sgd(0.1);
        mlp.apply_gradients(&mut opt);
        assert_eq!(mlp.grad_norm(), 0.0);
    }
}
