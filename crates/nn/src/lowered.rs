//! Reduced-precision inference lowering: [`Mlp`] → [`LoweredMlp`].
//!
//! The serving fast path trades the f64 reference's bit-exactness for
//! speed behind an explicit accuracy gate. Lowering happens **once, off
//! the hot path**: every dense layer's weights are narrowed to f32, and
//! every batch-norm stage is folded into a per-feature affine
//! `y = scale ⊙ x + shift` — the inference-mode normalization
//! `γ (x - μ) / √(σ² + ε) + β` collapsed to two vectors, so the lowered
//! forward pass never touches the running statistics again.
//!
//! The result is immutable ([`LoweredMlp::predict_batch`] takes `&self`,
//! as [`Mlp::predict`] does) and deterministic in the same axes
//! as the f64 path: it rides `noble_linalg::matmul_f32`'s
//! batch-shape/thread-count invariance. What it does *not* promise is
//! agreement with f64 beyond the gated tolerance — that contract is
//! pinned by the precision-parity suites, not by construction.
//!
//! This module is carved out of the `float-determinism` lint scope by
//! `noble-lint.toml`: narrowing is its entire job.

use crate::{Activation, Mlp, MlpLayerSpec, NnError};
use noble_linalg::{matmul_f32, Matrix, MatrixF32};

/// Which arithmetic an inference pass runs in.
///
/// `Exact` is the f64 reference path — bit-identical across batch
/// shapes, thread counts, and snapshot round trips. `F32` is the
/// accuracy-gated lowered tier served by [`LoweredMlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InferencePrecision {
    /// Double-precision reference inference (the default).
    #[default]
    Exact,
    /// Single-precision lowered inference (~1e-7 relative arithmetic).
    F32,
}

/// The f64→f32 lowering cast, centralized so exact-path modules (which
/// the `float-determinism` lint guards) never spell the narrowing
/// themselves.
#[inline]
#[must_use]
pub fn narrow(v: f64) -> f32 {
    v as f32
}

/// One stage of the lowered forward pass.
#[derive(Debug, Clone)]
enum Stage {
    /// f32 dense layer: untransposed `(in, out)` weights for the
    /// dispatching [`matmul_f32`] family, plus the bias row.
    DenseF32 { weights: MatrixF32, bias: Vec<f32> },
    /// A batch-norm stage folded to `y = scale ⊙ x + shift`.
    Affine { scale: Vec<f32>, shift: Vec<f32> },
    /// Element-wise activation, evaluated in f32.
    Activation(Activation),
}

/// An immutable, single-precision lowering of a trained [`Mlp`].
///
/// Built once via [`LoweredMlp::lower`] from the network's public
/// surface (`layer_specs` + `params` + `running_stats`); the progenitor
/// is untouched and remains the exact reference.
#[derive(Debug, Clone)]
pub struct LoweredMlp {
    stages: Vec<Stage>,
    in_dim: usize,
    out_dim: usize,
}

impl LoweredMlp {
    /// Lowers `mlp` into the f32 tier.
    ///
    /// Batch-norm folding happens in f64 (`γ / √(σ² + ε)` and
    /// `β - μ · scale`) before narrowing, so the affine constants carry
    /// full precision into the cast.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] when `precision` is
    /// [`InferencePrecision::Exact`] (the exact tier is the [`Mlp`]
    /// itself — there is nothing to lower).
    pub fn lower(mlp: &Mlp, precision: InferencePrecision) -> Result<LoweredMlp, NnError> {
        if precision == InferencePrecision::Exact {
            return Err(NnError::InvalidConfig(
                "InferencePrecision::Exact is the f64 Mlp itself; lowering applies to F32".into(),
            ));
        }
        let params = mlp.params();
        let stats = mlp.running_stats();
        let mut stages = Vec::new();
        let mut next_param = 0usize;
        let mut next_stat = 0usize;
        for spec in mlp.layer_specs() {
            match spec {
                MlpLayerSpec::Dense { out_dim, .. } => {
                    let weights = &params[next_param].value;
                    let bias = &params[next_param + 1].value;
                    next_param += 2;
                    let bias: Vec<f32> = bias.as_slice().iter().map(|&v| narrow(v)).collect();
                    debug_assert_eq!(bias.len(), out_dim);
                    stages.push(Stage::DenseF32 {
                        weights: MatrixF32::from_f64(weights),
                        bias,
                    });
                }
                MlpLayerSpec::BatchNorm { dim } => {
                    let gamma = params[next_param].value.as_slice();
                    let beta = params[next_param + 1].value.as_slice();
                    next_param += 2;
                    let (mean, var) = stats[next_stat];
                    next_stat += 1;
                    let mut scale = Vec::with_capacity(dim);
                    let mut shift = Vec::with_capacity(dim);
                    for j in 0..dim {
                        let s = gamma[j] / (var[j] + 1e-5).sqrt();
                        scale.push(narrow(s));
                        shift.push(narrow(beta[j] - mean[j] * s));
                    }
                    stages.push(Stage::Affine { scale, shift });
                }
                MlpLayerSpec::Activation(a) => stages.push(Stage::Activation(a)),
            }
        }
        Ok(LoweredMlp {
            stages,
            in_dim: mlp.in_dim(),
            out_dim: mlp.out_dim(),
        })
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Batched inference in the lowered tier: f64 features in, f64
    /// outputs out (widened from f32 — exact), with all internal
    /// arithmetic in f32.
    ///
    /// Immutable by design: lowered inference keeps no caches, so one
    /// lowered model can serve concurrently without interior state.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] when `x.cols() != self.in_dim()`;
    /// propagates kernel shape failures.
    pub fn predict_batch(&self, x: &Matrix) -> Result<Matrix, NnError> {
        if x.cols() != self.in_dim {
            return Err(NnError::ShapeMismatch {
                context: "lowered predict",
                expected: self.in_dim,
                found: x.cols(),
            });
        }
        let mut cur = MatrixF32::from_f64(x);
        for stage in &self.stages {
            cur = match stage {
                Stage::DenseF32 { weights, bias } => {
                    let mut y = matmul_f32(&cur, weights)?;
                    for i in 0..y.rows() {
                        for (o, &b) in y.row_mut(i).iter_mut().zip(bias) {
                            *o += b;
                        }
                    }
                    y
                }
                Stage::Affine { scale, shift } => {
                    let mut y = cur;
                    for i in 0..y.rows() {
                        for (j, o) in y.row_mut(i).iter_mut().enumerate() {
                            *o = *o * scale[j] + shift[j];
                        }
                    }
                    y
                }
                Stage::Activation(a) => {
                    let mut y = cur;
                    let f: fn(f32) -> f32 = match a {
                        // The polynomial tanh is the single biggest win
                        // of the tier at serving widths — libm tanh on
                        // two hidden layers outweighs the gemm savings.
                        Activation::Tanh => noble_linalg::tanh_f32_fast,
                        Activation::Relu => |v| v.max(0.0),
                        Activation::Sigmoid => |v| 1.0 / (1.0 + (-v).exp()),
                        Activation::Identity => |v| v,
                    };
                    for v in y.as_mut_slice() {
                        *v = f(*v);
                    }
                    y
                }
            };
        }
        Ok(cur.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;

    fn trained_network(seed: u64) -> Mlp {
        let mut mlp = Mlp::builder(6, seed)
            .dense(16)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(16)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(4)
            .build();
        // Drive the running stats away from init so BN folding matters.
        let warm = Matrix::from_fn(32, 6, |i, j| ((i * 7 + j * 3) % 11) as f64 / 5.0 - 1.0);
        mlp.forward(&warm, true).unwrap();
        mlp
    }

    fn features(rows: usize) -> Matrix {
        Matrix::from_fn(rows, 6, |i, j| ((i * 13 + j * 5) % 17) as f64 / 8.0 - 1.0)
    }

    #[test]
    fn f32_lowering_tracks_the_f64_reference() {
        let mlp = trained_network(3);
        let x = features(24);
        let exact = mlp.predict(&x).unwrap();
        let lowered = LoweredMlp::lower(&mlp, InferencePrecision::F32).unwrap();
        let got = lowered.predict_batch(&x).unwrap();
        let diff = exact.max_abs_diff(&got).unwrap();
        assert!(diff < 1e-4, "f32 lowering drifted {diff}");
        assert_eq!((lowered.in_dim(), lowered.out_dim()), (6, 4));
    }

    #[test]
    fn lowered_inference_is_batch_shape_invariant() {
        let mlp = trained_network(7);
        let x = features(16);
        let lowered = LoweredMlp::lower(&mlp, InferencePrecision::F32).unwrap();
        let full = lowered.predict_batch(&x).unwrap();
        for i in 0..x.rows() {
            let row = Matrix::from_vec(1, x.cols(), x.row(i).to_vec()).unwrap();
            let alone = lowered.predict_batch(&row).unwrap();
            assert_eq!(full.row(i), alone.row(0), "row {i}");
        }
    }

    #[test]
    fn lowering_exact_is_rejected() {
        let mlp = trained_network(1);
        assert!(LoweredMlp::lower(&mlp, InferencePrecision::Exact).is_err());
    }

    #[test]
    fn lowered_rejects_wrong_width() {
        let mlp = trained_network(1);
        let lowered = LoweredMlp::lower(&mlp, InferencePrecision::F32).unwrap();
        assert!(lowered.predict_batch(&Matrix::zeros(2, 7)).is_err());
    }

    #[test]
    fn exact_is_the_default_precision() {
        assert_eq!(InferencePrecision::default(), InferencePrecision::Exact);
    }
}
