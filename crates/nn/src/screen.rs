//! The certified f32 screen of a network's last dense layer: the exact
//! arg-max class of a range of its logits, found by scoring the range in
//! f32 and recomputing in f64 only the classes the f32 scores cannot rule
//! out.
//!
//! For a row `h` of the last layer's input (depth `K`) and a column `j`
//! with weights `W_{:,j}` and bias `b_j`, the exact path computes the
//! logit `L_j` as an f64 sum of `K` products plus the bias. The screen
//! computes `S_j`: the same sum over the f32 roundings of `h` and of the
//! weights, in f32, widened and added to `b_j` in f64. With
//! `u = 2^-24`, `v = 2^-53`, `γ_n(x) = n·x / (1 − n·x)`, `M = max_k |h_k|`
//! and `N_j = ‖W_{:,j}‖₁`, for *any* summation order and with gradual
//! underflow,
//!
//! ```text
//! |S_j − L_j| ≤ (γ_{K+2}(u) + γ_{K+2}(v))·M·N_j
//!             + 2^-149·(K·M + N_j + 2K) + v·|b_j| + 2v·|S_j|
//! ```
//!
//! (the derivation is in ARCHITECTURE.md, "Certified f32 screen"). The
//! screen widens that bound by a relative `2^-20` and the `|S_j|` term to
//! `4v` so that the f64 arithmetic that evaluates it, and `S_j ± e_j`,
//! cannot round it below the true bound. Column `j` is a candidate when
//! `S_j + e_j ≥ max_i (S_i − e_i)`. A non-candidate's exact logit is then
//! strictly below some candidate's, so the first index of the largest
//! exact logit is a candidate, and the arg-max over the candidates' exact
//! logits (recomputed with the f64 path) is the arg-max over all of them,
//! ties and first-index rule included.
//!
//! The bound needs finite values no larger than `f32::MAX` (so no f32
//! rounding overflows), so a layer whose weights or biases are not all
//! finite, or exceed that range, gets no screen; a row whose `h` or whose
//! f32 scores are not all finite takes the exact path for every column.

use crate::{Dense, NnError};
use noble_linalg::{argmax, matmul_f32_columns, Matrix, MatrixF32};
use std::ops::Range;

/// Minimum per-row multiply-accumulate count (`k × n`) of the last dense
/// layer before a network builds a screen for it.
///
/// Chosen from the layer's shape alone, never from the batch. Below it,
/// the f32 pass and the bound save little next to the exact product, and
/// building a screen for every hydrated model would cost more than it
/// saves:
/// the quick 36-WAP models of the paged workload (`128 × 235` outputs,
/// hydrated thousands of times a second) stay on the exact path, while a
/// full-scale layer (`128 × ~520`) is screened.
pub const SCREEN_MIN_ROW_FLOPS: usize = 128 * 384;

/// The deepest layer the bound's constants cover: `K·u ≤ 2^-8`, so the
/// `(1 + γ_K(u))·(1 + u) ≤ 2` step of the derivation holds.
const SCREEN_MAX_DEPTH: usize = 1 << 16;

/// Unit roundoff of f32 (`2^-24`) and of f64 (`2^-53`).
const U32: f64 = f32::EPSILON as f64 / 2.0;
const U64: f64 = f64::EPSILON / 2.0;
/// The smallest positive subnormal f32, `2^-149`: twice the most that a
/// rounding to f32 or an f32 product can lose to underflow.
const TINY32: f64 = 1.401_298_464_324_817e-45;
/// Relative widening of the bound, to cover the f64 rounding of its own
/// evaluation (a few `v` at most).
const SLACK: f64 = 1.0 + 1.0 / 1_048_576.0;

/// `γ_n(x) = n·x / (1 − n·x)`.
fn gamma(n: usize, unit: f64) -> f64 {
    let nu = n as f64 * unit;
    nu / (1.0 - nu)
}

/// An f32 copy of a dense layer's weights and, per column, the two
/// coefficients of its error bound: `e_j = M·slope_j + floor_j + 4v·|S_j|`.
#[derive(Debug, Clone)]
pub(crate) struct Screen {
    weights: MatrixF32,
    slope: Vec<f64>,
    floor: Vec<f64>,
}

impl Screen {
    /// The screen of `dense`, or `None` when its shape is below
    /// [`SCREEN_MIN_ROW_FLOPS`] or deeper than the bound covers, or when a
    /// weight or bias is not finite or exceeds `f32::MAX`. One read of the
    /// layer's parameters.
    pub(crate) fn build(dense: &Dense) -> Option<Screen> {
        let (k, n) = (dense.in_dim(), dense.out_dim());
        if k * n < SCREEN_MIN_ROW_FLOPS || k > SCREEN_MAX_DEPTH {
            return None;
        }
        let (w, b) = (dense.weights(), dense.bias().row(0));
        let in_range = |v: &f64| v.is_finite() && v.abs() <= f64::from(f32::MAX);
        if !w.as_slice().iter().all(in_range) || !b.iter().all(in_range) {
            return None;
        }
        let mut norms = vec![0.0; n];
        for row in w.iter_rows() {
            for (norm, v) in norms.iter_mut().zip(row) {
                *norm += v.abs();
            }
        }
        let c1 = gamma(k + 2, U32) + gamma(k + 2, U64);
        let depth = k as f64;
        let slope = norms
            .iter()
            .map(|&nj| SLACK * (c1 * nj + TINY32 * depth))
            .collect();
        let floor = norms
            .iter()
            .zip(b)
            .map(|(&nj, bj)| SLACK * (TINY32 * (nj + 2.0 * depth) + U64 * bj.abs()))
            .collect();
        Some(Screen {
            weights: MatrixF32::from_f64(w),
            slope,
            floor,
        })
    }

    /// The class of every row of `h` (the input of `dense`, the layer the
    /// screen was built from) over output columns `cols`: an index into
    /// `cols`, the first of the largest exact logits, NaNs skipped, `0`
    /// when every logit is NaN — the class [`argmax`] picks from those
    /// columns of the exact product.
    pub(crate) fn classes(
        &self,
        dense: &Dense,
        h: &Matrix,
        cols: Range<usize>,
    ) -> Result<Vec<usize>, NnError> {
        let scores = matmul_f32_columns(&MatrixF32::from_f64(h), &self.weights, cols.clone())?;
        let bias = &dense.bias().row(0)[cols.clone()];
        let (slope, floor) = (&self.slope[cols.clone()], &self.floor[cols.clone()]);
        let w = cols.len();
        let mut s = vec![0.0; w];
        let mut e = vec![0.0; w];
        let mut classes = Vec::with_capacity(h.rows());
        for (i, row) in h.iter_rows().enumerate() {
            for (sj, (&p, &bj)) in s.iter_mut().zip(scores.row(i).iter().zip(bias)) {
                *sj = f64::from(p) + bj;
            }
            let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
            let span = if finite(row) && finite(&s) {
                let m = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                candidates(&s, &mut e, m, slope, floor)
            } else {
                0..w
            };
            classes.push(if span.len() == 1 {
                span.start
            } else {
                let one = Matrix::from_vec(1, row.len(), row.to_vec())?;
                let exact =
                    dense.infer(&one, cols.start + span.start..cols.start + span.end, false)?;
                argmax(exact.row(0)).map_or(0, |c| span.start + c)
            });
        }
        Ok(classes)
    }
}

/// The smallest index span holding every candidate of one row: each `j`
/// with `s_j + e_j ≥ max_i (s_i − e_i)`, where `e_j` (written to `e`) is
/// the bound for a row whose largest `|h_k|` is `m`. Every exact logit
/// outside the candidates is strictly below a candidate's, so the span's
/// arg-max is the row's.
fn candidates(s: &[f64], e: &mut [f64], m: f64, slope: &[f64], floor: &[f64]) -> Range<usize> {
    let mut lo_max = f64::NEG_INFINITY;
    for (((ej, &sj), &sl), &fl) in e.iter_mut().zip(s).zip(slope).zip(floor) {
        *ej = m * sl + fl + 4.0 * U64 * sj.abs();
        lo_max = lo_max.max(sj - *ej);
    }
    let hit = |j: &usize| s[*j] + e[*j] >= lo_max;
    let first = (0..s.len()).find(hit).unwrap_or(0);
    let last = (0..s.len()).rev().find(hit).unwrap_or(first);
    first..last + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn the_constants_are_the_powers_of_two_they_name() {
        assert_eq!(U32, 2f64.powi(-24));
        assert_eq!(U64, 2f64.powi(-53));
        assert_eq!(TINY32, f64::from(f32::from_bits(1)));
        assert_eq!(TINY32, 2f64.powi(-149));
    }

    /// A `k × n` layer with weights of magnitude about `scale` and
    /// biases about `bias`, with a few exact zeros.
    fn layer(rng: &mut StdRng, k: usize, n: usize, scale: f64, bias: f64) -> Dense {
        let w = Matrix::from_fn(k, n, |_, _| {
            if rng.gen_range(0..10) == 0 {
                0.0
            } else {
                rng.gen_range(-1.0..1.0) * scale
            }
        });
        let b = Matrix::from_fn(1, n, |_, _| rng.gen_range(-1.0..1.0) * bias);
        Dense::from_parts(w, b).unwrap()
    }

    #[test]
    fn the_bound_covers_every_score_at_every_scale() {
        let mut rng = StdRng::seed_from_u64(0x5C2E_E401);
        // Weight and input scales from ordinary to the edges of f32:
        // products deep in f32's subnormal range, weights near its top.
        let scales = [
            (1.0, 1.0, 0.1),
            (0.05, 1.0, 3.0),
            (1e-30, 1e-12, 1e-40),
            (1e30, 1e-3, 1e31),
            (3e38, 1e-9, 1.0),
            (1e-20, 1e-20, 0.0),
        ];
        for (case, &(scale, h_scale, bias)) in scales.iter().enumerate() {
            let (k, n) = (128 + case, 384 + 3 * case);
            let dense = layer(&mut rng, k, n, scale, bias);
            let screen = Screen::build(&dense).expect("a qualifying layer");
            let h = Matrix::from_fn(9, k, |_, _| rng.gen_range(-1.0..1.0) * h_scale);
            let exact = dense.infer(&h, 0..n, false).unwrap();
            let scores =
                matmul_f32_columns(&MatrixF32::from_f64(&h), &screen.weights, 0..n).unwrap();
            let bias = dense.bias().row(0);
            for (i, row) in h.iter_rows().enumerate() {
                let s: Vec<f64> = scores
                    .row(i)
                    .iter()
                    .zip(bias)
                    .map(|(&p, &b)| f64::from(p) + b)
                    .collect();
                let m = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let mut e = vec![0.0; n];
                candidates(&s, &mut e, m, &screen.slope, &screen.floor);
                for j in 0..n {
                    let gap = (s[j] - exact[(i, j)]).abs();
                    assert!(
                        gap <= e[j],
                        "case {case} row {i} column {j}: |S - L| = {gap:e} > e = {:e}",
                        e[j]
                    );
                }
            }
        }
    }

    #[test]
    fn no_screen_for_small_or_out_of_range_layers() {
        let mut rng = StdRng::seed_from_u64(7);
        assert!(Screen::build(&layer(&mut rng, 128, 383, 1.0, 1.0)).is_none());
        let good = layer(&mut rng, 128, 390, 1.0, 1.0);
        assert!(Screen::build(&good).is_some());
        for poison in [f64::NAN, f64::INFINITY, -f64::INFINITY, 3.5e38, -1e300] {
            for in_bias in [false, true] {
                let mut w = good.weights().clone();
                let mut b = good.bias().clone();
                if in_bias {
                    b[(0, 17)] = poison;
                } else {
                    w[(40, 17)] = poison;
                }
                let poisoned = Dense::from_parts(w, b).unwrap();
                assert!(
                    Screen::build(&poisoned).is_none(),
                    "{poison} in the bias: {in_bias}"
                );
            }
        }
    }
}
