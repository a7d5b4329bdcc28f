//! Reduced-precision kernels: the f32 gemm family and the int8
//! row-quantized matmul behind the serving fast path (ROADMAP "f32 /
//! quantized / SIMD inference fast path").
//!
//! The f64 kernels in [`crate::gemm`] stay the bit-exact reference; this
//! module is the *accuracy-gated* tier layered on top of it. Its
//! determinism contract is deliberately weaker in one axis and just as
//! strong in the others:
//!
//! - **vs f64**: approximate. f32 products agree with the f64 reference
//!   to f32 rounding; int8 products agree to the quantization grid. The
//!   gates live upstream (parity-at-tolerance suites, the accuracy-delta
//!   checks in `exp_throughput`).
//! - **vs itself**: exact. Every kernel here is bit-stable across thread
//!   counts and batch shapes, by the same construction the f64 family
//!   uses — the parallel variants deal *whole output rows* to workers
//!   running the identical serial kernel, the serial kernels use
//!   fixed-width accumulator blocking (never length-dependent
//!   reassociation), and the dispatcher picks the kernel class from
//!   per-row work only. Int8 goes further: i32 accumulation is exact
//!   integer arithmetic, so its sums are associative and any split
//!   yields the same bits.
//!
//! This file is carved out of the `float-determinism` lint scope by
//! `noble-lint.toml` — `as f32` narrowing is this module's entire job,
//! sanctioned as a path-scoped policy rather than scattered line allows.

use crate::gemm::{BLOCKED_MIN_ROW_FLOPS, PARALLEL_MIN_CHUNK_FLOPS};
use crate::threads::{num_threads, parallel_chunks_mut};
use crate::{LinalgError, Matrix};

/// Depth handled per cache block (mirrors the f64 kernel's `BLOCK_K`).
const BLOCK_K: usize = 128;
/// Output columns handled per cache block.
const BLOCK_COLS: usize = 256;

/// A row-major single-precision matrix: the storage type of the f32
/// inference tier.
///
/// Deliberately minimal — just what the lowered forward pass needs. The
/// f64 [`Matrix`] remains the API for everything exact.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// An all-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> MatrixF32 {
        MatrixF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a row-major buffer.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<MatrixF32, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec_f32",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(MatrixF32 { rows, cols, data })
    }

    /// Rounds an f64 matrix to single precision (the lowering cast).
    #[must_use]
    pub fn from_f64(m: &Matrix) -> MatrixF32 {
        MatrixF32 {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
    }

    /// Widens back to f64 (exact — every f32 is representable in f64).
    ///
    /// # Panics
    ///
    /// Never: the buffer length matches the shape by construction.
    #[must_use]
    pub fn to_f64(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f64::from(v)).collect(),
        )
        .expect("shape and buffer agree by construction")
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    ///
    /// # Panics
    ///
    /// When `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The whole row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The whole row-major buffer, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Rows-of-columns transpose.
    #[must_use]
    pub fn transpose(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }
}

fn check_shapes_f32(
    op: &'static str,
    a: &MatrixF32,
    b_shape: (usize, usize),
) -> Result<(), LinalgError> {
    if a.cols != b_shape.0 {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b_shape,
        });
    }
    Ok(())
}

/// Reference f32 kernel: the cache-friendly i-k-j triple loop.
///
/// The semantic baseline the blocked and threaded f32 kernels are
/// property-tested against (to f32 reassociation tolerance), exactly as
/// [`crate::matmul_naive`] anchors the f64 family.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32_naive(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    check_shapes_f32("matmul_f32", a, b.shape())?;
    let n = b.cols;
    let mut out = MatrixF32::zeros(a.rows, n);
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = &mut out.data[i * n..(i + 1) * n];
        for (k, &a_ik) in a_row.iter().enumerate() {
            let b_row = &b.data[k * n..(k + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * b_kj;
            }
        }
    }
    Ok(out)
}

/// Computes output rows `first_row..` of `a * b` into `out_chunk` (whole
/// output rows), blocked over depth and output columns — the f32 mirror
/// of the f64 `gemm_rows`.
///
/// The micro-kernel is the same k-unrolled-by-4 streaming axpy: the
/// accumulator grouping is fixed-width (fours over depth), never derived
/// from the slice length, so the summation tree — and hence the bits —
/// is identical whether a row is computed alone, in a batch, or on any
/// worker thread.
fn gemm_rows_f32(a: &MatrixF32, b: &MatrixF32, first_row: usize, out_chunk: &mut [f32]) {
    let (k, n) = (b.rows, b.cols);
    if n == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    let bs = &b.data[..];
    for k0 in (0..k).step_by(BLOCK_K) {
        let k_hi = (k0 + BLOCK_K).min(k);
        let k4 = k0 + (k_hi - k0) / 4 * 4;
        for j0 in (0..n).step_by(BLOCK_COLS) {
            let j_hi = (j0 + BLOCK_COLS).min(n);
            // Rows go in pairs so each streamed b row is loaded once per
            // two output rows instead of once per row (the kernel is
            // load-port-bound). Every row's per-element expression — and
            // therefore its bits — is identical to the lone-row path
            // below, so batch-shape invariance is preserved.
            let mut i = 0;
            while i + 1 < chunk_rows {
                let ar0 = a.row(first_row + i);
                let ar1 = a.row(first_row + i + 1);
                let (head, tail) = out_chunk.split_at_mut((i + 1) * n);
                let out0 = &mut head[i * n + j0..i * n + j_hi];
                let out1 = &mut tail[j0..j_hi];
                let mut kk = k0;
                while kk < k4 {
                    let (a00, a01, a02, a03) = (ar0[kk], ar0[kk + 1], ar0[kk + 2], ar0[kk + 3]);
                    let (a10, a11, a12, a13) = (ar1[kk], ar1[kk + 1], ar1[kk + 2], ar1[kk + 3]);
                    let b0 = &bs[kk * n + j0..kk * n + j_hi];
                    let b1 = &bs[(kk + 1) * n + j0..(kk + 1) * n + j_hi];
                    let b2 = &bs[(kk + 2) * n + j0..(kk + 2) * n + j_hi];
                    let b3 = &bs[(kk + 3) * n + j0..(kk + 3) * n + j_hi];
                    for (j, o) in out0.iter_mut().enumerate() {
                        *o += a00 * b0[j] + a01 * b1[j] + a02 * b2[j] + a03 * b3[j];
                        out1[j] += a10 * b0[j] + a11 * b1[j] + a12 * b2[j] + a13 * b3[j];
                    }
                    kk += 4;
                }
                for kr in k4..k_hi {
                    let (a0k, a1k) = (ar0[kr], ar1[kr]);
                    let b_row = &bs[kr * n + j0..kr * n + j_hi];
                    for (j, o) in out0.iter_mut().enumerate() {
                        *o += a0k * b_row[j];
                        out1[j] += a1k * b_row[j];
                    }
                }
                i += 2;
            }
            if i < chunk_rows {
                let a_row = a.row(first_row + i);
                let out_seg = &mut out_chunk[i * n + j0..i * n + j_hi];
                let mut kk = k0;
                while kk < k4 {
                    let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                    let b0 = &bs[kk * n + j0..kk * n + j_hi];
                    let b1 = &bs[(kk + 1) * n + j0..(kk + 1) * n + j_hi];
                    let b2 = &bs[(kk + 2) * n + j0..(kk + 2) * n + j_hi];
                    let b3 = &bs[(kk + 3) * n + j0..(kk + 3) * n + j_hi];
                    for (j, o) in out_seg.iter_mut().enumerate() {
                        *o += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                    kk += 4;
                }
                for kr in k4..k_hi {
                    let a_ik = a_row[kr];
                    let b_row = &bs[kr * n + j0..kr * n + j_hi];
                    for (o, &b_kj) in out_seg.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
    }
}

/// Cache-blocked f32 product `a * b`.
///
/// Matches [`matmul_f32_naive`] to f32 reassociation (the micro-kernel
/// groups the depth sum in fours) and is the bit-reference for
/// [`matmul_f32_parallel`].
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32_blocked(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    check_shapes_f32("matmul_f32", a, b.shape())?;
    let mut out = MatrixF32::zeros(a.rows, b.cols);
    gemm_rows_f32(a, b, 0, &mut out.data);
    Ok(out)
}

/// Multi-threaded blocked f32 product `a * b`.
///
/// Each worker writes a disjoint slab of whole output rows with the
/// identical serial kernel, so results are bit-identical to
/// [`matmul_f32_blocked`] regardless of `threads`.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32_parallel(
    a: &MatrixF32,
    b: &MatrixF32,
    threads: usize,
) -> Result<MatrixF32, LinalgError> {
    check_shapes_f32("matmul_f32", a, b.shape())?;
    let (m, n) = (a.rows, b.cols);
    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(
        &mut out.data,
        rows_per_chunk * n,
        threads,
        |chunk_index, chunk| {
            gemm_rows_f32(a, b, chunk_index * rows_per_chunk, chunk);
        },
    );
    Ok(out)
}

/// Dispatches the f32 product `a * b` to the cheapest kernel for its
/// shape, with the same row-wise invariance contract as the f64
/// dispatcher: the serial kernel class depends only on the per-row work
/// `k * n`, and the threaded variant is bit-identical to blocked, so
/// every output row is bit-identical regardless of batch size and
/// thread count.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    let row_flops = a.cols * b.cols;
    if row_flops < BLOCKED_MIN_ROW_FLOPS {
        return matmul_f32_naive(a, b);
    }
    let threads = num_threads();
    if threads > 1 && a.rows > 1 {
        let flops = a.rows * row_flops;
        let workers = threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows);
        if workers > 1 {
            return matmul_f32_parallel(a, b, workers);
        }
    }
    matmul_f32_blocked(a, b)
}

/// A per-row affine-quantized int8 matrix (TFLite-style asymmetric
/// scheme): row `i` stores `q` such that `x ≈ scale[i] * (q - zero[i])`.
///
/// The quantization range of every row is widened to include 0, so
/// exact zeros (padding slots, one-hot gaps) survive the round trip
/// exactly — the same concern that drives `noble-quantize`'s grid
/// anchoring.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrixI8 {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
    zeros: Vec<i32>,
    /// Per-row sums of the raw codes, precomputed so the affine
    /// cross-terms of the quantized product cost O(1) per output.
    row_sums: Vec<i32>,
}

impl QuantizedMatrixI8 {
    /// Quantizes each row of `m` to int8 with its own scale/zero-point.
    #[must_use]
    pub fn quantize(m: &MatrixF32) -> QuantizedMatrixI8 {
        let (rows, cols) = m.shape();
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![1.0f32; rows];
        let mut zeros = vec![0i32; rows];
        let mut row_sums = vec![0i32; rows];
        for i in 0..rows {
            let row = m.row(i);
            // Widen the range to include 0 so it is exactly representable.
            let mut lo = 0.0f32;
            let mut hi = 0.0f32;
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let scale = ((hi - lo) / 255.0).max(f32::MIN_POSITIVE);
            // Map `lo` to -128; 0 then lands on an exact integer code.
            let zero = (-128.0 - lo / scale).round() as i32;
            let out = &mut data[i * cols..(i + 1) * cols];
            let mut sum = 0i32;
            for (o, &v) in out.iter_mut().zip(row) {
                let q = ((v / scale).round() as i32 + zero).clamp(-128, 127);
                *o = q as i8;
                sum += q;
            }
            scales[i] = scale;
            zeros[i] = zero;
            row_sums[i] = sum;
        }
        QuantizedMatrixI8 {
            rows,
            cols,
            data,
            scales,
            zeros,
            row_sums,
        }
    }

    /// Quantizes an f64 matrix (rounds through f32 first).
    #[must_use]
    pub fn quantize_f64(m: &Matrix) -> QuantizedMatrixI8 {
        QuantizedMatrixI8::quantize(&MatrixF32::from_f64(m))
    }

    /// Dequantizes back to f32 (for tests and round-trip bounds).
    #[must_use]
    pub fn dequantize(&self) -> MatrixF32 {
        let mut out = MatrixF32::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let scale = self.scales[i];
            let zero = self.zeros[i];
            let src = &self.data[i * self.cols..(i + 1) * self.cols];
            for (o, &q) in out.row_mut(i).iter_mut().zip(src) {
                *o = scale * (i32::from(q) - zero) as f32;
            }
        }
        out
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The worst-case absolute round-trip error of row `i` (half a
    /// quantization step).
    #[must_use]
    pub fn row_step(&self, i: usize) -> f32 {
        self.scales[i]
    }
}

/// Computes output rows `first_row..` of the quantized product into
/// `out_chunk`. Whole-row deal + exact integer accumulation ⇒ any
/// thread split is bit-identical.
fn quantized_rows(
    a: &QuantizedMatrixI8,
    w_t: &QuantizedMatrixI8,
    first_row: usize,
    out_chunk: &mut [f32],
) {
    let k = a.cols;
    let n = w_t.rows;
    if n == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    let k_i32 = k as i32;
    // Pre-widen both operands to i16: `i32·i32` products of sign-extended
    // i8 loads stay scalar at the baseline target, but the i16 form is
    // the `pmaddwd` idiom LLVM's reduction vectorizer recognizes (8
    // multiply-accumulates per instruction). Weights widen once per
    // chunk (amortized over every row the worker owns), activations once
    // per row. Integer adds are exact, so reassociation by the
    // vectorizer cannot change the result.
    let w_wide: Vec<i16> = w_t.data.iter().map(|&v| i16::from(v)).collect();
    let mut a_wide: Vec<i16> = vec![0; k];
    for i in 0..chunk_rows {
        let ai = first_row + i;
        let a_row = &a.data[ai * k..(ai + 1) * k];
        for (wide, &q) in a_wide.iter_mut().zip(a_row) {
            *wide = i16::from(q);
        }
        let (za, sa) = (a.zeros[ai], a.scales[ai]);
        let a_sum = a.row_sums[ai];
        let out_row = &mut out_chunk[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let w_row = &w_wide[j * k..(j + 1) * k];
            let dot: i32 = a_wide
                .iter()
                .zip(w_row)
                .map(|(&qa, &qw)| i32::from(qa) * i32::from(qw))
                .sum();
            // Σ (qa - za)(qw - zw) = Σ qa·qw - zw Σ qa - za Σ qw + k·za·zw
            let (zw, sw) = (w_t.zeros[j], w_t.scales[j]);
            let corrected = dot - zw * a_sum - za * w_t.row_sums[j] + k_i32 * za * zw;
            *o = sa * sw * corrected as f32;
        }
    }
}

/// Quantized product `a * w_t^T` with the RHS **already transposed**
/// (`w_t` is `(n, k)`: one quantized row per output channel — the
/// natural write-once layout for lowered weights).
///
/// Accumulation is exact i32 over `(qa - za)(qw - zw)` (computed via the
/// precomputed row-sum expansion), dequantized by `scale_a * scale_w`
/// per output. Because integer addition is associative, the result is
/// bit-identical for any thread count or batch shape by arithmetic
/// alone.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != w_t.cols()`.
pub fn matmul_i8(a: &QuantizedMatrixI8, w_t: &QuantizedMatrixI8) -> Result<MatrixF32, LinalgError> {
    let threads = num_threads();
    let flops = a.rows * a.cols * w_t.rows;
    // Int8 MACs are ~4x cheaper than f64 FLOPs; reuse the f64 spawn
    // threshold unscaled, which only errs toward spawning later.
    let workers = if threads > 1 {
        threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows)
    } else {
        1
    };
    matmul_i8_parallel(a, w_t, workers)
}

/// Quantized product `a * w_t^T` on an explicit worker count (see
/// [`matmul_i8`]); `threads <= 1` runs serially. Bit-identical across
/// `threads` by exact integer accumulation.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != w_t.cols()`.
pub fn matmul_i8_parallel(
    a: &QuantizedMatrixI8,
    w_t: &QuantizedMatrixI8,
    threads: usize,
) -> Result<MatrixF32, LinalgError> {
    if a.cols != w_t.cols {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul_i8",
            lhs: (a.rows, a.cols),
            rhs: (w_t.cols, w_t.rows),
        });
    }
    let (m, n) = (a.rows, w_t.rows);
    let mut out = MatrixF32::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(
        &mut out.data,
        rows_per_chunk * n,
        threads,
        |chunk_index, chunk| {
            quantized_rows(a, w_t, chunk_index * rows_per_chunk, chunk);
        },
    );
    Ok(out)
}

/// Fast elementwise `tanh` for the reduced-precision tier.
///
/// The exact f64 path calls libm's `tanh`, which costs more than an
/// entire hidden-layer matmul row at serving widths; the lowered tiers
/// are accuracy-gated, not bit-exact, so they get a branch-light
/// polynomial instead: the `[7/8]` Padé continued-fraction truncation
/// below `|x| < 5`, saturating to `±1` beyond. Absolute error is
/// ≤ 1.5e-5 for `|x| ≤ 4` and ≤ 1.1e-4 at the `|x| = 5` crossover
/// (where `1 - tanh` itself is 9.1e-5) — an order of magnitude under
/// the int8 grid and absorbed by the f32 tier's argmax decode.
///
/// Deterministic and elementwise, so it inherits the tier's
/// batch-shape and thread-count bit-stability for free.
#[must_use]
pub fn tanh_f32_fast(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x >= 5.0 {
        return 1.0;
    }
    if x <= -5.0 {
        return -1.0;
    }
    let x2 = x * x;
    let p = x * (135_135.0 + x2 * (17_325.0 + x2 * (378.0 + x2)));
    let q = 135_135.0 + x2 * (62_370.0 + x2 * (3_150.0 + x2 * 28.0));
    // f32 rounding can push the ratio a few ulps past ±1 near the
    // crossover; tanh is bounded, so pin it.
    (p / q).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul_naive;

    fn deterministic(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(j as u64)
                .wrapping_mul(0x85EB_CA6B)
                .wrapping_add(salt);
            ((h % 2000) as f64 - 1000.0) / 257.0
        })
    }

    #[test]
    fn f32_kernels_match_f64_reference_at_tolerance() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 17, 65), (70, 80, 70)] {
            let a = deterministic(m, k, 1);
            let b = deterministic(k, n, 2);
            let reference = matmul_naive(&a, &b).unwrap();
            let (a32, b32) = (MatrixF32::from_f64(&a), MatrixF32::from_f64(&b));
            for got in [
                matmul_f32_naive(&a32, &b32).unwrap(),
                matmul_f32_blocked(&a32, &b32).unwrap(),
                matmul_f32(&a32, &b32).unwrap(),
            ] {
                let diff = reference.max_abs_diff(&got.to_f64()).unwrap();
                // f32 has ~7 decimal digits; inputs are O(4), k ≤ 80.
                assert!(diff < 1e-2, "{m}x{k}x{n}: f32 drifted {diff}");
            }
        }
    }

    #[test]
    fn f32_parallel_is_bit_identical_to_blocked() {
        let a = MatrixF32::from_f64(&deterministic(67, 33, 3));
        let b = MatrixF32::from_f64(&deterministic(33, 41, 4));
        let blocked = matmul_f32_blocked(&a, &b).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = matmul_f32_parallel(&a, &b, threads).unwrap();
            assert_eq!(par, blocked, "threads={threads}");
        }
    }

    #[test]
    fn f32_dispatch_rows_are_batch_shape_invariant() {
        for &(k, n) in &[(80, 80), (16, 16)] {
            let b = MatrixF32::from_f64(&deterministic(k, n, 11));
            for &m in &[2usize, 7, 64] {
                let a = MatrixF32::from_f64(&deterministic(m, k, 12));
                let full = matmul_f32(&a, &b).unwrap();
                for i in 0..m {
                    let row = MatrixF32::from_vec(1, k, a.row(i).to_vec()).unwrap();
                    let alone = matmul_f32(&row, &b).unwrap();
                    assert_eq!(full.row(i), alone.row(0), "row {i} of {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn f32_dispatch_invariant_across_thread_counts() {
        let _guard = crate::threads::TEST_THREAD_LOCK.lock().unwrap();
        let a = MatrixF32::from_f64(&deterministic(96, 128, 21));
        let b = MatrixF32::from_f64(&deterministic(128, 128, 22));
        let reference = matmul_f32_blocked(&a, &b).unwrap();
        for threads in [1, 2, 4] {
            crate::threads::set_num_threads(threads);
            assert_eq!(matmul_f32(&a, &b).unwrap(), reference, "threads={threads}");
        }
        crate::threads::set_num_threads(0);
    }

    #[test]
    fn quantize_round_trip_is_within_one_step_and_keeps_zeros() {
        let m = MatrixF32::from_f64(&deterministic(9, 37, 5));
        let q = QuantizedMatrixI8::quantize(&m);
        let back = q.dequantize();
        for i in 0..m.rows() {
            let step = q.row_step(i);
            for (a, b) in m.row(i).iter().zip(back.row(i)) {
                assert!((a - b).abs() <= step, "row {i}: {a} vs {b} (step {step})");
            }
        }
        // Exact zeros survive: the quantization range always includes 0.
        let mut z = MatrixF32::from_f64(&deterministic(2, 8, 6));
        z.row_mut(0)[3] = 0.0;
        let back = QuantizedMatrixI8::quantize(&z).dequantize();
        assert_eq!(back.row(0)[3], 0.0);
        // Degenerate all-zero row round-trips to zeros.
        let zero = MatrixF32::zeros(1, 5);
        assert_eq!(QuantizedMatrixI8::quantize(&zero).dequantize(), zero);
    }

    #[test]
    fn i8_matmul_tracks_f64_reference_within_quantization_bound() {
        for &(m, k, n) in &[(4, 24, 6), (16, 96, 32)] {
            let a = deterministic(m, k, 7);
            let w = deterministic(k, n, 8);
            let reference = matmul_naive(&a, &w).unwrap();
            let qa = QuantizedMatrixI8::quantize_f64(&a);
            let qw = QuantizedMatrixI8::quantize_f64(&w.transpose());
            let got = matmul_i8(&qa, &qw).unwrap().to_f64();
            // Per-element error ≤ k * (|a|max * step_w + |w|max * step_a +
            // step_a * step_w); inputs are O(4), steps ~ 8/255 ≈ 0.03.
            let bound = k as f64 * 0.3;
            let diff = reference.max_abs_diff(&got).unwrap();
            assert!(diff < bound, "{m}x{k}x{n}: int8 drifted {diff} > {bound}");
        }
    }

    #[test]
    fn i8_matmul_bit_identical_across_thread_counts() {
        let qa = QuantizedMatrixI8::quantize_f64(&deterministic(33, 48, 9));
        let qw = QuantizedMatrixI8::quantize_f64(&deterministic(21, 48, 10));
        let serial = matmul_i8_parallel(&qa, &qw, 1).unwrap();
        for threads in [2, 3, 8] {
            let par = matmul_i8_parallel(&qa, &qw, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn lowp_kernels_reject_shape_mismatch() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::zeros(2, 3);
        assert!(matmul_f32_naive(&a, &b).is_err());
        assert!(matmul_f32_blocked(&a, &b).is_err());
        assert!(matmul_f32_parallel(&a, &b, 2).is_err());
        let qa = QuantizedMatrixI8::quantize(&a);
        let qw = QuantizedMatrixI8::quantize(&MatrixF32::zeros(4, 4));
        assert!(matmul_i8(&qa, &qw).is_err());
    }

    #[test]
    fn fast_tanh_tracks_libm_within_its_envelope() {
        let mut worst = 0.0f64;
        for i in -120_000..=120_000 {
            let x = i as f32 / 10_000.0; // [-12, 12] in 1e-4 steps
            let got = f64::from(tanh_f32_fast(x));
            let want = f64::from(x).tanh();
            worst = worst.max((got - want).abs());
            assert!(
                got.abs() <= 1.0,
                "tanh_f32_fast({x}) = {got} leaves [-1, 1]"
            );
        }
        assert!(
            worst <= 1.1e-4,
            "fast tanh error {worst} exceeds the envelope"
        );
        // Odd symmetry and saturation are exact.
        assert_eq!(tanh_f32_fast(0.0), 0.0);
        assert_eq!(tanh_f32_fast(7.0), 1.0);
        assert_eq!(tanh_f32_fast(-7.0), -1.0);
        assert_eq!(tanh_f32_fast(2.5), -tanh_f32_fast(-2.5));
        assert!(tanh_f32_fast(f32::NAN).is_nan());
        assert_eq!(tanh_f32_fast(f32::INFINITY), 1.0);
        assert_eq!(tanh_f32_fast(f32::NEG_INFINITY), -1.0);
    }

    #[test]
    fn empty_dimensions_are_fine_in_lowp() {
        let a = MatrixF32::zeros(0, 4);
        let b = MatrixF32::zeros(4, 3);
        assert_eq!(matmul_f32_parallel(&a, &b, 4).unwrap().shape(), (0, 3));
        let qa = QuantizedMatrixI8::quantize(&MatrixF32::zeros(3, 0));
        let qw = QuantizedMatrixI8::quantize(&MatrixF32::zeros(2, 0));
        let out = matmul_i8(&qa, &qw).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
