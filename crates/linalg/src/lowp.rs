//! The f32 gemm family behind the certified f32 screen.
//!
//! The f64 kernels in [`crate::gemm`] are the bit-exact reference and the
//! only arithmetic an answer is made of. This module's kernels score the
//! certified screen with which `noble-nn` picks a wide head's exact
//! class: the screen's error bound rules classes out, and every class it
//! cannot rule out is recomputed in f64, so no f32 value ever becomes an
//! answer. Their determinism contract:
//!
//! - **vs f64**: approximate. f32 products agree with the f64 reference
//!   to f32 rounding, which is what the screen's bound accounts for.
//! - **vs itself**: exact. Every kernel here is bit-stable across thread
//!   counts and batch shapes, by the same construction the f64 family
//!   uses — the parallel variants deal *whole output rows* to workers
//!   running the identical serial kernel, the serial kernels use
//!   fixed-width accumulator blocking (never length-dependent
//!   reassociation), and the dispatcher picks the kernel class from
//!   per-row work only.
//!
//! The f32 blocked kernel mirrors the f64 one: it computes a range of
//! output columns read in place ([`matmul_f32_columns`]), and on x86-64
//! hosts with AVX2 it runs an 8-lane twin with a 4-row register tile that
//! keeps the portable kernel's operation order, so its bits are the same
//! on every host. The naive, blocked and parallel kernels are the test
//! references of that dispatcher.
//!
//! This file is carved out of the `float-determinism` lint scope by
//! `noble-lint.toml` — `as f32` narrowing is this module's entire job,
//! sanctioned as a path-scoped policy rather than scattered line allows.

use crate::gemm::{BLOCKED_MIN_ROW_FLOPS, PARALLEL_MIN_CHUNK_FLOPS};
use crate::threads::{num_threads, parallel_chunks_mut};
use crate::{LinalgError, Matrix};
use std::ops::Range;

/// Depth handled per cache block (mirrors the f64 kernel's `BLOCK_K`).
const BLOCK_K: usize = 128;
/// Output columns handled per cache block.
const BLOCK_COLS: usize = 256;

/// A row-major single-precision matrix: the storage type of the f32
/// screen.
///
/// Deliberately minimal — just what the screen and the kernel tests
/// need. The f64 [`Matrix`] remains the API for everything exact.
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

    /// Rounds an f64 matrix to single precision (the one narrowing cast).
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
    let mut out = MatrixF32::zeros(a.rows, b.cols);
    naive_rows_f32(a, b, 0..b.cols, &mut out.data);
    Ok(out)
}

/// The i-k-j loop over output columns `cols`, into `out` (whole rows of
/// width `cols.len()`).
fn naive_rows_f32(a: &MatrixF32, b: &MatrixF32, cols: Range<usize>, out: &mut [f32]) {
    let w = cols.len();
    if w == 0 {
        return;
    }
    for (i, out_row) in out.chunks_exact_mut(w).enumerate() {
        for (k, &a_ik) in a.row(i).iter().enumerate() {
            let b_row = &b.row(k)[cols.clone()];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// Computes output rows `first_row..` of columns `cols` of `a * b` into
/// `out_chunk` (whole output rows, each `cols.len()` wide) with the
/// fastest kernel this CPU supports: the f32 mirror of the f64
/// `gemm_rows`.
///
/// On x86-64 hosts with AVX2 (detected at run time, once per process by
/// `std`) this runs [`avx2::gemm_rows`]; everywhere else it runs
/// [`gemm_rows_f32_portable`]. Both give every output the same operation
/// sequence — the output starts at `+0.0`, depth blocks of `BLOCK_K` run
/// in order, each group of four depth terms is applied as
/// `acc + (((a0*b0 + a1*b1) + a2*b2) + a3*b3)` and the block's leftover
/// terms as `acc + a*b`, with no fused multiply-add — so the choice never
/// changes a bit. The grouping is fixed-width, never derived from the
/// slice length, so a row's bits are the same whether it is computed
/// alone, in a batch, or on any worker thread.
fn gemm_rows_f32(
    a: &MatrixF32,
    b: &MatrixF32,
    cols: Range<usize>,
    first_row: usize,
    out_chunk: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, the only target feature the
        // kernel enables (checked just above).
        unsafe { avx2::gemm_rows(a, b, cols, first_row, out_chunk) };
        return;
    }
    gemm_rows_f32_portable(a, b, cols, first_row, out_chunk);
}

/// Portable blocked f32 kernel: the fallback for hosts without AVX2 and
/// the reference the SIMD kernel is tested against, bit for bit.
///
/// The micro-kernel is the k-unrolled-by-4 streaming axpy of the f64
/// family. Rows go in pairs so each streamed b row is loaded once per two
/// output rows instead of once per row (the kernel is load-port-bound);
/// every row's per-element expression — and therefore its bits — is
/// identical to the lone-row path.
fn gemm_rows_f32_portable(
    a: &MatrixF32,
    b: &MatrixF32,
    cols: Range<usize>,
    first_row: usize,
    out_chunk: &mut [f32],
) {
    let (k, n) = (b.rows, b.cols);
    let w = cols.len();
    if w == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / w;
    let bs = &b.data[..];
    for k0 in (0..k).step_by(BLOCK_K) {
        let k_hi = (k0 + BLOCK_K).min(k);
        let k4 = k0 + (k_hi - k0) / 4 * 4;
        for j0 in cols.clone().step_by(BLOCK_COLS) {
            let j_hi = (j0 + BLOCK_COLS).min(cols.end);
            let (o0, o1) = (j0 - cols.start, j_hi - cols.start);
            let mut i = 0;
            while i + 1 < chunk_rows {
                let ar0 = a.row(first_row + i);
                let ar1 = a.row(first_row + i + 1);
                let (head, tail) = out_chunk.split_at_mut((i + 1) * w);
                let out0 = &mut head[i * w + o0..i * w + o1];
                let out1 = &mut tail[o0..o1];
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
                let out_seg = &mut out_chunk[i * w + o0..i * w + o1];
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

/// The AVX2 twin of [`gemm_rows_f32_portable`]: every output gets the
/// portable kernel's operation sequence, so eight lanes compute eight
/// outputs exactly as eight scalar loops would. Complete 4-row tiles run
/// a 4 × 8 register tile (one 8-lane accumulator per row); the 1–3 rows
/// left over run an 8-lane streaming loop; the `w % 8` columns left over
/// run the portable order in scalar code.
///
/// All `unsafe` here is unaligned 8-lane loads and stores; each
/// micro-kernel asserts its slice bounds before its loops, and every
/// pointer offset below is bounded by those asserts.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{MatrixF32, BLOCK_COLS, BLOCK_K};
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    use std::ops::Range;

    /// Output rows per register tile.
    const TILE_ROWS: usize = 4;
    /// f32 lanes per register.
    const LANES: usize = 8;

    /// One `BLOCK_K` depth block: `lo..groups` is applied in groups of
    /// four, `groups..hi` one term at a time.
    #[derive(Clone, Copy)]
    struct Depth {
        lo: usize,
        groups: usize,
        hi: usize,
    }

    /// The whole row-major RHS (`k × n`) and the first RHS column of the
    /// call: output column `o` of a call reads RHS column `col0 + o`.
    #[derive(Clone, Copy)]
    struct Rhs<'a> {
        data: &'a [f32],
        n: usize,
        col0: usize,
    }

    /// Computes output rows `first_row..` of columns `cols` of `a * b`
    /// into `out_chunk`: complete 4-row tiles run [`tile_rows`], the rows
    /// left over run [`stream_row`].
    ///
    /// Outside AVX2 code, calling this is `unsafe`: the caller must have
    /// checked that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(
        a: &MatrixF32,
        b: &MatrixF32,
        cols: Range<usize>,
        first_row: usize,
        out_chunk: &mut [f32],
    ) {
        let (k, n) = (b.rows, b.cols);
        let w = cols.len();
        if w == 0 || out_chunk.is_empty() {
            return;
        }
        let rows = out_chunk.len() / w;
        let a_rows = &a.data[first_row * k..(first_row + rows) * k];
        let rhs = Rhs {
            data: &b.data,
            n,
            col0: cols.start,
        };
        let tiled = rows - rows % TILE_ROWS;
        for lo in (0..k).step_by(BLOCK_K) {
            let hi = (lo + BLOCK_K).min(k);
            let depth = Depth {
                lo,
                groups: lo + (hi - lo) / 4 * 4,
                hi,
            };
            for o0 in (0..w).step_by(BLOCK_COLS) {
                let block = o0..(o0 + BLOCK_COLS).min(w);
                for i in (0..tiled).step_by(TILE_ROWS) {
                    tile_rows(
                        &a_rows[i * k..(i + TILE_ROWS) * k],
                        rhs,
                        &mut out_chunk[i * w..(i + TILE_ROWS) * w],
                        depth,
                        block.clone(),
                    );
                }
                for i in tiled..rows {
                    stream_row(
                        &a_rows[i * k..(i + 1) * k],
                        rhs,
                        &mut out_chunk[i * w..(i + 1) * w],
                        depth,
                        block.clone(),
                    );
                }
            }
        }
    }

    /// Register tile: 4 rows × 8 columns, one accumulator per row, held
    /// in registers across the whole depth block. `a` holds the tile's 4
    /// LHS rows and `out` its 4 output rows; `cols` are output columns.
    #[target_feature(enable = "avx2")]
    fn tile_rows(a: &[f32], rhs: Rhs<'_>, out: &mut [f32], d: Depth, cols: Range<usize>) {
        let w = out.len() / TILE_ROWS;
        let k = a.len() / TILE_ROWS;
        let n = rhs.n;
        assert!(
            a.len() == TILE_ROWS * k
                && out.len() == TILE_ROWS * w
                && rhs.data.len() == k * n
                && rhs.col0 + w <= n
                && d.hi <= k
                && cols.end <= w
        );
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        // SAFETY: col0 + w <= n (asserted), so the offset stays inside
        // the first RHS row.
        let bp = unsafe { rhs.data.as_ptr().add(rhs.col0) };
        let j8 = cols.start + cols.len() / LANES * LANES;
        for j in (cols.start..j8).step_by(LANES) {
            // SAFETY: r < 4 and j + 7 < j8 <= w, so r * w + j + 7 <
            // 4 * w == out.len() (asserted above).
            let mut acc: [__m256; TILE_ROWS] =
                std::array::from_fn(|r| unsafe { _mm256_loadu_ps(op.add(r * w + j)) });
            let mut kk = d.lo;
            while kk < d.groups {
                // SAFETY: AVX2 is enabled here; kk + 3 < d.groups <= d.hi
                // <= k, `ap` holds 4 rows of k (asserted), and
                // col0 + j + 7 < n, so `tile_group`'s bounds hold.
                unsafe { tile_group(&mut acc, ap, bp, k, n, kk, j) };
                kk += 4;
            }
            for kr in d.groups..d.hi {
                // SAFETY: kr < d.hi <= k and col0 + j + 7 < n, as above.
                unsafe {
                    let bv = _mm256_loadu_ps(bp.add(kr * n + j));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let t = _mm256_mul_ps(_mm256_set1_ps(*ap.add(r * k + kr)), bv);
                        *acc_r = _mm256_add_ps(*acc_r, t);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                // SAFETY: the same offsets the loads above read.
                unsafe { _mm256_storeu_ps(op.add(r * w + j), *acc_r) };
            }
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(w)) {
            for (j, o) in (j8..).zip(&mut out_row[j8..cols.end]) {
                *o = scalar_block(a_row, rhs, j, d, *o);
            }
        }
    }

    /// Applies depth group `kk..kk + 4` to a register tile:
    /// `acc[r] += ((a_r0*b0 + a_r1*b1) + a_r2*b2) + a_r3*b3` for the 4
    /// rows, lanes `j..j + 8` of the RHS rows at `bp` (row stride `n`).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `ap` points at 4 rows of `k` values with
    /// `kk + 3 < k`; and `bp` points at a `k × n` row-major block whose
    /// columns `j..j + 8` are inside each row.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_group(
        acc: &mut [__m256; TILE_ROWS],
        ap: *const f32,
        bp: *const f32,
        k: usize,
        n: usize,
        kk: usize,
        j: usize,
    ) {
        // SAFETY: the offsets stay inside the blocks the caller vouches
        // for: kk + 3 < k, j + 7 < n, r < 4.
        unsafe {
            let b0 = _mm256_loadu_ps(bp.add(kk * n + j));
            let b1 = _mm256_loadu_ps(bp.add((kk + 1) * n + j));
            let b2 = _mm256_loadu_ps(bp.add((kk + 2) * n + j));
            let b3 = _mm256_loadu_ps(bp.add((kk + 3) * n + j));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let ar = ap.add(r * k + kk);
                let mut t = _mm256_mul_ps(_mm256_set1_ps(*ar), b0);
                t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(*ar.add(1)), b1));
                t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(*ar.add(2)), b2));
                t = _mm256_add_ps(t, _mm256_mul_ps(_mm256_set1_ps(*ar.add(3)), b3));
                *acc_r = _mm256_add_ps(*acc_r, t);
            }
        }
    }

    /// Streaming kernel for a single row: the portable kernel's loop, 8
    /// lanes wide. Each group of four LHS scalars streams four RHS row
    /// segments through the output segment.
    #[target_feature(enable = "avx2")]
    fn stream_row(a: &[f32], rhs: Rhs<'_>, out: &mut [f32], d: Depth, cols: Range<usize>) {
        let (k, w, n) = (a.len(), out.len(), rhs.n);
        assert!(rhs.data.len() == k * n && rhs.col0 + w <= n && d.hi <= k && cols.end <= w);
        let op = out.as_mut_ptr();
        // SAFETY: col0 + w <= n (asserted), so the offset stays inside
        // the first RHS row.
        let bp = unsafe { rhs.data.as_ptr().add(rhs.col0) };
        let j8 = cols.start + cols.len() / LANES * LANES;
        let mut kk = d.lo;
        while kk < d.groups {
            let a0 = _mm256_set1_ps(a[kk]);
            let a1 = _mm256_set1_ps(a[kk + 1]);
            let a2 = _mm256_set1_ps(a[kk + 2]);
            let a3 = _mm256_set1_ps(a[kk + 3]);
            for j in (cols.start..j8).step_by(LANES) {
                // SAFETY: kk + 3 < d.groups <= k and col0 + j + 7 < n,
                // so each B offset is below k * n == rhs.data.len(), and
                // j + 7 < out.len() (asserted above).
                unsafe {
                    let mut t = _mm256_mul_ps(a0, _mm256_loadu_ps(bp.add(kk * n + j)));
                    t = _mm256_add_ps(
                        t,
                        _mm256_mul_ps(a1, _mm256_loadu_ps(bp.add((kk + 1) * n + j))),
                    );
                    t = _mm256_add_ps(
                        t,
                        _mm256_mul_ps(a2, _mm256_loadu_ps(bp.add((kk + 2) * n + j))),
                    );
                    t = _mm256_add_ps(
                        t,
                        _mm256_mul_ps(a3, _mm256_loadu_ps(bp.add((kk + 3) * n + j))),
                    );
                    _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_loadu_ps(op.add(j)), t));
                }
            }
            kk += 4;
        }
        for (kr, &a_k) in (d.groups..).zip(&a[d.groups..d.hi]) {
            let ak = _mm256_set1_ps(a_k);
            for j in (cols.start..j8).step_by(LANES) {
                // SAFETY: kr < d.hi <= k and col0 + j + 7 < n, as above.
                unsafe {
                    let t = _mm256_mul_ps(ak, _mm256_loadu_ps(bp.add(kr * n + j)));
                    _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_loadu_ps(op.add(j)), t));
                }
            }
        }
        for (j, o) in (j8..).zip(&mut out[j8..cols.end]) {
            *o = scalar_block(a, rhs, j, d, *o);
        }
    }

    /// Output column `o` of one row over one depth block, in the portable
    /// kernel's order: the column tail (`w % 8`) of both micro-kernels.
    fn scalar_block(a_row: &[f32], rhs: Rhs<'_>, o: usize, d: Depth, mut acc: f32) -> f32 {
        let (bs, n, j) = (rhs.data, rhs.n, rhs.col0 + o);
        let mut kk = d.lo;
        while kk < d.groups {
            acc += a_row[kk] * bs[kk * n + j]
                + a_row[kk + 1] * bs[(kk + 1) * n + j]
                + a_row[kk + 2] * bs[(kk + 2) * n + j]
                + a_row[kk + 3] * bs[(kk + 3) * n + j];
            kk += 4;
        }
        for kr in d.groups..d.hi {
            acc += a_row[kr] * bs[kr * n + j];
        }
        acc
    }
}

/// Cache-blocked f32 product `a * b` (see the module notes on the kernel
/// and its run-time selected AVX2 implementation).
///
/// Matches [`matmul_f32_naive`] to f32 reassociation (the micro-kernel
/// groups the depth sum in fours) and is the bit-reference for
/// [`matmul_f32_parallel`]. Its bits are the same on every host, with or
/// without AVX2.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32_blocked(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    check_shapes_f32("matmul_f32", a, b.shape())?;
    let mut out = MatrixF32::zeros(a.rows, b.cols);
    gemm_rows_f32(a, b, 0..b.cols, 0, &mut out.data);
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
    let mut out = MatrixF32::zeros(a.rows, b.cols);
    parallel_rows_f32(a, b, 0..b.cols, threads, &mut out);
    Ok(out)
}

/// The blocked kernel over row slabs of `out` (`a.rows() × cols.len()`)
/// on up to `threads` scoped workers.
fn parallel_rows_f32(
    a: &MatrixF32,
    b: &MatrixF32,
    cols: Range<usize>,
    threads: usize,
    out: &mut MatrixF32,
) {
    let (m, w) = out.shape();
    if m == 0 || w == 0 {
        return;
    }
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(
        &mut out.data,
        rows_per_chunk * w,
        threads,
        |chunk_index, chunk| {
            gemm_rows_f32(a, b, cols.clone(), chunk_index * rows_per_chunk, chunk);
        },
    );
}

/// Dispatches the f32 product `a * b` to the cheapest kernel for its
/// shape: the full-range case of [`matmul_f32_columns`].
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_f32(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
    matmul_f32_columns(a, b, 0..b.cols)
}

/// Columns `cols` of the f32 product `a * b`, read in place from the
/// row-major `b`, from the cheapest kernel for the product's shape.
///
/// The same row-wise invariance contract as the f64 dispatcher: the
/// serial kernel class depends only on the per-row work of the whole
/// product, `k * n` (never on `cols` or the batch size), and the threaded
/// variant is bit-identical to blocked, so every output is bit-identical
/// regardless of batch size, thread count and column range.
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`, and
/// [`LinalgError::InvalidArgument`] for a range outside `0..b.cols()`.
pub fn matmul_f32_columns(
    a: &MatrixF32,
    b: &MatrixF32,
    cols: Range<usize>,
) -> Result<MatrixF32, LinalgError> {
    check_shapes_f32("matmul_f32", a, b.shape())?;
    if cols.start > cols.end || cols.end > b.cols {
        return Err(LinalgError::InvalidArgument(format!(
            "output columns {}..{} outside a product with {} columns",
            cols.start, cols.end, b.cols
        )));
    }
    let mut out = MatrixF32::zeros(a.rows, cols.len());
    let row_flops = a.cols * b.cols;
    if row_flops < BLOCKED_MIN_ROW_FLOPS {
        naive_rows_f32(a, b, cols, &mut out.data);
        return Ok(out);
    }
    let threads = num_threads();
    let workers = if threads > 1 && a.rows > 1 {
        let flops = a.rows * a.cols * cols.len();
        threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows)
    } else {
        1
    };
    if workers > 1 {
        parallel_rows_f32(a, b, cols, workers, &mut out);
    } else {
        gemm_rows_f32(a, b, cols, 0, &mut out.data);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Random f32 entries in roughly ±8, with `specials` entries replaced
    /// by NaN or ±inf at random positions.
    fn random_f32(rng: &mut StdRng, rows: usize, cols: usize, specials: usize) -> MatrixF32 {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-8.0f32..8.0))
            .collect();
        let mut m = MatrixF32::from_vec(rows, cols, data).unwrap();
        for s in 0..specials {
            let (i, j) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            m.row_mut(i)[j] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][s % 3];
        }
        m
    }

    #[test]
    fn avx2_f32_gemm_is_bit_identical_to_portable() {
        // `gemm_rows_f32` picks the AVX2 kernel wherever the host has it.
        #[cfg(target_arch = "x86_64")]
        let simd = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let simd = false;
        if !simd {
            eprintln!("no AVX2 on this host: only the portable f32 kernel runs");
        }
        let mut rng = StdRng::seed_from_u64(0x5EED_F320);
        // m covers 1..=9 (every tile/leftover split up to two tiles) and
        // some larger batches; k and n cross BLOCK_K and BLOCK_COLS and
        // are mostly not multiples of 4 or 8.
        let mut shapes = vec![
            (4, 128, 256),
            (5, 129, 257),
            (9, 131, 130),
            (1, 3, 5),
            (8, 128, 426),
            (64, 192, 128),
        ];
        for case in 0..36 {
            let m = if case < 27 {
                1 + case % 9
            } else {
                rng.gen_range(10..71)
            };
            shapes.push((m, rng.gen_range(1..300), rng.gen_range(1..600)));
        }
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let specials = if case % 3 == 2 { 3 } else { 0 };
            let a = random_f32(&mut rng, m, k, specials);
            let b = random_f32(&mut rng, k, n, specials);
            // The full range, and ranges that start off a multiple of 8.
            for cols in [0..n, n / 3..n, 1..n.min(19), n / 2..n / 2 + 1] {
                let w = cols.len();
                let mut reference = MatrixF32::zeros(m, w);
                gemm_rows_f32_portable(&a, &b, cols.clone(), 0, &mut reference.data);
                let mut got = MatrixF32::zeros(m, w);
                gemm_rows_f32(&a, &b, cols.clone(), 0, &mut got.data);
                for (idx, (r, g)) in reference.data.iter().zip(&got.data).enumerate() {
                    let same = if r.is_nan() {
                        g.is_nan()
                    } else {
                        r.to_bits() == g.to_bits()
                    };
                    assert!(
                        same,
                        "{m}x{k}x{n} cols {cols:?} (specials {specials}): ({}, {}) \
                         portable {r:e} vs simd {g:e}",
                        idx / w,
                        idx % w
                    );
                }
                // A column range carries the bits of the full product's
                // columns.
                if cols != (0..n) {
                    let mut full = MatrixF32::zeros(m, n);
                    gemm_rows_f32(&a, &b, 0..n, 0, &mut full.data);
                    for i in 0..m {
                        let want: Vec<u32> = full.row(i)[cols.clone()]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        let have: Vec<u32> = got.row(i).iter().map(|v| v.to_bits()).collect();
                        assert_eq!(have, want, "{m}x{k}x{n} cols {cols:?}: row {i}");
                    }
                }
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
    fn lowp_kernels_reject_shape_mismatch() {
        let a = MatrixF32::zeros(2, 3);
        let b = MatrixF32::zeros(2, 3);
        assert!(matmul_f32_naive(&a, &b).is_err());
        assert!(matmul_f32_blocked(&a, &b).is_err());
        assert!(matmul_f32_parallel(&a, &b, 2).is_err());
    }

    #[test]
    fn empty_dimensions_are_fine_in_lowp() {
        let a = MatrixF32::zeros(0, 4);
        let b = MatrixF32::zeros(4, 3);
        assert_eq!(matmul_f32_parallel(&a, &b, 4).unwrap().shape(), (0, 3));
        let out = matmul_f32_parallel(&MatrixF32::zeros(3, 0), &MatrixF32::zeros(0, 2), 4).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
