//! Dense matrix-multiply kernels: naive reference, cache-blocked with a
//! k-unrolled streaming micro-kernel, a packed/transposed-RHS dot kernel,
//! and a multi-threaded variant.
//!
//! [`Matrix::matmul`] routes through these automatically (see its docs for
//! the thresholds); the free functions are public so benchmarks and
//! property tests can pin a specific kernel. [`Matrix::matmul_columns`]
//! runs the same kernels over a range of output columns, and may skip
//! all-zero groups of LHS terms when the caller knows the RHS is finite
//! (see *Zero-group skipping* below). [`Matrix::matmul`] is its
//! full-range, no-skip case.
//!
//! The blocked kernel (under [`matmul_blocked`] and [`matmul_parallel`])
//! has two implementations, selected at run time:
//!
//! - on x86-64 with AVX2 (`is_x86_feature_detected!("avx2")`), complete
//!   4-row tiles run a 4 × 4 register tile (one 4-lane accumulator per
//!   row) and the 1–3 rows left over run a 4-lane streaming loop;
//! - everywhere else, the portable kernel runs. It is also the reference
//!   the AVX2 kernel is tested against.
//!
//! Both give every output the same operation sequence: the output starts
//! at `+0.0`, depth blocks of `BLOCK_K` run in order, each group of four
//! depth terms is applied as `acc + (((a0*b0 + a1*b1) + a2*b2) + a3*b3)`,
//! and the block's leftover terms as `acc + a*b`. Multiplies and adds are
//! separate operations; nothing is fused (FMA rounds once, the reference
//! twice), and `noble-lint`'s `float-determinism` rejects FMA here. So a
//! row's bits do not depend on the host's SIMD width, on whether it lands
//! in a tile or in the leftovers, on the thread that computes it, or on
//! which other columns the same call computes.
//!
//! All kernels follow IEEE-754 semantics by default: no term of the inner
//! product is skipped, so non-finite values (`NaN`, `±inf`) in either
//! operand propagate into the product exactly as a textbook triple loop
//! would (`0.0 * NaN == NaN`). An earlier revision skipped `a_ik == 0.0`
//! unconditionally as a sparsity shortcut, which silently masked
//! divergence behind sparse activations — the regression tests in this
//! module pin the fix.
//!
//! # Zero-group skipping
//!
//! When the caller asserts that every RHS entry is finite, the blocked
//! kernels skip each group of four LHS terms (and each leftover term)
//! whose LHS values are all `±0.0`, and so never read the RHS rows that
//! group would multiply. The skip gives the same bits as the full sum:
//!
//! - every output starts at `+0.0`, and in round-to-nearest a sum is
//!   `-0.0` only when both operands are `-0.0`, so an accumulator is
//!   never `-0.0`;
//! - a zero times a *finite* weight is `±0.0`, so the group's sum
//!   `((p0 + p1) + p2) + p3` is `±0.0`;
//! - `acc + (±0.0)` is `acc` bit for bit for every finite or infinite
//!   `acc` other than `-0.0`, and a `NaN` stays `NaN`.
//!
//! A non-finite weight breaks the second step (`0.0 * inf` is `NaN`), so
//! without the caller's finiteness fact nothing is skipped. The naive
//! kernel never skips.

use crate::threads::{num_threads, parallel_chunks_mut};
use crate::{LinalgError, Matrix};
use std::ops::Range;

/// Depth (`k`) handled per cache block: a panel of `BLOCK_K` RHS rows is
/// reused across every LHS row before moving on.
const BLOCK_K: usize = 128;
/// Output columns handled per cache block, so the active output segment
/// and the four streamed RHS row segments stay cache-resident even for
/// very wide products.
const BLOCK_COLS: usize = 256;
/// Minimum *per-row* multiply-accumulate count (`k * n`) before
/// [`Matrix::matmul`] switches from the reference loop to the blocked
/// kernel.
///
/// The kernel class is chosen per output row — never from the batch size —
/// so row `i` of a product is bit-identical no matter how many other rows
/// share the batch. Serving layers rely on this: micro-batching coalesces
/// requests into arbitrary batch shapes and must return the same bits a
/// single-fix call would.
pub(crate) const BLOCKED_MIN_ROW_FLOPS: usize = 64 * 64;
/// Minimum multiply-accumulate count *per worker* before threads are
/// spawned. Scoped-thread spawn/join costs tens of microseconds, so each
/// worker must carry enough work to amortize it; sizing the threshold per
/// worker (instead of per product) lets training-shaped mini-batch
/// products engage the parallel path without letting tiny products spawn
/// threads.
pub(crate) const PARALLEL_MIN_CHUNK_FLOPS: usize = 128 * 128 * 16;

fn check_shapes(op: &'static str, a: &Matrix, b_shape: (usize, usize)) -> Result<(), LinalgError> {
    if a.cols() != b_shape.0 {
        return Err(LinalgError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b_shape,
        });
    }
    Ok(())
}

/// Checks that `cols` is a range of output columns of a product whose
/// RHS has `n` columns.
fn check_cols(cols: &Range<usize>, n: usize) -> Result<(), LinalgError> {
    if cols.start > cols.end || cols.end > n {
        return Err(LinalgError::InvalidArgument(format!(
            "output columns {}..{} outside a product with {n} columns",
            cols.start, cols.end
        )));
    }
    Ok(())
}

/// Reference kernel: the cache-friendly i-k-j triple loop.
///
/// This is the semantic baseline the blocked and threaded kernels are
/// property-tested against.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    check_shapes("matmul", a, b.shape())?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    naive_rows(a, b, 0..b.cols(), out.as_mut_slice());
    Ok(out)
}

/// The i-k-j loop over output columns `cols`, into `out` (whole rows of
/// width `cols.len()`). It never skips a term.
fn naive_rows(a: &Matrix, b: &Matrix, cols: Range<usize>, out: &mut [f64]) {
    let w = cols.len();
    if w == 0 {
        return;
    }
    for (a_row, out_row) in a.iter_rows().zip(out.chunks_exact_mut(w)) {
        for (k, &a_ik) in a_row.iter().enumerate() {
            let b_row = &b.row(k)[cols.clone()];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// Four-accumulator dot product: the micro-kernel shared by the packed
/// kernels. Independent accumulators expose instruction-level parallelism
/// the single-accumulator loop lacks.
#[inline]
fn dot_packed(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f64; 4];
    let split = x.len() - x.len() % 4;
    for (cx, cy) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
        acc[0] += cx[0] * cy[0];
        acc[1] += cx[1] * cy[1];
        acc[2] += cx[2] * cy[2];
        acc[3] += cx[3] * cy[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (xv, yv) in x[split..].iter().zip(&y[split..]) {
        sum += xv * yv;
    }
    sum
}

/// Product `a * b_t^T` where the RHS is supplied **already transposed**
/// (`b_t` is `(n, k)`; its rows are the columns of the logical RHS).
///
/// Both operands of every inner product are contiguous rows, so callers
/// that keep a transposed ("packed") weight matrix around — the natural
/// layout for serving, where weights are written once and read forever —
/// get a dot-product kernel with no strided access and no packing cost at
/// call time.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a.cols() != b_t.cols()`.
pub fn matmul_transposed(a: &Matrix, b_t: &Matrix) -> Result<Matrix, LinalgError> {
    check_shapes("matmul_transposed", a, (b_t.cols(), b_t.rows()))?;
    let n = b_t.rows();
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (o, j) in out_row.iter_mut().zip(0..n) {
            *o = dot_packed(a_row, b_t.row(j));
        }
    }
    Ok(out)
}

/// One blocked-kernel call: the RHS output columns it computes, and
/// whether it may skip all-zero LHS groups (sound only for a finite RHS;
/// see the module notes).
#[derive(Debug)]
struct Panel {
    cols: Range<usize>,
    skip_zero_groups: bool,
}

impl Panel {
    fn full(n: usize) -> Self {
        Panel {
            cols: 0..n,
            skip_zero_groups: false,
        }
    }
}

/// Computes output rows `first_row..` of columns `panel.cols` of `a * b`
/// into `out_chunk` (a slab of whole output rows, each `panel.cols.len()`
/// wide) with the fastest kernel this CPU supports.
///
/// On x86-64 hosts with AVX2 (detected at run time, once per process by
/// `std`) this runs [`avx2::gemm_rows`]; everywhere else it runs
/// [`gemm_rows_portable`]. Both give every output the same operation
/// sequence, so the choice never changes a bit.
fn gemm_rows(a: &Matrix, b: &Matrix, first_row: usize, out_chunk: &mut [f64], panel: &Panel) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, the only target feature the
        // kernel enables (checked just above).
        unsafe { avx2::gemm_rows(a, b, first_row, out_chunk, panel) };
        return;
    }
    gemm_rows_portable(a, b, first_row, out_chunk, panel);
}

/// Portable blocked kernel: the fallback for hosts without AVX2 and the
/// reference the SIMD kernel is tested against, bit for bit.
///
/// The micro-kernel is a k-unrolled axpy: four LHS scalars per pass
/// stream four RHS rows into the output segment, quartering the output
/// load/store traffic of the textbook i-k-j loop while keeping the pure
/// streaming access pattern that auto-vectorizes. Blocking bounds the
/// working set (output segment + four RHS row segments) for wide
/// products.
fn gemm_rows_portable(
    a: &Matrix,
    b: &Matrix,
    first_row: usize,
    out_chunk: &mut [f64],
    panel: &Panel,
) {
    let (k, n) = (b.rows(), b.cols());
    let (cols, skip) = (panel.cols.clone(), panel.skip_zero_groups);
    let w = cols.len();
    if w == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / w;
    let bs = b.as_slice();
    for k0 in (0..k).step_by(BLOCK_K) {
        let k_hi = (k0 + BLOCK_K).min(k);
        let k4 = k0 + (k_hi - k0) / 4 * 4;
        for j0 in cols.clone().step_by(BLOCK_COLS) {
            let j_hi = (j0 + BLOCK_COLS).min(cols.end);
            let (o0, o1) = (j0 - cols.start, j_hi - cols.start);
            for i in 0..chunk_rows {
                let a_row = a.row(first_row + i);
                let out_seg = &mut out_chunk[i * w + o0..i * w + o1];
                let mut kk = k0;
                while kk < k4 {
                    let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                    if skip && a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                        kk += 4;
                        continue;
                    }
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
                    if skip && a_ik == 0.0 {
                        continue;
                    }
                    let b_row = &bs[kr * n + j0..kr * n + j_hi];
                    for (o, &b_kj) in out_seg.iter_mut().zip(b_row) {
                        *o += a_ik * b_kj;
                    }
                }
            }
        }
    }
}

/// The AVX2 twin of [`gemm_rows_portable`]: every output gets the
/// portable kernel's operation sequence (see the module notes), so four
/// lanes compute four outputs exactly as four scalar loops would, and
/// the same zero groups are skipped.
///
/// All `unsafe` here is unaligned 4-lane loads and stores; each
/// micro-kernel asserts its slice bounds before its loops, and every
/// pointer offset below is bounded by those asserts.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Panel, BLOCK_COLS, BLOCK_K};
    use crate::Matrix;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    use std::ops::Range;

    /// Output rows per register tile.
    const TILE_ROWS: usize = 4;

    /// One `BLOCK_K` depth block: `lo..groups` is applied in groups of
    /// four, `groups..hi` one term at a time. With `skip`, groups and
    /// terms whose LHS values are all zero are left out.
    #[derive(Clone, Copy)]
    struct Depth {
        lo: usize,
        groups: usize,
        hi: usize,
        skip: bool,
    }

    /// The whole row-major RHS (`k × n`) and the first RHS column of the
    /// call: output column `o` of a call reads RHS column `col0 + o`.
    #[derive(Clone, Copy)]
    struct Rhs<'a> {
        data: &'a [f64],
        n: usize,
        col0: usize,
    }

    /// Whether `a[kk..kk + 4]` is all zeros.
    #[inline(always)]
    fn zero_group(a: &[f64], kk: usize) -> bool {
        a[kk] == 0.0 && a[kk + 1] == 0.0 && a[kk + 2] == 0.0 && a[kk + 3] == 0.0
    }

    /// Computes output rows `first_row..` of columns `panel.cols` of
    /// `a * b` into `out_chunk`: complete 4-row tiles run [`tile_rows`],
    /// the rows left over run [`stream_row`].
    ///
    /// Outside AVX2 code, calling this is `unsafe`: the caller must have
    /// checked that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(
        a: &Matrix,
        b: &Matrix,
        first_row: usize,
        out_chunk: &mut [f64],
        panel: &Panel,
    ) {
        let (k, n) = (b.rows(), b.cols());
        let w = panel.cols.len();
        if w == 0 || out_chunk.is_empty() {
            return;
        }
        let rows = out_chunk.len() / w;
        let a_rows = &a.as_slice()[first_row * k..(first_row + rows) * k];
        let rhs = Rhs {
            data: b.as_slice(),
            n,
            col0: panel.cols.start,
        };
        let tiled = rows - rows % TILE_ROWS;
        for lo in (0..k).step_by(BLOCK_K) {
            let hi = (lo + BLOCK_K).min(k);
            let depth = Depth {
                lo,
                groups: lo + (hi - lo) / 4 * 4,
                hi,
                skip: panel.skip_zero_groups,
            };
            for o0 in (0..w).step_by(BLOCK_COLS) {
                let cols = o0..(o0 + BLOCK_COLS).min(w);
                for i in (0..tiled).step_by(TILE_ROWS) {
                    tile_rows(
                        &a_rows[i * k..(i + TILE_ROWS) * k],
                        rhs,
                        &mut out_chunk[i * w..(i + TILE_ROWS) * w],
                        depth,
                        cols.clone(),
                    );
                }
                for i in tiled..rows {
                    stream_row(
                        &a_rows[i * k..(i + 1) * k],
                        rhs,
                        &mut out_chunk[i * w..(i + 1) * w],
                        depth,
                        cols.clone(),
                    );
                }
            }
        }
    }

    /// Register tile: 4 rows × 4 columns, one accumulator per row, held
    /// in registers across the whole depth block. `a` holds the tile's 4
    /// LHS rows and `out` its 4 output rows; `cols` are output columns.
    /// A group is skipped only when it is zero in all 4 rows.
    #[target_feature(enable = "avx2")]
    fn tile_rows(a: &[f64], rhs: Rhs<'_>, out: &mut [f64], d: Depth, cols: Range<usize>) {
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
        // With skipping, the depth groups this tile applies, in order.
        let mut active = [0usize; BLOCK_K / 4];
        let mut groups = 0;
        if d.skip {
            for kk in (d.lo..d.groups).step_by(4) {
                if !(0..TILE_ROWS).all(|r| zero_group(a, r * k + kk)) {
                    active[groups] = kk;
                    groups += 1;
                }
            }
        }
        let (ap, op) = (a.as_ptr(), out.as_mut_ptr());
        // SAFETY: col0 + w <= n (asserted), so the offset stays inside
        // the first RHS row.
        let bp = unsafe { rhs.data.as_ptr().add(rhs.col0) };
        let j4 = cols.start + cols.len() / 4 * 4;
        for j in (cols.start..j4).step_by(4) {
            // SAFETY: r < 4 and j + 3 < j4 <= w, so r * w + j + 3 <
            // 4 * w == out.len() (asserted above).
            let mut acc: [__m256d; TILE_ROWS] =
                std::array::from_fn(|r| unsafe { _mm256_loadu_pd(op.add(r * w + j)) });
            if d.skip {
                for &kk in &active[..groups] {
                    // SAFETY: AVX2 is enabled here; kk + 3 < d.groups <=
                    // d.hi <= k, `ap` holds 4 rows of k (asserted), and
                    // col0 + j + 3 < n, so `tile_group`'s bounds hold.
                    unsafe { tile_group(&mut acc, ap, bp, k, n, kk, j) };
                }
            } else {
                let mut kk = d.lo;
                while kk < d.groups {
                    // SAFETY: as in the loop above.
                    unsafe { tile_group(&mut acc, ap, bp, k, n, kk, j) };
                    kk += 4;
                }
            }
            for kr in d.groups..d.hi {
                if d.skip && (0..TILE_ROWS).all(|r| a[r * k + kr] == 0.0) {
                    continue;
                }
                // SAFETY: kr < d.hi <= k and col0 + j + 3 < n, as above.
                unsafe {
                    let bv = _mm256_loadu_pd(bp.add(kr * n + j));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let t = _mm256_mul_pd(_mm256_set1_pd(*ap.add(r * k + kr)), bv);
                        *acc_r = _mm256_add_pd(*acc_r, t);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                // SAFETY: the same offsets the loads above read.
                unsafe { _mm256_storeu_pd(op.add(r * w + j), *acc_r) };
            }
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(w)) {
            for (j, o) in (j4..).zip(&mut out_row[j4..cols.end]) {
                *o = scalar_block(a_row, rhs, j, d, *o);
            }
        }
    }

    /// Applies depth group `kk..kk + 4` to a register tile:
    /// `acc[r] += ((a_r0*b0 + a_r1*b1) + a_r2*b2) + a_r3*b3` for the 4
    /// rows, lanes `j..j + 4` of the RHS rows at `bp` (row stride `n`).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `ap` points at 4 rows of `k` values with
    /// `kk + 3 < k`; and `bp` points at a `k × n` row-major block whose
    /// columns `j..j + 4` are inside each row.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_group(
        acc: &mut [__m256d; TILE_ROWS],
        ap: *const f64,
        bp: *const f64,
        k: usize,
        n: usize,
        kk: usize,
        j: usize,
    ) {
        // SAFETY: the offsets stay inside the blocks the caller vouches
        // for: kk + 3 < k, j + 3 < n, r < 4.
        unsafe {
            let b0 = _mm256_loadu_pd(bp.add(kk * n + j));
            let b1 = _mm256_loadu_pd(bp.add((kk + 1) * n + j));
            let b2 = _mm256_loadu_pd(bp.add((kk + 2) * n + j));
            let b3 = _mm256_loadu_pd(bp.add((kk + 3) * n + j));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let ar = ap.add(r * k + kk);
                let mut t = _mm256_mul_pd(_mm256_set1_pd(*ar), b0);
                t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(*ar.add(1)), b1));
                t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(*ar.add(2)), b2));
                t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_set1_pd(*ar.add(3)), b3));
                *acc_r = _mm256_add_pd(*acc_r, t);
            }
        }
    }

    /// Streaming kernel for a single row: the portable kernel's loop, 4
    /// lanes wide. Each group of four LHS scalars streams four RHS row
    /// segments through the output segment.
    #[target_feature(enable = "avx2")]
    fn stream_row(a: &[f64], rhs: Rhs<'_>, out: &mut [f64], d: Depth, cols: Range<usize>) {
        let (k, w, n) = (a.len(), out.len(), rhs.n);
        assert!(rhs.data.len() == k * n && rhs.col0 + w <= n && d.hi <= k && cols.end <= w);
        let op = out.as_mut_ptr();
        // SAFETY: col0 + w <= n (asserted), so the offset stays inside
        // the first RHS row.
        let bp = unsafe { rhs.data.as_ptr().add(rhs.col0) };
        let j4 = cols.start + cols.len() / 4 * 4;
        let mut kk = d.lo;
        while kk < d.groups {
            if d.skip && zero_group(a, kk) {
                kk += 4;
                continue;
            }
            let a0 = _mm256_set1_pd(a[kk]);
            let a1 = _mm256_set1_pd(a[kk + 1]);
            let a2 = _mm256_set1_pd(a[kk + 2]);
            let a3 = _mm256_set1_pd(a[kk + 3]);
            for j in (cols.start..j4).step_by(4) {
                // SAFETY: kk + 3 < d.groups <= k and col0 + j + 3 < n,
                // so each B offset is below k * n == rhs.data.len(), and
                // j + 3 < out.len() (asserted above).
                unsafe {
                    let mut t = _mm256_mul_pd(a0, _mm256_loadu_pd(bp.add(kk * n + j)));
                    t = _mm256_add_pd(
                        t,
                        _mm256_mul_pd(a1, _mm256_loadu_pd(bp.add((kk + 1) * n + j))),
                    );
                    t = _mm256_add_pd(
                        t,
                        _mm256_mul_pd(a2, _mm256_loadu_pd(bp.add((kk + 2) * n + j))),
                    );
                    t = _mm256_add_pd(
                        t,
                        _mm256_mul_pd(a3, _mm256_loadu_pd(bp.add((kk + 3) * n + j))),
                    );
                    _mm256_storeu_pd(op.add(j), _mm256_add_pd(_mm256_loadu_pd(op.add(j)), t));
                }
            }
            kk += 4;
        }
        for (kr, &a_k) in (d.groups..).zip(&a[d.groups..d.hi]) {
            if d.skip && a_k == 0.0 {
                continue;
            }
            let ak = _mm256_set1_pd(a_k);
            for j in (cols.start..j4).step_by(4) {
                // SAFETY: kr < d.hi <= k and col0 + j + 3 < n, as above.
                unsafe {
                    let t = _mm256_mul_pd(ak, _mm256_loadu_pd(bp.add(kr * n + j)));
                    _mm256_storeu_pd(op.add(j), _mm256_add_pd(_mm256_loadu_pd(op.add(j)), t));
                }
            }
        }
        for (j, o) in (j4..).zip(&mut out[j4..cols.end]) {
            *o = scalar_block(a, rhs, j, d, *o);
        }
    }

    /// Output column `o` of one row over one depth block, in the portable
    /// kernel's order: the column tail (`w % 4`) of both micro-kernels.
    fn scalar_block(a_row: &[f64], rhs: Rhs<'_>, o: usize, d: Depth, mut acc: f64) -> f64 {
        let (bs, n, j) = (rhs.data, rhs.n, rhs.col0 + o);
        let mut kk = d.lo;
        while kk < d.groups {
            if !(d.skip && zero_group(a_row, kk)) {
                acc += a_row[kk] * bs[kk * n + j]
                    + a_row[kk + 1] * bs[(kk + 1) * n + j]
                    + a_row[kk + 2] * bs[(kk + 2) * n + j]
                    + a_row[kk + 3] * bs[(kk + 3) * n + j];
            }
            kk += 4;
        }
        for kr in d.groups..d.hi {
            if !(d.skip && a_row[kr] == 0.0) {
                acc += a_row[kr] * bs[kr * n + j];
            }
        }
        acc
    }
}

/// Cache-blocked product `a * b` (see the module notes on the kernel and
/// its run-time selected AVX2 implementation).
///
/// Matches [`matmul_naive`] to floating-point reassociation (≲ 1e-12
/// relative; the unrolled micro-kernel groups the depth sum in fours) and
/// propagates non-finite values identically. Its bits are the same on
/// every host, with or without AVX2.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    check_shapes("matmul", a, b.shape())?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_rows(a, b, 0, out.as_mut_slice(), &Panel::full(b.cols()));
    Ok(out)
}

/// Multi-threaded blocked product `a * b`, parallelized over row blocks of
/// the output with scoped threads (see [`crate::threads`]).
///
/// Each worker writes a disjoint slab of output rows, so results are
/// bit-identical to [`matmul_blocked`] regardless of `threads`. With
/// `threads <= 1` no thread is spawned.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when `a.cols() != b.rows()`.
pub fn matmul_parallel(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix, LinalgError> {
    check_shapes("matmul", a, b.shape())?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    parallel_rows(a, b, &Panel::full(b.cols()), threads, &mut out);
    Ok(out)
}

/// The blocked kernel over row slabs of `out` (`a.rows() × panel width`)
/// on up to `threads` scoped workers.
fn parallel_rows(a: &Matrix, b: &Matrix, panel: &Panel, threads: usize, out: &mut Matrix) {
    let (m, w) = out.shape();
    if m == 0 || w == 0 {
        return;
    }
    // Split rows evenly across workers; each chunk is a whole-row slab.
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(
        out.as_mut_slice(),
        rows_per_chunk * w,
        threads,
        |chunk_index, chunk| {
            gemm_rows(a, b, chunk_index * rows_per_chunk, chunk, panel);
        },
    );
}

/// Dispatches `a * b` to the cheapest kernel for its shape: the
/// full-range, no-skip case of [`matmul_columns`].
pub(crate) fn matmul_dispatch(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    matmul_columns(a, b, 0..b.cols(), false)
}

/// Columns `cols` of `a * b`, from the cheapest kernel for the product's
/// shape; with `rhs_finite`, the blocked kernels skip all-zero LHS groups
/// (see the module notes).
///
/// The serial kernel class depends only on the *per-row* work of the
/// whole product, `k * n` (naive below [`BLOCKED_MIN_ROW_FLOPS`], blocked
/// above), never on `cols` or the batch size; and the threaded variant is
/// bit-identical to blocked. So **every output is bit-identical
/// regardless of batch size, thread count, column range and skipping**.
/// Threads are spawned once each worker's share of the total work clears
/// [`PARALLEL_MIN_CHUNK_FLOPS`].
pub(crate) fn matmul_columns(
    a: &Matrix,
    b: &Matrix,
    cols: Range<usize>,
    rhs_finite: bool,
) -> Result<Matrix, LinalgError> {
    check_shapes("matmul", a, b.shape())?;
    check_cols(&cols, b.cols())?;
    let mut out = Matrix::zeros(a.rows(), cols.len());
    if a.cols() * b.cols() < BLOCKED_MIN_ROW_FLOPS {
        naive_rows(a, b, cols, out.as_mut_slice());
        return Ok(out);
    }
    let panel = Panel {
        cols,
        skip_zero_groups: rhs_finite,
    };
    let threads = num_threads();
    let workers = if threads > 1 && a.rows() > 1 {
        let flops = a.rows() * a.cols() * panel.cols.len();
        threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows())
    } else {
        1
    };
    if workers > 1 {
        parallel_rows(a, b, &panel, workers, &mut out);
    } else {
        gemm_rows(a, b, 0, out.as_mut_slice(), &panel);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Random entries in roughly ±8, with `specials` entries replaced
    /// by NaN or ±inf at random positions.
    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, specials: usize) -> Matrix {
        let mut m = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-8.0..8.0));
        for s in 0..specials {
            let (i, j) = (rng.gen_range(0..rows), rng.gen_range(0..cols));
            m[(i, j)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][s % 3];
        }
        m
    }

    #[test]
    fn avx2_gemm_is_bit_identical_to_portable() {
        // `gemm_rows` picks the AVX2 kernel wherever the host has it.
        #[cfg(target_arch = "x86_64")]
        let simd = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let simd = false;
        if !simd {
            eprintln!("no AVX2 on this host: only the portable kernel runs");
        }
        let mut rng = StdRng::seed_from_u64(0x5EED_A7C2);
        // m covers 1..=9 (every tile/leftover split up to two tiles) and
        // some larger batches; k and n cross BLOCK_K and BLOCK_COLS and
        // are mostly not multiples of 4.
        let mut shapes = vec![
            (4, 128, 256),
            (5, 129, 257),
            (9, 131, 130),
            (1, 3, 5),
            (64, 192, 128),
        ];
        for case in 0..36 {
            let m = if case < 27 {
                1 + case % 9
            } else {
                rng.gen_range(10..70)
            };
            shapes.push((m, rng.gen_range(1..300), rng.gen_range(1..600)));
        }
        for (case, &(m, k, n)) in shapes.iter().enumerate() {
            let specials = if case % 3 == 2 { 3 } else { 0 };
            let a = random_matrix(&mut rng, m, k, specials);
            let b = random_matrix(&mut rng, k, n, specials);
            let mut reference = Matrix::zeros(m, n);
            gemm_rows_portable(&a, &b, 0, reference.as_mut_slice(), &Panel::full(n));
            let mut got = Matrix::zeros(m, n);
            gemm_rows(&a, &b, 0, got.as_mut_slice(), &Panel::full(n));
            for (idx, (r, g)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
                let same = if r.is_nan() {
                    g.is_nan()
                } else {
                    r.to_bits() == g.to_bits()
                };
                assert!(
                    same,
                    "{m}x{k}x{n} (specials {specials}): ({}, {}) portable {r:e} vs simd {g:e}",
                    idx / n,
                    idx % n
                );
            }
        }
    }

    /// Zeroes most 4-wide depth groups of `a`, the way a fingerprint
    /// that hears few access points is mostly zeros; a few lone zeros and
    /// a `-0.0` group ride along.
    fn sparsify(rng: &mut StdRng, a: &mut Matrix) {
        let k = a.cols();
        for i in 0..a.rows() {
            for kk in (0..k).step_by(4) {
                if rng.gen_range(0..10) < 8 {
                    let zero = if rng.gen_range(0..8) == 0 { -0.0 } else { 0.0 };
                    for v in &mut a.row_mut(i)[kk..(kk + 4).min(k)] {
                        *v = zero;
                    }
                } else if rng.gen_range(0..3) == 0 {
                    a[(i, kk)] = 0.0;
                }
            }
        }
    }

    #[test]
    fn column_ranges_and_zero_skips_match_the_full_product_bit_for_bit() {
        // Both blocked kernels (the portable one is checked directly, since
        // an AVX2 host never selects it), at column offsets that are not
        // multiples of 4, against the full no-skip product.
        let mut rng = StdRng::seed_from_u64(0x5EED_0C01);
        let shapes = [
            (1, 192, 522),
            (3, 130, 257),
            (4, 128, 40),
            (9, 261, 300),
            (6, 7, 33),
        ];
        for &(m, k, n) in &shapes {
            let mut a = random_matrix(&mut rng, m, k, 0);
            sparsify(&mut rng, &mut a);
            let b = random_matrix(&mut rng, k, n, 0);
            let mut full = Matrix::zeros(m, n);
            gemm_rows_portable(&a, &b, 0, full.as_mut_slice(), &Panel::full(n));
            for cols in [0..n, 3..n - 2, 1..n.min(30), n / 2..n / 2 + 5] {
                for skip_zero_groups in [false, true] {
                    let panel = Panel {
                        cols: cols.clone(),
                        skip_zero_groups,
                    };
                    let w = cols.len();
                    let mut portable = Matrix::zeros(m, w);
                    gemm_rows_portable(&a, &b, 0, portable.as_mut_slice(), &panel);
                    let mut selected = Matrix::zeros(m, w);
                    gemm_rows(&a, &b, 0, selected.as_mut_slice(), &panel);
                    for i in 0..m {
                        for (o, j) in cols.clone().enumerate() {
                            let want = full[(i, j)].to_bits();
                            assert_eq!(
                                (portable[(i, o)].to_bits(), selected[(i, o)].to_bits()),
                                (want, want),
                                "{m}x{k}x{n} cols {cols:?} skip {skip_zero_groups}: ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_and_transposed_match_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 17, 65), (70, 40, 70)] {
            let a = deterministic(m, k, 1);
            let b = deterministic(k, n, 2);
            let reference = matmul_naive(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            let transposed = matmul_transposed(&a, &b.transpose()).unwrap();
            assert!(
                reference.max_abs_diff(&blocked).unwrap() < 1e-9,
                "{m}x{k}x{n}"
            );
            assert!(reference.max_abs_diff(&transposed).unwrap() < 1e-9);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_blocked() {
        let a = deterministic(67, 33, 3);
        let b = deterministic(33, 41, 4);
        let blocked = matmul_blocked(&a, &b).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = matmul_parallel(&a, &b, threads).unwrap();
            assert_eq!(par, blocked, "threads={threads}");
        }
    }

    #[test]
    fn dispatch_rows_are_batch_shape_invariant() {
        // The serving engine coalesces requests into arbitrary batch
        // shapes; a row's product must not depend on its batchmates. One
        // case above the blocked per-row threshold, one below (naive).
        for &(k, n) in &[(80, 80), (16, 16)] {
            let b = deterministic(k, n, 11);
            for &m in &[2usize, 7, 64] {
                let a = deterministic(m, k, 12);
                let full = crate::gemm::matmul_dispatch(&a, &b).unwrap();
                for i in 0..m {
                    let row = Matrix::from_vec(1, k, a.row(i).to_vec()).unwrap();
                    let alone = crate::gemm::matmul_dispatch(&row, &b).unwrap();
                    assert_eq!(
                        full.row(i),
                        alone.row(0),
                        "row {i} of {m}x{k}x{n} differs from its solo product"
                    );
                }
            }
        }
    }

    #[test]
    fn dispatch_invariant_across_thread_counts() {
        let _guard = crate::threads::TEST_THREAD_LOCK.lock().unwrap();
        let a = deterministic(96, 128, 21);
        let b = deterministic(128, 128, 22);
        let reference = matmul_blocked(&a, &b).unwrap();
        for threads in [1, 2, 4] {
            crate::threads::set_num_threads(threads);
            let got = crate::gemm::matmul_dispatch(&a, &b).unwrap();
            assert_eq!(got, reference, "threads={threads}");
        }
        crate::threads::set_num_threads(0);
    }

    #[test]
    fn kernels_reject_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul_naive(&a, &b).is_err());
        assert!(matmul_blocked(&a, &b).is_err());
        assert!(matmul_parallel(&a, &b, 2).is_err());
        assert!(matmul_transposed(&a, &Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn zero_lhs_propagates_nan_and_inf() {
        // Regression: the old kernel skipped a_ik == 0.0, so a zero row in
        // the LHS hid NaN/inf in the RHS. IEEE says 0.0 * NaN = NaN and
        // 0.0 * inf = NaN; both must surface in every kernel.
        let a = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![f64::NAN, f64::INFINITY], vec![1.0, 1.0]]).unwrap();
        for result in [
            matmul_naive(&a, &b).unwrap(),
            matmul_blocked(&a, &b).unwrap(),
            matmul_parallel(&a, &b, 2).unwrap(),
            matmul_transposed(&a, &b.transpose()).unwrap(),
        ] {
            assert!(result[(0, 0)].is_nan(), "0*NaN must stay NaN: {result:?}");
            assert!(result[(0, 1)].is_nan(), "0*inf must yield NaN: {result:?}");
        }
    }

    #[test]
    fn empty_dimensions_are_fine() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(matmul_parallel(&a, &b, 4).unwrap().shape(), (0, 3));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let out = matmul_blocked(&a, &b).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }
}
