//! Dense matrix-multiply kernels: naive reference, cache-blocked with a
//! k-unrolled streaming micro-kernel, a packed/transposed-RHS dot kernel,
//! and a multi-threaded variant.
//!
//! [`Matrix::matmul`] routes through these automatically (see its docs for
//! the thresholds); the free functions are public so benchmarks and
//! property tests can pin a specific kernel.
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
//! in a tile or in the leftovers, or on the thread that computes it.
//!
//! All kernels follow IEEE-754 semantics: no term of the inner product is
//! skipped, so non-finite values (`NaN`, `±inf`) in either operand
//! propagate into the product exactly as a textbook triple loop would
//! (`0.0 * NaN == NaN`). An earlier revision skipped `a_ik == 0.0` as a
//! sparsity shortcut, which silently masked divergence behind sparse
//! activations — the regression tests in this module pin the fix.

use crate::threads::{num_threads, parallel_chunks_mut};
use crate::{LinalgError, Matrix};

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
    let n = b.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    for i in 0..a.rows() {
        let a_row = a.row(i);
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (k, &a_ik) in a_row.iter().enumerate() {
            let b_row = b.row(k);
            for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * b_kj;
            }
        }
    }
    Ok(out)
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

/// Computes output rows `first_row..` of `a * b` into `out_chunk` (a slab
/// of whole output rows) with the fastest kernel this CPU supports.
///
/// On x86-64 hosts with AVX2 (detected at run time, once per process by
/// `std`) this runs [`avx2::gemm_rows`]; everywhere else it runs
/// [`gemm_rows_portable`]. Both give every output the same operation
/// sequence, so the choice never changes a bit.
fn gemm_rows(a: &Matrix, b: &Matrix, first_row: usize, out_chunk: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, the only target feature the
        // kernel enables (checked just above).
        unsafe { avx2::gemm_rows(a, b, first_row, out_chunk) };
        return;
    }
    gemm_rows_portable(a, b, first_row, out_chunk);
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
fn gemm_rows_portable(a: &Matrix, b: &Matrix, first_row: usize, out_chunk: &mut [f64]) {
    let (k, n) = (b.rows(), b.cols());
    if n == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / n;
    let bs = b.as_slice();
    for k0 in (0..k).step_by(BLOCK_K) {
        let k_hi = (k0 + BLOCK_K).min(k);
        let k4 = k0 + (k_hi - k0) / 4 * 4;
        for j0 in (0..n).step_by(BLOCK_COLS) {
            let j_hi = (j0 + BLOCK_COLS).min(n);
            for i in 0..chunk_rows {
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

/// The AVX2 twin of [`gemm_rows_portable`]: every output gets the
/// portable kernel's operation sequence (see the module notes), so four
/// lanes compute four outputs exactly as four scalar loops would.
///
/// All `unsafe` here is unaligned 4-lane loads and stores; each
/// micro-kernel asserts its slice bounds before its loops, and every
/// pointer offset below is bounded by those asserts.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BLOCK_COLS, BLOCK_K};
    use crate::Matrix;
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    use std::ops::Range;

    /// Output rows per register tile.
    const TILE_ROWS: usize = 4;

    /// One `BLOCK_K` depth block: `lo..groups` is applied in groups of
    /// four, `groups..hi` one term at a time.
    #[derive(Clone, Copy)]
    struct Depth {
        lo: usize,
        groups: usize,
        hi: usize,
    }

    /// Computes output rows `first_row..` of `a * b` into `out_chunk`:
    /// complete 4-row tiles run [`tile_rows`], the rows left over run
    /// [`stream_row`].
    ///
    /// Outside AVX2 code, calling this is `unsafe`: the caller must have
    /// checked that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows(a: &Matrix, b: &Matrix, first_row: usize, out_chunk: &mut [f64]) {
        let (k, n) = (b.rows(), b.cols());
        if n == 0 || out_chunk.is_empty() {
            return;
        }
        let rows = out_chunk.len() / n;
        let a_rows = &a.as_slice()[first_row * k..(first_row + rows) * k];
        let bs = b.as_slice();
        let tiled = rows - rows % TILE_ROWS;
        for lo in (0..k).step_by(BLOCK_K) {
            let hi = (lo + BLOCK_K).min(k);
            let depth = Depth {
                lo,
                groups: lo + (hi - lo) / 4 * 4,
                hi,
            };
            for j0 in (0..n).step_by(BLOCK_COLS) {
                let cols = j0..(j0 + BLOCK_COLS).min(n);
                for i in (0..tiled).step_by(TILE_ROWS) {
                    tile_rows(
                        &a_rows[i * k..(i + TILE_ROWS) * k],
                        bs,
                        &mut out_chunk[i * n..(i + TILE_ROWS) * n],
                        depth,
                        cols.clone(),
                    );
                }
                for i in tiled..rows {
                    stream_row(
                        &a_rows[i * k..(i + 1) * k],
                        bs,
                        &mut out_chunk[i * n..(i + 1) * n],
                        depth,
                        cols.clone(),
                    );
                }
            }
        }
    }

    /// Register tile: 4 rows × 4 columns, one accumulator per row, held
    /// in registers across the whole depth block. `a` holds the tile's 4
    /// LHS rows and `out` its 4 output rows.
    #[target_feature(enable = "avx2")]
    fn tile_rows(a: &[f64], bs: &[f64], out: &mut [f64], d: Depth, cols: Range<usize>) {
        let n = out.len() / TILE_ROWS;
        let k = a.len() / TILE_ROWS;
        assert!(
            a.len() == TILE_ROWS * k
                && out.len() == TILE_ROWS * n
                && bs.len() == k * n
                && d.hi <= k
                && cols.end <= n
        );
        let (ap, bp, op) = (a.as_ptr(), bs.as_ptr(), out.as_mut_ptr());
        let j4 = cols.start + cols.len() / 4 * 4;
        for j in (cols.start..j4).step_by(4) {
            // SAFETY: r < 4 and j + 3 < j4 <= n, so r * n + j + 3 <
            // 4 * n == out.len() (asserted above).
            let mut acc: [__m256d; TILE_ROWS] =
                std::array::from_fn(|r| unsafe { _mm256_loadu_pd(op.add(r * n + j)) });
            let mut kk = d.lo;
            while kk < d.groups {
                // SAFETY: kk + 3 < d.groups <= d.hi <= k and j + 3 < n,
                // so each B offset is below k * n == bs.len(), and each A
                // offset r * k + kk + 3 is below 4 * k == a.len().
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
                kk += 4;
            }
            for kr in d.groups..d.hi {
                // SAFETY: kr < d.hi <= k and j + 3 < n, as above.
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
                unsafe { _mm256_storeu_pd(op.add(r * n + j), *acc_r) };
            }
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            for (j, o) in (j4..).zip(&mut out_row[j4..cols.end]) {
                *o = scalar_block(a_row, bs, n, j, d, *o);
            }
        }
    }

    /// Streaming kernel for a single row: the portable kernel's loop, 4
    /// lanes wide. Each group of four LHS scalars streams four RHS row
    /// segments through the output segment.
    #[target_feature(enable = "avx2")]
    fn stream_row(a: &[f64], bs: &[f64], out: &mut [f64], d: Depth, cols: Range<usize>) {
        let (k, n) = (a.len(), out.len());
        assert!(bs.len() == k * n && d.hi <= k && cols.end <= n);
        let (bp, op) = (bs.as_ptr(), out.as_mut_ptr());
        let j4 = cols.start + cols.len() / 4 * 4;
        let mut kk = d.lo;
        while kk < d.groups {
            let a0 = _mm256_set1_pd(a[kk]);
            let a1 = _mm256_set1_pd(a[kk + 1]);
            let a2 = _mm256_set1_pd(a[kk + 2]);
            let a3 = _mm256_set1_pd(a[kk + 3]);
            for j in (cols.start..j4).step_by(4) {
                // SAFETY: kk + 3 < d.groups <= k and j + 3 < j4 <= n, so
                // each B offset is below k * n == bs.len() and j + 3 <
                // out.len() (asserted above).
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
            let ak = _mm256_set1_pd(a_k);
            for j in (cols.start..j4).step_by(4) {
                // SAFETY: kr < d.hi <= k and j + 3 < n, as above.
                unsafe {
                    let t = _mm256_mul_pd(ak, _mm256_loadu_pd(bp.add(kr * n + j)));
                    _mm256_storeu_pd(op.add(j), _mm256_add_pd(_mm256_loadu_pd(op.add(j)), t));
                }
            }
        }
        for (j, o) in (j4..).zip(&mut out[j4..cols.end]) {
            *o = scalar_block(a, bs, n, j, d, *o);
        }
    }

    /// Output `j` of one row over one depth block, in the portable
    /// kernel's order: the column tail (`n % 4`) of both micro-kernels.
    fn scalar_block(a_row: &[f64], bs: &[f64], n: usize, j: usize, d: Depth, mut acc: f64) -> f64 {
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
    gemm_rows(a, b, 0, out.as_mut_slice());
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
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    // Split rows evenly across workers; each chunk is a whole-row slab.
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(
        out.as_mut_slice(),
        rows_per_chunk * n,
        threads,
        |chunk_index, chunk| {
            gemm_rows(a, b, chunk_index * rows_per_chunk, chunk);
        },
    );
    Ok(out)
}

/// Dispatches `a * b` to the cheapest kernel for its shape.
///
/// The serial kernel class depends only on the *per-row* work `k * n`
/// (naive below [`BLOCKED_MIN_ROW_FLOPS`], blocked above), and the
/// threaded variant is bit-identical to blocked, so **every output row is
/// bit-identical regardless of batch size and thread count**. Threads are
/// spawned once each worker's share of the total work clears
/// [`PARALLEL_MIN_CHUNK_FLOPS`].
pub(crate) fn matmul_dispatch(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    let row_flops = a.cols() * b.cols();
    if row_flops < BLOCKED_MIN_ROW_FLOPS {
        return matmul_naive(a, b);
    }
    let threads = num_threads();
    if threads > 1 && a.rows() > 1 {
        let flops = a.rows() * row_flops;
        let workers = threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows());
        if workers > 1 {
            return matmul_parallel(a, b, workers);
        }
    }
    matmul_blocked(a, b)
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
            gemm_rows_portable(&a, &b, 0, reference.as_mut_slice());
            let mut got = Matrix::zeros(m, n);
            gemm_rows(&a, &b, 0, got.as_mut_slice());
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
