//! Dense matrix-multiply kernels, written once and run at two element
//! types: `f64` for every exact product ([`Matrix::matmul`],
//! [`Matrix::matmul_columns`]) and `f32` for the certified screen
//! ([`crate::matmul_f32_columns`]). The pieces are a naive reference loop,
//! a cache-blocked kernel with a k-unrolled streaming micro-kernel, its
//! run-time selected AVX2 implementation, a row-slab splitter over scoped
//! threads, and the dispatcher that picks among them. The [`Element`]
//! trait supplies what differs between the two types: the lane count of a
//! 256-bit register and its AVX2 intrinsics.
//!
//! [`Matrix::matmul`] routes through these automatically (see its docs for
//! the thresholds); [`matmul_naive`] is public as the reference the tests
//! compare the others against. [`Matrix::matmul_columns`] runs the same
//! kernels over a range of output columns, and may skip all-zero groups
//! of LHS terms when the caller knows the RHS is finite (see *Zero-group
//! skipping* below). [`Matrix::matmul`] is its full-range, no-skip case;
//! the f32 instantiation never skips.
//!
//! The blocked kernel has two implementations, selected at run time:
//!
//! - on x86-64 with AVX2 (`is_x86_feature_detected!("avx2")`), complete
//!   4-row tiles run a register tile of 4 rows × one register of lanes (4
//!   `f64` or 8 `f32`), one accumulator per row, and the 1–3 rows left
//!   over run a streaming loop one register wide;
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
use std::ops::{Add, AddAssign, Mul, Range};

/// Depth (`k`) handled per cache block: a panel of `BLOCK_K` RHS rows is
/// reused across every LHS row before moving on.
const BLOCK_K: usize = 128;
/// Output columns handled per cache block, so the active output segment
/// and the four streamed RHS row segments stay cache-resident even for
/// very wide products.
const BLOCK_COLS: usize = 256;
/// Minimum *per-row* multiply-accumulate count (`k * n`) before the
/// dispatcher switches from the reference loop to the blocked kernel.
///
/// The kernel class is chosen per output row — never from the batch size —
/// so row `i` of a product is bit-identical no matter how many other rows
/// share the batch. Serving layers rely on this: micro-batching coalesces
/// requests into arbitrary batch shapes and must return the same bits a
/// single-fix call would.
const BLOCKED_MIN_ROW_FLOPS: usize = 64 * 64;
/// Minimum multiply-accumulate count *per worker* before threads are
/// spawned. Scoped-thread spawn/join costs tens of microseconds, so each
/// worker must carry enough work to amortize it; sizing the threshold per
/// worker (instead of per product) lets training-shaped mini-batch
/// products engage the parallel path without letting tiny products spawn
/// threads.
const PARALLEL_MIN_CHUNK_FLOPS: usize = 128 * 128 * 16;

/// An element type the kernels run at: `f64` (exact products) or `f32`
/// (the certified screen). The scalar bounds carry the portable kernel;
/// the x86-64 items are one 256-bit AVX2 register of [`Element::LANES`]
/// elements and the five intrinsics the AVX2 kernel is made of. Each
/// `unsafe` method requires a CPU with AVX2; `load` and `store` also
/// require `LANES` valid elements at `p`.
pub(crate) trait Element:
    Copy + PartialEq + Add<Output = Self> + Mul<Output = Self> + AddAssign + Send + Sync
{
    /// `+0.0`, where every output starts.
    const ZERO: Self;
    /// Elements per 256-bit register.
    #[cfg(target_arch = "x86_64")]
    const LANES: usize;
    /// A 256-bit register of `LANES` elements.
    #[cfg(target_arch = "x86_64")]
    type Lanes: Copy;
    /// Every lane set to `v`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn splat(v: Self) -> Self::Lanes;
    /// An unaligned load of `LANES` elements.
    #[cfg(target_arch = "x86_64")]
    unsafe fn load(p: *const Self) -> Self::Lanes;
    /// An unaligned store of `LANES` elements.
    #[cfg(target_arch = "x86_64")]
    unsafe fn store(p: *mut Self, v: Self::Lanes);
    /// Lane-wise `a + b`, rounded once per lane.
    #[cfg(target_arch = "x86_64")]
    unsafe fn vadd(a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;
    /// Lane-wise `a * b`, rounded once per lane (never fused with an add).
    #[cfg(target_arch = "x86_64")]
    unsafe fn vmul(a: Self::Lanes, b: Self::Lanes) -> Self::Lanes;
}

/// Implements [`Element`] for a float type from its lane count, register
/// type and `_pd`/`_ps` intrinsics.
macro_rules! element {
    ($t:ty, $lanes:expr, $reg:ident, $set1:ident, $loadu:ident, $storeu:ident, $add:ident, $mul:ident) => {
        impl Element for $t {
            const ZERO: $t = 0.0;
            #[cfg(target_arch = "x86_64")]
            const LANES: usize = $lanes;
            #[cfg(target_arch = "x86_64")]
            type Lanes = std::arch::x86_64::$reg;
            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn splat(v: $t) -> Self::Lanes {
                // SAFETY: the caller vouches for AVX2.
                unsafe { std::arch::x86_64::$set1(v) }
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn load(p: *const $t) -> Self::Lanes {
                // SAFETY: the caller vouches for AVX2 and `LANES` elements at `p`.
                unsafe { std::arch::x86_64::$loadu(p) }
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn store(p: *mut $t, v: Self::Lanes) {
                // SAFETY: the caller vouches for AVX2 and `LANES` elements at `p`.
                unsafe { std::arch::x86_64::$storeu(p, v) }
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn vadd(a: Self::Lanes, b: Self::Lanes) -> Self::Lanes {
                // SAFETY: the caller vouches for AVX2.
                unsafe { std::arch::x86_64::$add(a, b) }
            }
            #[cfg(target_arch = "x86_64")]
            #[inline(always)]
            unsafe fn vmul(a: Self::Lanes, b: Self::Lanes) -> Self::Lanes {
                // SAFETY: the caller vouches for AVX2.
                unsafe { std::arch::x86_64::$mul(a, b) }
            }
        }
    };
}

element!(
    f64,
    4,
    __m256d,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_add_pd,
    _mm256_mul_pd
);
element!(
    f32,
    8,
    __m256,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_add_ps,
    _mm256_mul_ps
);

/// A row-major `rows × cols` operand seen as its buffer: the form in which
/// the kernels take a [`Matrix`] or a `MatrixF32`.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, T> {
    pub(crate) data: &'a [T],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
}

impl<'a, T> Operand<'a, T> {
    fn row(&self, i: usize) -> &'a [T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// Checks that `a * b` is defined.
fn check_shapes<T>(a: Operand<'_, T>, b: Operand<'_, T>) -> Result<(), LinalgError> {
    if a.cols != b.rows {
        return Err(LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (a.rows, a.cols),
            rhs: (b.rows, b.cols),
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
    check_shapes(a.operand(), b.operand())?;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    naive_rows(a.operand(), b.operand(), 0..b.cols(), out.as_mut_slice());
    Ok(out)
}

/// The i-k-j loop over output columns `cols`, into `out` (whole rows of
/// width `cols.len()`). It never skips a term.
fn naive_rows<T: Element>(a: Operand<'_, T>, b: Operand<'_, T>, cols: Range<usize>, out: &mut [T]) {
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

/// One blocked-kernel call: the RHS output columns it computes, and
/// whether it may skip all-zero LHS groups (sound only for a finite RHS;
/// see the module notes).
#[derive(Debug)]
struct Panel {
    cols: Range<usize>,
    skip_zero_groups: bool,
}

/// Computes output rows `first_row..` of columns `panel.cols` of `a * b`
/// into `out_chunk` (a slab of whole output rows, each `panel.cols.len()`
/// wide) with the fastest kernel this CPU supports.
///
/// On x86-64 hosts with AVX2 (detected at run time, once per process by
/// `std`) this runs [`avx2::gemm_rows`]; everywhere else it runs
/// [`gemm_rows_portable`]. Both give every output the same operation
/// sequence, so the choice never changes a bit.
fn gemm_rows<T: Element>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    first_row: usize,
    out_chunk: &mut [T],
    panel: &Panel,
) {
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
fn gemm_rows_portable<T: Element>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    first_row: usize,
    out_chunk: &mut [T],
    panel: &Panel,
) {
    let (k, n) = (b.rows, b.cols);
    let (cols, skip) = (panel.cols.clone(), panel.skip_zero_groups);
    let w = cols.len();
    if w == 0 || out_chunk.is_empty() {
        return;
    }
    let chunk_rows = out_chunk.len() / w;
    let (bs, zero) = (b.data, T::ZERO);
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
                    if skip && a0 == zero && a1 == zero && a2 == zero && a3 == zero {
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
                    if skip && a_ik == zero {
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
/// portable kernel's operation sequence (see the module notes), so the
/// `T::LANES` lanes of a register compute that many outputs exactly as
/// that many scalar loops would, and the same zero groups are skipped.
///
/// All `unsafe` here is unaligned register loads and stores through
/// [`Element`]; each micro-kernel asserts its slice bounds before its
/// loops, and every pointer offset below is bounded by those asserts.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Element, Operand, Panel, BLOCK_COLS, BLOCK_K};
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
    struct Rhs<'a, T> {
        data: &'a [T],
        n: usize,
        col0: usize,
    }

    /// Whether `a[kk..kk + 4]` is all zeros.
    #[inline(always)]
    fn zero_group<T: Element>(a: &[T], kk: usize) -> bool {
        let zero = T::ZERO;
        a[kk] == zero && a[kk + 1] == zero && a[kk + 2] == zero && a[kk + 3] == zero
    }

    /// Computes output rows `first_row..` of columns `panel.cols` of
    /// `a * b` into `out_chunk`: complete 4-row tiles run [`tile_rows`],
    /// the rows left over run [`stream_row`].
    ///
    /// Outside AVX2 code, calling this is `unsafe`: the caller must have
    /// checked that the CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) fn gemm_rows<T: Element>(
        a: Operand<'_, T>,
        b: Operand<'_, T>,
        first_row: usize,
        out_chunk: &mut [T],
        panel: &Panel,
    ) {
        let (k, n) = (b.rows, b.cols);
        let w = panel.cols.len();
        if w == 0 || out_chunk.is_empty() {
            return;
        }
        let rows = out_chunk.len() / w;
        let a_rows = &a.data[first_row * k..(first_row + rows) * k];
        let rhs = Rhs {
            data: b.data,
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

    /// Register tile: 4 rows × `T::LANES` columns, one accumulator per
    /// row, held in registers across the whole depth block. `a` holds the
    /// tile's 4 LHS rows and `out` its 4 output rows; `cols` are output
    /// columns. A group is skipped only when it is zero in all 4 rows.
    #[target_feature(enable = "avx2")]
    fn tile_rows<T: Element>(
        a: &[T],
        rhs: Rhs<'_, T>,
        out: &mut [T],
        d: Depth,
        cols: Range<usize>,
    ) {
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
        let lanes = T::LANES;
        let jv = cols.start + cols.len() / lanes * lanes;
        for j in (cols.start..jv).step_by(lanes) {
            // SAFETY: AVX2 is enabled here; r < 4 and j + lanes <= jv <= w,
            // so r * w + j + lanes <= 4 * w == out.len() (asserted above).
            let mut acc: [T::Lanes; TILE_ROWS] =
                std::array::from_fn(|r| unsafe { T::load(op.add(r * w + j)) });
            if d.skip {
                for &kk in &active[..groups] {
                    // SAFETY: AVX2 is enabled here; kk + 3 < d.groups <=
                    // d.hi <= k, `ap` holds 4 rows of k (asserted), and
                    // col0 + j + lanes <= n, so `tile_group`'s bounds hold.
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
                if d.skip && (0..TILE_ROWS).all(|r| a[r * k + kr] == T::ZERO) {
                    continue;
                }
                // SAFETY: AVX2 is enabled here; kr < d.hi <= k and
                // col0 + j + lanes <= n, as above.
                unsafe {
                    let bv = T::load(bp.add(kr * n + j));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let t = T::vmul(T::splat(*ap.add(r * k + kr)), bv);
                        *acc_r = T::vadd(*acc_r, t);
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                // SAFETY: the same offsets the loads above read.
                unsafe { T::store(op.add(r * w + j), *acc_r) };
            }
        }
        for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(w)) {
            for (j, o) in (jv..).zip(&mut out_row[jv..cols.end]) {
                *o = scalar_block(a_row, rhs, j, d, *o);
            }
        }
    }

    /// Applies depth group `kk..kk + 4` to a register tile:
    /// `acc[r] += ((a_r0*b0 + a_r1*b1) + a_r2*b2) + a_r3*b3` for the 4
    /// rows, lanes `j..j + T::LANES` of the RHS rows at `bp` (row stride
    /// `n`).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `ap` points at 4 rows of `k` values with
    /// `kk + 3 < k`; and `bp` points at a `k × n` row-major block whose
    /// columns `j..j + T::LANES` are inside each row.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_group<T: Element>(
        acc: &mut [T::Lanes; TILE_ROWS],
        ap: *const T,
        bp: *const T,
        k: usize,
        n: usize,
        kk: usize,
        j: usize,
    ) {
        // SAFETY: the offsets stay inside the blocks the caller vouches
        // for: kk + 3 < k, j + T::LANES <= n, r < 4.
        unsafe {
            let b0 = T::load(bp.add(kk * n + j));
            let b1 = T::load(bp.add((kk + 1) * n + j));
            let b2 = T::load(bp.add((kk + 2) * n + j));
            let b3 = T::load(bp.add((kk + 3) * n + j));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let ar = ap.add(r * k + kk);
                let mut t = T::vmul(T::splat(*ar), b0);
                t = T::vadd(t, T::vmul(T::splat(*ar.add(1)), b1));
                t = T::vadd(t, T::vmul(T::splat(*ar.add(2)), b2));
                t = T::vadd(t, T::vmul(T::splat(*ar.add(3)), b3));
                *acc_r = T::vadd(*acc_r, t);
            }
        }
    }

    /// Streaming kernel for a single row: the portable kernel's loop, one
    /// register wide. Each group of four LHS scalars streams four RHS row
    /// segments through the output segment.
    #[target_feature(enable = "avx2")]
    fn stream_row<T: Element>(
        a: &[T],
        rhs: Rhs<'_, T>,
        out: &mut [T],
        d: Depth,
        cols: Range<usize>,
    ) {
        let (k, w, n) = (a.len(), out.len(), rhs.n);
        assert!(rhs.data.len() == k * n && rhs.col0 + w <= n && d.hi <= k && cols.end <= w);
        let op = out.as_mut_ptr();
        // SAFETY: col0 + w <= n (asserted), so the offset stays inside
        // the first RHS row.
        let bp = unsafe { rhs.data.as_ptr().add(rhs.col0) };
        let lanes = T::LANES;
        let jv = cols.start + cols.len() / lanes * lanes;
        let mut kk = d.lo;
        while kk < d.groups {
            if d.skip && zero_group(a, kk) {
                kk += 4;
                continue;
            }
            // SAFETY: AVX2 is enabled here. kk + 3 < d.groups <= k and
            // col0 + j + lanes <= n, so each B offset stays below
            // k * n == rhs.data.len(), and j + lanes <= out.len()
            // (asserted above).
            unsafe {
                let a0 = T::splat(a[kk]);
                let a1 = T::splat(a[kk + 1]);
                let a2 = T::splat(a[kk + 2]);
                let a3 = T::splat(a[kk + 3]);
                for j in (cols.start..jv).step_by(lanes) {
                    let mut t = T::vmul(a0, T::load(bp.add(kk * n + j)));
                    t = T::vadd(t, T::vmul(a1, T::load(bp.add((kk + 1) * n + j))));
                    t = T::vadd(t, T::vmul(a2, T::load(bp.add((kk + 2) * n + j))));
                    t = T::vadd(t, T::vmul(a3, T::load(bp.add((kk + 3) * n + j))));
                    T::store(op.add(j), T::vadd(T::load(op.add(j)), t));
                }
            }
            kk += 4;
        }
        for (kr, &a_k) in (d.groups..).zip(&a[d.groups..d.hi]) {
            if d.skip && a_k == T::ZERO {
                continue;
            }
            // SAFETY: AVX2 is enabled here; kr < d.hi <= k and
            // col0 + j + lanes <= n, as above.
            unsafe {
                let ak = T::splat(a_k);
                for j in (cols.start..jv).step_by(lanes) {
                    let t = T::vmul(ak, T::load(bp.add(kr * n + j)));
                    T::store(op.add(j), T::vadd(T::load(op.add(j)), t));
                }
            }
        }
        for (j, o) in (jv..).zip(&mut out[jv..cols.end]) {
            *o = scalar_block(a, rhs, j, d, *o);
        }
    }

    /// Output column `o` of one row over one depth block, in the portable
    /// kernel's order: the column tail (`w % T::LANES`) of both
    /// micro-kernels.
    fn scalar_block<T: Element>(a_row: &[T], rhs: Rhs<'_, T>, o: usize, d: Depth, mut acc: T) -> T {
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
            if !(d.skip && a_row[kr] == T::ZERO) {
                acc += a_row[kr] * bs[kr * n + j];
            }
        }
        acc
    }
}

/// The blocked kernel over row slabs of `out` (`a.rows × panel width`)
/// on up to `threads` scoped workers. Each worker writes a disjoint slab
/// of whole rows with the serial kernel, so the bits do not depend on
/// `threads`; with `threads <= 1` no thread is spawned.
fn parallel_rows<T: Element>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    panel: &Panel,
    threads: usize,
    out: &mut [T],
) {
    let (m, w) = (a.rows, panel.cols.len());
    if m == 0 || w == 0 {
        return;
    }
    // Split rows evenly across workers; each chunk is a whole-row slab.
    let rows_per_chunk = m.div_ceil(threads.max(1)).max(1);
    parallel_chunks_mut(out, rows_per_chunk * w, threads, |chunk_index, chunk| {
        gemm_rows(a, b, chunk_index * rows_per_chunk, chunk, panel);
    });
}

/// Columns `cols` of `a * b` (`a.rows × cols.len()`, row-major), from the
/// cheapest kernel for the product's shape; with `rhs_finite`, the
/// blocked kernels skip all-zero LHS groups (see the module notes).
///
/// The serial kernel class depends only on the *per-row* work of the
/// whole product, `k * n` (naive below [`BLOCKED_MIN_ROW_FLOPS`], blocked
/// above), never on `cols` or the batch size; and the threaded variant is
/// bit-identical to blocked. So **every output is bit-identical
/// regardless of batch size, thread count, column range and skipping**.
/// Threads are spawned once each worker's share of the total work clears
/// [`PARALLEL_MIN_CHUNK_FLOPS`].
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] when `a.cols != b.rows`, and
/// [`LinalgError::InvalidArgument`] for a range outside `0..b.cols`.
pub(crate) fn matmul_columns<T: Element>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    cols: Range<usize>,
    rhs_finite: bool,
) -> Result<Vec<T>, LinalgError> {
    check_shapes(a, b)?;
    if cols.start > cols.end || cols.end > b.cols {
        return Err(LinalgError::InvalidArgument(format!(
            "output columns {}..{} outside a product with {} columns",
            cols.start, cols.end, b.cols
        )));
    }
    let mut out = vec![T::ZERO; a.rows * cols.len()];
    if a.cols * b.cols < BLOCKED_MIN_ROW_FLOPS {
        naive_rows(a, b, cols, &mut out);
        return Ok(out);
    }
    let panel = Panel {
        cols,
        skip_zero_groups: rhs_finite,
    };
    let threads = num_threads();
    let workers = if threads > 1 && a.rows > 1 {
        let flops = a.rows * a.cols * panel.cols.len();
        threads.min(flops / PARALLEL_MIN_CHUNK_FLOPS).min(a.rows)
    } else {
        1
    };
    if workers > 1 {
        parallel_rows(a, b, &panel, workers, &mut out);
    } else {
        gemm_rows(a, b, 0, &mut out, &panel);
    }
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The whole product, no skipping.
    fn full(n: usize) -> Panel {
        Panel {
            cols: 0..n,
            skip_zero_groups: false,
        }
    }

    /// The serial blocked kernel over the whole product: the bit
    /// reference of the threaded splitter and of the dispatcher.
    pub(crate) fn blocked<T: Element>(
        a: Operand<'_, T>,
        b: Operand<'_, T>,
    ) -> Result<Vec<T>, LinalgError> {
        check_shapes(a, b)?;
        let mut out = vec![T::ZERO; a.rows * b.cols];
        gemm_rows(a, b, 0, &mut out, &full(b.cols));
        Ok(out)
    }

    /// The blocked kernel over the whole product on `threads` workers.
    pub(crate) fn parallel<T: Element>(
        a: Operand<'_, T>,
        b: Operand<'_, T>,
        threads: usize,
    ) -> Result<Vec<T>, LinalgError> {
        check_shapes(a, b)?;
        let mut out = vec![T::ZERO; a.rows * b.cols];
        parallel_rows(a, b, &full(b.cols), threads, &mut out);
        Ok(out)
    }

    /// The naive loop over the whole product.
    pub(crate) fn naive<T: Element>(
        a: Operand<'_, T>,
        b: Operand<'_, T>,
    ) -> Result<Vec<T>, LinalgError> {
        check_shapes(a, b)?;
        let mut out = vec![T::ZERO; a.rows * b.cols];
        naive_rows(a, b, 0..b.cols, &mut out);
        Ok(out)
    }

    /// Columns `cols` of `a * b`, no skipping, from the portable kernel
    /// and from the kernel `gemm_rows` selects on this host.
    pub(crate) fn portable_and_selected<T: Element>(
        a: Operand<'_, T>,
        b: Operand<'_, T>,
        cols: Range<usize>,
    ) -> (Vec<T>, Vec<T>) {
        let panel = Panel {
            cols,
            skip_zero_groups: false,
        };
        let mut portable = vec![T::ZERO; a.rows * panel.cols.len()];
        gemm_rows_portable(a, b, 0, &mut portable, &panel);
        let mut selected = vec![T::ZERO; portable.len()];
        gemm_rows(a, b, 0, &mut selected, &panel);
        (portable, selected)
    }

    fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        blocked(a.operand(), b.operand()).and_then(|d| Matrix::from_vec(a.rows(), b.cols(), d))
    }

    fn matmul_parallel(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix, LinalgError> {
        parallel(a.operand(), b.operand(), threads)
            .and_then(|d| Matrix::from_vec(a.rows(), b.cols(), d))
    }

    pub(crate) fn deterministic(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(j as u64)
                .wrapping_mul(0x85EB_CA6B)
                .wrapping_add(salt);
            ((h % 2000) as f64 - 1000.0) / 257.0
        })
    }

    /// Matrices of a shape drawn from `rows × cols`, with entries in
    /// roughly ±6.4 hashed from their position and a drawn salt.
    pub(crate) fn matrix_strategy(
        rows: core::ops::Range<usize>,
        cols: core::ops::Range<usize>,
    ) -> impl Strategy<Value = Matrix> {
        (rows, cols, 0u64..1 << 20).prop_map(|(r, c, salt)| {
            Matrix::from_fn(r, c, |i, j| {
                let h = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((j as u64).wrapping_mul(0xC2B2_AE35))
                    .wrapping_add(salt.wrapping_mul(0x1656_67B1));
                ((h % 4001) as f64 - 2000.0) / 311.0
            })
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
            let (reference, got) = portable_and_selected(a.operand(), b.operand(), 0..n);
            for (idx, (r, g)) in reference.iter().zip(&got).enumerate() {
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
            let mut full_product = Matrix::zeros(m, n);
            gemm_rows_portable(
                a.operand(),
                b.operand(),
                0,
                full_product.as_mut_slice(),
                &full(n),
            );
            for cols in [0..n, 3..n - 2, 1..n.min(30), n / 2..n / 2 + 5] {
                for skip_zero_groups in [false, true] {
                    let panel = Panel {
                        cols: cols.clone(),
                        skip_zero_groups,
                    };
                    let w = cols.len();
                    let mut portable = Matrix::zeros(m, w);
                    gemm_rows_portable(
                        a.operand(),
                        b.operand(),
                        0,
                        portable.as_mut_slice(),
                        &panel,
                    );
                    let mut selected = Matrix::zeros(m, w);
                    gemm_rows(a.operand(), b.operand(), 0, selected.as_mut_slice(), &panel);
                    for i in 0..m {
                        for (o, j) in cols.clone().enumerate() {
                            let want = full_product[(i, j)].to_bits();
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
    fn blocked_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (33, 17, 65), (70, 40, 70)] {
            let a = deterministic(m, k, 1);
            let b = deterministic(k, n, 2);
            let reference = matmul_naive(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            assert!(
                reference.max_abs_diff(&blocked).unwrap() < 1e-9,
                "{m}x{k}x{n}"
            );
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
                let full = a.matmul(&b).unwrap();
                for i in 0..m {
                    let row = Matrix::from_vec(1, k, a.row(i).to_vec()).unwrap();
                    let alone = row.matmul(&b).unwrap();
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
            let got = a.matmul(&b).unwrap();
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
        assert!(a.matmul(&b).is_err());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Blocked and threaded kernels match the naive reference within
        /// 1e-12 across random shapes (they reassociate the inner sum, so
        /// bit equality is not expected — but parallel == blocked exactly).
        #[test]
        fn kernels_agree_across_shapes(
            dims in (1usize..48, 1usize..48, 1usize..48, 0u64..1 << 16),
        ) {
            let (m, k, n, salt) = dims;
            let a = matrix_strategy(m..m + 1, k..k + 1)
                .generate(&mut proptest::test_runner::TestRng::new(salt));
            let b = matrix_strategy(k..k + 1, n..n + 1)
                .generate(&mut proptest::test_runner::TestRng::new(salt ^ 0xABCD));
            let reference = matmul_naive(&a, &b).unwrap();
            let scale = reference
                .as_slice()
                .iter()
                .fold(1.0f64, |acc, v| acc.max(v.abs()));

            let blocked = matmul_blocked(&a, &b).unwrap();
            prop_assert!(
                reference.max_abs_diff(&blocked).unwrap() <= 1e-12 * scale,
                "blocked kernel diverges for {m}x{k}x{n}"
            );
            for threads in [2usize, 4] {
                let par = matmul_parallel(&a, &b, threads).unwrap();
                prop_assert_eq!(&par, &blocked);
            }
        }
    }
}
