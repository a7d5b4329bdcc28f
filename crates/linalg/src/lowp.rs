//! [`MatrixF32`] and [`matmul_f32_columns`]: the storage and the product
//! of the certified f32 screen.
//!
//! The f64 product is the bit-exact reference and the only arithmetic an
//! answer is made of. The f32 product scores the certified screen with
//! which `noble-nn` picks a wide head's exact class: the screen's error
//! bound rules classes out, and every class it cannot rule out is
//! recomputed in f64, so no f32 value ever becomes an answer. Its
//! determinism contract:
//!
//! - **vs f64**: approximate. f32 products agree with the f64 reference
//!   to f32 rounding, which is what the screen's bound accounts for.
//! - **vs itself**: exact, by construction. It is the f64 product's code
//!   in [`crate::gemm`], run at `f32`: the same dispatcher, naive loop,
//!   blocked kernel (8 lanes per AVX2 register in place of 4) and row-slab
//!   splitter, with the same per-element operation order. So its bits are
//!   the same on every host and across thread counts, batch shapes and
//!   column ranges. It never skips zero groups.
//!
//! The one narrowing, [`MatrixF32::from_f64`], is the only `as f32` in the
//! crate and carries a reasoned `float-determinism` allow.

use crate::gemm::{self, Operand};
use crate::{LinalgError, Matrix};
use std::ops::Range;

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
            // noble-lint: allow(float-determinism, "the screen's f32 copy: its bound covers this rounding, and every class it cannot rule out is recomputed in f64")
            data: m.as_slice().iter().map(|&v| v as f32).collect(),
        }
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

    /// The whole row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// This matrix as a kernel operand.
    pub(crate) fn operand(&self) -> Operand<'_, f32> {
        Operand {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }
}

/// Columns `cols` of the f32 product `a * b`, read in place from the
/// row-major `b`, from the cheapest kernel for the product's shape.
///
/// The same row-wise invariance contract as [`Matrix::matmul_columns`],
/// whose kernels this runs at `f32`: the serial kernel class depends only
/// on the per-row work of the whole product, `k * n` (never on `cols` or
/// the batch size), and the threaded variant is bit-identical to blocked,
/// so every output is bit-identical regardless of batch size, thread
/// count and column range.
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
    let width = cols.len();
    let data = gemm::matmul_columns(a.operand(), b.operand(), cols, false)?;
    Ok(MatrixF32 {
        rows: a.rows,
        cols: width,
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::{
        blocked, deterministic, matrix_strategy, naive, parallel, portable_and_selected,
    };
    use crate::matmul_naive;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl MatrixF32 {
        /// Widens back to f64 (exact — every f32 is representable in f64).
        fn to_f64(&self) -> Matrix {
            let wide = self.data.iter().map(|&v| f64::from(v)).collect();
            Matrix::from_vec(self.rows, self.cols, wide).unwrap()
        }

        fn row_mut(&mut self, i: usize) -> &mut [f32] {
            &mut self.data[i * self.cols..(i + 1) * self.cols]
        }
    }

    fn shaped(a: &MatrixF32, b: &MatrixF32, data: Vec<f32>) -> MatrixF32 {
        MatrixF32::from_vec(a.rows, b.cols, data).unwrap()
    }

    fn matmul_f32_naive(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
        naive(a.operand(), b.operand()).map(|d| shaped(a, b, d))
    }

    fn matmul_f32_blocked(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
        blocked(a.operand(), b.operand()).map(|d| shaped(a, b, d))
    }

    fn matmul_f32_parallel(
        a: &MatrixF32,
        b: &MatrixF32,
        threads: usize,
    ) -> Result<MatrixF32, LinalgError> {
        parallel(a.operand(), b.operand(), threads).map(|d| shaped(a, b, d))
    }

    fn matmul_f32(a: &MatrixF32, b: &MatrixF32) -> Result<MatrixF32, LinalgError> {
        matmul_f32_columns(a, b, 0..b.cols)
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
        // The generic kernel at `f32` picks the AVX2 implementation
        // wherever the host has it.
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
                let (reference, got) =
                    portable_and_selected(a.operand(), b.operand(), cols.clone());
                for (idx, (r, g)) in reference.iter().zip(&got).enumerate() {
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
                    let (_, full) = portable_and_selected(a.operand(), b.operand(), 0..n);
                    for i in 0..m {
                        let want: Vec<u32> = full[i * n..(i + 1) * n][cols.clone()]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        let have: Vec<u32> = got[i * w..(i + 1) * w]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
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
        assert!(matmul_f32_columns(&a, &b, 0..3).is_err());
        assert!(matmul_f32_columns(&a, &MatrixF32::zeros(3, 2), 1..3).is_err());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The f32 family tracks the f64 naive reference within the f32
        /// accumulation tolerance across arbitrary shapes, the f32 kernels
        /// agree with each other **bitwise** at any thread count, and the
        /// dispatcher returns the same bits as the blocked kernel.
        #[test]
        fn f32_kernels_track_f64_and_agree_bitwise(
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

            let a32 = MatrixF32::from_f64(&a);
            let b32 = MatrixF32::from_f64(&b);
            let naive32 = matmul_f32_naive(&a32, &b32).unwrap();
            let widened = naive32.to_f64();
            prop_assert!(
                reference.max_abs_diff(&widened).unwrap() <= 1e-5 * k as f64 * scale,
                "f32 naive kernel drifts past the f32 tolerance for {m}x{k}x{n}"
            );

            // Bitwise structural agreement inside the tier: blocked matches
            // naive only at tolerance (it reassociates), but every threaded
            // run and the dispatcher must match blocked exactly.
            let blocked32 = matmul_f32_blocked(&a32, &b32).unwrap();
            prop_assert!(
                widened.max_abs_diff(&blocked32.to_f64()).unwrap() <= 1e-5 * k as f64 * scale,
                "f32 blocked kernel diverges for {m}x{k}x{n}"
            );
            for threads in [1usize, 2, 4] {
                let par = matmul_f32_parallel(&a32, &b32, threads).unwrap();
                prop_assert_eq!(par.as_slice(), blocked32.as_slice());
            }
            // The dispatcher picks a kernel class per *row* (small rows run
            // naive, big rows run blocked), so its contract is batch-shape
            // invariance: stacking rows never changes any row's bits.
            let dispatched = matmul_f32(&a32, &b32).unwrap();
            for i in 0..m {
                let single = MatrixF32::from_vec(1, k, a32.row(i).to_vec()).unwrap();
                let got = matmul_f32(&single, &b32).unwrap();
                prop_assert_eq!(got.as_slice(), dispatched.row(i));
            }
        }
    }
}
