//! Property tests of the public matmul surface: batched products must
//! agree with row-at-a-time products (the invariant the batched inference
//! engine rests on), bit for bit past the kernel's block edges and at any
//! thread count, and a column range of a product must carry the bits of
//! the full product's columns. The kernels behind it are pinned against
//! the naive reference, at `f64` and `f32`, by the unit tests of
//! `gemm.rs` and `lowp.rs`.

use noble_linalg::{set_num_threads, Matrix};
use proptest::prelude::*;

fn matrix_strategy(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch-vs-single parity at the kernel level: multiplying a stacked
    /// batch equals multiplying each row separately. This is the algebraic
    /// fact `predict_batch` and `localize_batch` rely on.
    #[test]
    fn batched_product_matches_per_row_products(
        a in matrix_strategy(1usize..24, 1usize..24),
        seed in 0u64..1 << 16,
    ) {
        let k = a.cols();
        let b = matrix_strategy(k..k + 1, 1usize..24)
            .generate(&mut proptest::test_runner::TestRng::new(seed));
        let batched = a.matmul(&b).unwrap();
        for i in 0..a.rows() {
            let single = a.select_rows(&[i]).matmul(&b).unwrap();
            for j in 0..b.cols() {
                prop_assert!(
                    (batched[(i, j)] - single[(0, j)]).abs() <= 1e-12 * single[(0, j)].abs().max(1.0),
                    "row {i} col {j}: batched {} vs single {}",
                    batched[(i, j)],
                    single[(0, j)]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every row of a dispatched product is bit-identical to the 1-row
    /// product of that row, at 1, 2 and 4 threads, on shapes that cross
    /// the blocked kernel's depth block (128) and column block (256) and
    /// split rows into whole 4-row tiles plus leftovers. The property
    /// tests above never reach 48 in any dimension.
    #[test]
    fn dispatch_rows_bit_identical_past_block_edges(
        dims in (1usize..=12, 120usize..=300, 250usize..=600, 0u64..1 << 16),
    ) {
        let (m, k, n, salt) = dims;
        let a = matrix_strategy(m..m + 1, k..k + 1)
            .generate(&mut proptest::test_runner::TestRng::new(salt));
        let b = matrix_strategy(k..k + 1, n..n + 1)
            .generate(&mut proptest::test_runner::TestRng::new(salt ^ 0xABCD));
        let singles: Vec<Matrix> = (0..m)
            .map(|i| a.select_rows(&[i]).matmul(&b).unwrap())
            .collect();
        for threads in [1usize, 2, 4] {
            set_num_threads(threads);
            let batched = a.matmul(&b);
            set_num_threads(0);
            let batched = batched.unwrap();
            for (i, single) in singles.iter().enumerate() {
                let same = batched
                    .row(i)
                    .iter()
                    .zip(single.row(0))
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                prop_assert!(same, "row {i} of {m}x{k}x{n} at {threads} threads differs from its 1-row product");
            }
        }
    }
}

/// Zeroes whole 4-wide depth groups of `a` (each with probability 4/5),
/// as in a fingerprint that hears few access points; some zeros are
/// `-0.0`.
fn zero_dense(mut a: Matrix, salt: u64) -> Matrix {
    let mut rng = proptest::test_runner::TestRng::new(salt);
    let k = a.cols();
    for i in 0..a.rows() {
        for kk in (0..k).step_by(4) {
            if rng.usize_in(0, 5) < 4 {
                let zero = if rng.usize_in(0, 6) == 0 { -0.0 } else { 0.0 };
                a.row_mut(i)[kk..(kk + 4).min(k)].fill(zero);
            }
        }
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A column range of the product, with and without zero-group
    /// skipping, carries the bits of the matching columns of
    /// `Matrix::matmul`: batches of 1 to 9 rows and larger, depths on both
    /// sides of the 128-deep block, ranges that start off a multiple of 4,
    /// LHS rows made mostly of zero groups, and heads narrower than 32
    /// columns (whose own width would pick a different kernel class).
    #[test]
    fn column_range_products_match_full_matmul_columns(
        dims in (1usize..=9, 100usize..=260, 60usize..=560, 0u64..1 << 16),
        range in (0usize..1 << 16, 1usize..=40, 0usize..3),
    ) {
        let (rows, k, n, salt) = dims;
        let (start_draw, narrow, shape) = range;
        let m = if salt % 4 == 0 { rows + 10 + (salt as usize % 50) } else { rows };
        let a = matrix_strategy(m..m + 1, k..k + 1)
            .generate(&mut proptest::test_runner::TestRng::new(salt));
        let a = zero_dense(a, salt ^ 0x5A5A);
        let b = matrix_strategy(k..k + 1, n..n + 1)
            .generate(&mut proptest::test_runner::TestRng::new(salt ^ 0xABCD));
        let start = start_draw % (n - 1);
        let width = match shape {
            0 => narrow.min(n - start),
            1 => (n - start) / 2 + 1,
            _ => n - start,
        };
        let cols = start..start + width;
        let full = a.matmul(&b).unwrap();
        for rhs_finite in [false, true] {
            let part = a.matmul_columns(&b, cols.clone(), rhs_finite).unwrap();
            prop_assert_eq!(part.shape(), (m, width));
            for i in 0..m {
                let same = part
                    .row(i)
                    .iter()
                    .zip(&full.row(i)[cols.clone()])
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                prop_assert!(
                    same,
                    "row {i} of {m}x{k}x{n}, columns {cols:?}, skip {rhs_finite}"
                );
            }
        }
    }
}

#[test]
fn column_ranges_of_naive_class_products_and_bad_ranges() {
    // A product light enough for the naive kernel keeps that kernel for
    // every range of it; a range past the product's width is an error.
    let a = zero_dense(
        matrix_strategy(5..6, 16..17).generate(&mut proptest::test_runner::TestRng::new(7)),
        8,
    );
    let b = matrix_strategy(16..17, 20..21).generate(&mut proptest::test_runner::TestRng::new(9));
    let full = a.matmul(&b).unwrap();
    for cols in [0..20, 3..11, 19..20, 4..4] {
        let part = a.matmul_columns(&b, cols.clone(), true).unwrap();
        for i in 0..5 {
            let want: Vec<u64> = full.row(i)[cols.clone()]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u64> = part.row(i).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {i}, columns {cols:?}");
        }
    }
    assert!(a.matmul_columns(&b, 10..21, false).is_err());
    assert!(a
        .matmul_columns(&Matrix::zeros(15, 20), 0..20, false)
        .is_err());
}

#[test]
fn zero_groups_are_never_skipped_past_a_non_finite_weight() {
    // Without the finiteness promise, a zero group still multiplies the
    // NaN and inf weights behind it, exactly as the full product does.
    let k = 192;
    let mut a = Matrix::from_fn(2, k, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
    a.row_mut(0)[8..12].fill(0.0);
    a.row_mut(1)[8..12].fill(0.0);
    let mut b = Matrix::from_fn(k, 160, |i, j| ((i + 3 * j) % 11) as f64 / 7.0);
    b[(9, 40)] = f64::NAN;
    b[(10, 41)] = f64::INFINITY;
    let part = a.matmul_columns(&b, 38..45, false).unwrap();
    for i in 0..2 {
        assert!(
            part[(i, 2)].is_nan() && part[(i, 3)].is_nan(),
            "row {i}: {part:?}"
        );
        assert!(part[(i, 0)].is_finite());
    }
}
