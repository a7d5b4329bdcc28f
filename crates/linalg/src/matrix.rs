use crate::gemm::Operand;
use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse container for the whole suite: network
/// activations, Gram matrices, geodesic distance tables, and embeddings are
/// all `Matrix` values. The representation is a single contiguous `Vec<f64>`
/// so row iteration is cache friendly.
///
/// # Example
///
/// ```
/// use noble_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(format!(
                "buffer of length {} cannot form a {rows}x{cols} matrix",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::InvalidArgument`] on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidArgument(format!(
                    "row {i} has length {}, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow of the backing row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// This matrix as a kernel operand.
    pub(crate) fn operand(&self) -> Operand<'_, f64> {
        Operand {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
        }
    }

    /// Consumes the matrix, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow of row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterator over rows as slices: one per row, empty when the matrix
    /// has no columns.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| &self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`: the full-range, no-skip case of
    /// [`Matrix::matmul_columns`].
    ///
    /// Dispatches on shape: rows with little work use the reference i-k-j
    /// loop (the one [`crate::matmul_naive`] runs); heavier rows use the
    /// cache-blocked kernel; and once every worker's share of the total
    /// multiply-accumulate count is large enough the row blocks are
    /// spread over scoped threads (worker count from
    /// [`crate::num_threads`]), each running the blocked kernel on whole
    /// rows. These are the kernels [`crate::matmul_f32_columns`] runs at
    /// `f32`. The kernel class is chosen from the *per-row* work and each
    /// kernel computes rows independently, so **output row `i` is
    /// bit-identical no matter what batch it is computed in and no matter
    /// the thread count** — the invariant the serving engine's
    /// micro-batching relies on. The kernels agree with each other to
    /// floating-point reassociation (≲ 1e-12 relative) and all follow
    /// IEEE semantics — non-finite values propagate, nothing is skipped
    /// as "sparse".
    ///
    /// The blocked kernel is chosen at run time: an AVX2 implementation
    /// (4 × 4 register tiles for complete 4-row tiles, a 4-lane streaming
    /// loop for the rows left over) when the CPU has AVX2, the portable
    /// one otherwise. Both apply each output's depth terms in the same
    /// order — in blocks of 128, groups of four summed left to right and
    /// then added to the output, the block's leftover terms one at a time —
    /// with separate multiplies and adds and no FMA, so the two give the
    /// same bits, and a row's bits do not depend on where in a batch it
    /// lands.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.matmul_columns(rhs, 0..rhs.cols, false)
    }

    /// Output columns `cols` of `self * rhs`, as a
    /// `self.rows() × cols.len()` matrix whose entries carry the same bits
    /// as the matching entries of [`Matrix::matmul`].
    ///
    /// It runs the kernels [`Matrix::matmul`] runs, chosen from the shape
    /// of the *whole* product (`self.cols() × rhs.cols()` per row), not
    /// from the width of `cols`, and it reads the columns in place from
    /// the row-major `rhs`; nothing is copied or packed.
    ///
    /// `rhs_finite` is the caller's promise that every entry of `rhs` is
    /// finite. With it, the blocked kernels skip each group of four depth
    /// terms whose entries in a row of `self` are all zero, so the `rhs`
    /// rows behind them are never read. The result is still bit-identical:
    /// an accumulator that starts at `+0.0` never becomes `-0.0`, and
    /// adding `±0.0` to it changes no bit (the argument is spelled out in
    /// the `gemm` module notes). It rests on the promise: with a `NaN` or
    /// `±inf` in `rhs`, pass `false`, and `0.0 * inf` propagates as IEEE
    /// says.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`
    /// and [`LinalgError::InvalidArgument`] when `cols` is not a range
    /// inside `0..rhs.cols()`.
    pub fn matmul_columns(
        &self,
        rhs: &Matrix,
        cols: std::ops::Range<usize>,
        rhs_finite: bool,
    ) -> Result<Matrix, LinalgError> {
        let width = cols.len();
        let data = crate::gemm::matmul_columns(self.operand(), rhs.operand(), cols, rhs_finite)?;
        Ok(Matrix {
            rows: self.rows,
            cols: width,
            data,
        })
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self * scalar`.
    pub fn scale(&self, scalar: f64) -> Matrix {
        let data = self.data.iter().map(|&a| a * scalar).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-column means; empty matrix yields an empty vector.
    pub fn column_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Extracts the sub-matrix consisting of the given rows (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Horizontally concatenates `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless row counts agree.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(rhs.row(i));
        }
        Ok(out)
    }

    /// Vertically concatenates `self` and `rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] unless column counts agree.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// Maximum absolute difference against another matrix of the same shape.
    ///
    /// Non-finite entries count: a position where both sides are NaN, or
    /// both are the same infinity, differs by 0; any other position with a
    /// non-finite difference (NaN against a number, `inf` against a
    /// number or against `-inf`) differs by `f64::INFINITY`, so a tolerance
    /// gate can never pass over a NaN on one side only.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| {
                if a == b || (a.is_nan() && b.is_nan()) {
                    0.0
                } else {
                    let d = (a - b).abs();
                    if d.is_nan() {
                        f64::INFINITY
                    } else {
                        d
                    }
                }
            })
            .fold(0.0, f64::max))
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidArgument(_)));
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::Empty
        ));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let i = Matrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_zero_lhs_does_not_mask_nonfinite_rhs() {
        // Regression: matmul used to skip a_ik == 0.0 entries, hiding
        // NaN/inf in the RHS behind sparse LHS rows (0.0 * NaN is NaN).
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![f64::NAN, f64::INFINITY], vec![1.0, 2.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(c[(0, 0)].is_nan());
        assert!(c[(0, 1)].is_nan(), "0*inf + 2*2 must be NaN, not 4");
        assert!(c[(1, 0)].is_nan());
        assert!(c[(1, 1)].is_nan());
    }

    #[test]
    fn matmul_large_routes_through_blocked_kernel() {
        // Big enough to cross the blocked-dispatch threshold; the result
        // must still match the naive reference.
        let a = Matrix::from_fn(40, 35, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(35, 45, |i, j| ((i * 5 + j * 2) % 13) as f64 - 6.0);
        let fast = a.matmul(&b).unwrap();
        let reference = crate::matmul_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&reference).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            LinalgError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = vec![5.0, 6.0];
        assert_eq!(a.matvec(&v).unwrap(), vec![17.0, 39.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) * 10.0 + j as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
    }

    #[test]
    fn add_sub_hadamard() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[2.0, 2.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 8.0]);
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn scale_and_map() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, -4.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
        let mut b = a.clone();
        b.map_in_place(|v| v + 1.0);
        assert_eq!(b.as_slice(), &[2.0, -1.0]);
    }

    #[test]
    fn column_means_and_column() {
        let a = Matrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0]]).unwrap();
        assert_eq!(a.column_means(), vec![2.0, 15.0]);
        assert_eq!(a.column(1), vec![10.0, 20.0]);
    }

    #[test]
    fn select_rows_orders_and_repeats() {
        let a = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]).unwrap();
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s.as_slice(), &[2.0, 0.0, 2.0]);
    }

    #[test]
    fn stack_operations() {
        let a = Matrix::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0], vec![4.0]]).unwrap();
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (2, 2));
        assert_eq!(h.row(0), &[1.0, 3.0]);
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (4, 1));
        assert_eq!(v.column(0), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vstack(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.1, 5.0]]).unwrap();
        assert!(!a.is_symmetric(1e-3));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-3));
    }

    #[test]
    fn frobenius_and_sum() {
        let a = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn iter_rows_yields_one_slice_per_row_even_without_columns() {
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.iter_rows().count(), 3);
        assert!(m.iter_rows().all(<[f64]>::is_empty));
        assert_eq!(Matrix::zeros(0, 4).iter_rows().count(), 0);
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows: Vec<&[f64]> = a.iter_rows().collect();
        assert_eq!(rows, [&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn max_abs_diff_basic() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![1.5, 1.0]]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 1.0);
    }

    #[test]
    fn max_abs_diff_counts_one_sided_non_finite_as_infinite() {
        let one = |v: f64| Matrix::from_rows(&[vec![v]]).unwrap();
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        assert_eq!(one(1.0).max_abs_diff(&one(nan)).unwrap(), inf);
        assert_eq!(one(nan).max_abs_diff(&one(1.0)).unwrap(), inf);
        assert_eq!(one(inf).max_abs_diff(&one(nan)).unwrap(), inf);
        assert_eq!(one(inf).max_abs_diff(&one(-inf)).unwrap(), inf);
        assert_eq!(one(inf).max_abs_diff(&one(1.0)).unwrap(), inf);
        // Matching non-finite entries agree.
        assert_eq!(one(nan).max_abs_diff(&one(nan)).unwrap(), 0.0);
        assert_eq!(one(-inf).max_abs_diff(&one(-inf)).unwrap(), 0.0);
        let a = Matrix::from_rows(&[vec![nan, 1.0, inf]]).unwrap();
        let b = Matrix::from_rows(&[vec![nan, 1.25, inf]]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.25);
    }
}
