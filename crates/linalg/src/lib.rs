//! Dense linear algebra substrate for the NObLe localization suite.
//!
//! Everything here is written from scratch on top of `std`: a row-major
//! [`Matrix`] type, vector kernels, LU and Cholesky factorizations,
//! symmetric eigensolvers (cyclic Jacobi and power iteration with
//! deflation), double centering for multidimensional scaling, and the
//! summary statistics used throughout the evaluation harness.
//!
//! The crate exists because the NObLe reproduction needs linear algebra in
//! three places: the neural-network substrate (`noble-nn`), the manifold
//! learning baselines (`noble-manifold`, which needs eigendecompositions for
//! MDS/Isomap/LLE), and the evaluation metrics. All exact routines operate
//! on `f64`. An f32 gemm family ([`MatrixF32`], [`matmul_f32_columns`])
//! scores the certified screen of a network's head, which only rules
//! classes out and never changes an answer; it keeps the f64 kernels'
//! thread/batch-shape bit-stability contract.
//!
//! # Example
//!
//! ```
//! use noble_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
//! let b = a.matmul(&a.transpose()).unwrap();
//! assert_eq!(b.shape(), (2, 2));
//! ```

mod centering;
mod eigen;
mod error;
mod gemm;
mod lowp;
mod matrix;
mod qr;
mod solve;
mod stats;
mod tanh;
pub mod threads;
mod vector;

pub use centering::{double_center, gram_from_distances};
pub use eigen::{
    jacobi_eigen, power_iteration, smallest_eigenpairs, top_eigenpairs, top_eigenpairs_lenient,
    EigenPair, EigenSort,
};
pub use error::LinalgError;
pub use gemm::{matmul_blocked, matmul_naive, matmul_parallel, matmul_transposed};
pub use lowp::{
    matmul_f32, matmul_f32_blocked, matmul_f32_columns, matmul_f32_naive, matmul_f32_parallel,
    MatrixF32,
};
pub use matrix::Matrix;
pub use qr::{least_squares, qr_decompose, QrFactors};
pub use solve::{cholesky, lu_decompose, lu_solve, solve, solve_cholesky, LuFactors};
pub use stats::{argmax, argmin, median, percentile, std_dev, Summary};
pub use tanh::{tanh, tanh_in_place};
pub use threads::{
    as_worker, num_threads, parallel_chunks_mut, parallel_map_ranges, set_num_threads,
};
pub use vector::{
    add_assign, axpy, dot, euclidean_distance, linspace, mean, norm, normalize_in_place,
    scale_in_place, squared_distance, sub,
};
