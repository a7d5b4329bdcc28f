//! The model-agnostic serving interface.
//!
//! Every localization model in the suite — the paper's [`crate::wifi::WifiNoble`]
//! classifier, the [`crate::imu::ImuNoble`] tracker, and the Table II
//! regression baselines — answers the same question: *features in,
//! positions out*. [`Localizer`] captures exactly that contract so the
//! serving layer (`noble-serve`) can shard, route and micro-batch requests
//! without knowing which architecture sits behind a shard.
//!
//! Implementations promise **batch-shape invariance**: row `i` of
//! [`Localizer::localize_batch`] depends only on row `i` of the input.
//! The substrate guarantees it — matmul kernel class is chosen per row,
//! batch-norm inference uses running statistics, decodes are per-row — so
//! a micro-batching server returns bit-identical results to per-request
//! calls no matter how requests coalesce.

use crate::NobleError;
use noble_geo::Point;
use noble_linalg::Matrix;

/// Static metadata describing one localizer: which model it is, which
/// site (building/floor shard) it serves, and its input/output shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalizerInfo {
    /// Model architecture label (e.g. `"wifi-noble"`).
    pub model: &'static str,
    /// Site identifier. Models train site-oblivious, so the default is
    /// `"default"`; the serving registry re-labels per shard via
    /// [`LocalizerInfo::with_site`].
    pub site: String,
    /// Expected feature-row width of [`Localizer::localize_batch`].
    pub feature_dim: usize,
    /// Number of quantized neighborhood classes the model decodes over;
    /// `0` for pure regressors (no quantized output space).
    pub class_count: usize,
}

impl LocalizerInfo {
    /// Relabels the site identifier (used by the sharded registry).
    #[must_use]
    pub fn with_site(mut self, site: impl Into<String>) -> Self {
        self.site = site.into();
        self
    }
}

/// A trained model that maps feature rows to planar positions.
///
/// Inference is a pure read of the trained model, so every method takes
/// `&self`, and `Send + Sync` lets the serving layer share one model
/// between threads behind an `Arc`: a refresh swaps the `Arc` while a
/// worker's batch still reads the generation it started with.
pub trait Localizer: Send + Sync {
    /// Model/site/shape metadata.
    fn info(&self) -> LocalizerInfo;

    /// Localizes every row of `features`; result `i` corresponds to row
    /// `i` and is independent of the other rows (batch-shape invariance).
    ///
    /// # Errors
    ///
    /// Implementations return [`NobleError::InvalidData`] when the row
    /// width differs from [`LocalizerInfo::feature_dim`], and propagate
    /// model failures.
    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError>;

    /// Convenience wrapper: stacks `rows` into a matrix and calls
    /// [`Localizer::localize_batch`].
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on ragged rows; otherwise as
    /// [`Localizer::localize_batch`].
    fn localize_rows(&self, rows: &[Vec<f64>]) -> Result<Vec<Point>, NobleError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let features =
            Matrix::from_rows(rows).map_err(|e| NobleError::InvalidData(e.to_string()))?;
        self.localize_batch(&features)
    }

    /// Dynamic probe of the snapshot capability: `Some` when the model
    /// implements [`crate::SnapshotLocalizer`] (serialization +
    /// bit-identical [`crate::hydrate`]), `None` for research-only models
    /// that only live in memory. The model-lifecycle layer (stores,
    /// catalogs) uses this to decide whether a resident model can be
    /// safely evicted and later reloaded.
    fn try_snapshot(&self) -> Option<crate::ModelSnapshot> {
        None
    }
}

impl<L: Localizer + ?Sized> Localizer for Box<L> {
    fn info(&self) -> LocalizerInfo {
        (**self).info()
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        (**self).localize_batch(features)
    }

    fn localize_rows(&self, rows: &[Vec<f64>]) -> Result<Vec<Point>, NobleError> {
        (**self).localize_rows(rows)
    }

    fn try_snapshot(&self) -> Option<crate::ModelSnapshot> {
        (**self).try_snapshot()
    }
}

/// Checks a feature matrix against the width a localizer expects.
pub(crate) fn check_feature_dim(
    model: &'static str,
    expected: usize,
    features: &Matrix,
) -> Result<(), NobleError> {
    if features.cols() != expected {
        return Err(NobleError::InvalidData(format!(
            "{model}: feature rows have width {}, model expects {expected}",
            features.cols()
        )));
    }
    Ok(())
}
