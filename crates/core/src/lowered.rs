//! Single-precision serving twins of the NObLe models.
//!
//! [`LoweredWifi`] and [`LoweredImu`] wrap [`noble_nn::LoweredMlp`]
//! lowerings of a trained model's networks and share the *exact* f64
//! decode path (class argmax → quantizer centroid) with their
//! progenitors — only the network arithmetic is reduced. They are
//! produced by [`crate::Localizer::try_lower`] once, at hydrate/train
//! time, and then serve immutably.
//!
//! Two contracts matter here:
//!
//! - **Accuracy is gated, not assumed.** A lowered twin tracks its f64
//!   progenitor within the tier's tolerance (≤ 1e-4 position error).
//!   The precision-parity suite, the accuracy-delta check in
//!   `exp_throughput` and `noble-serve`'s `serving_parity` suite pin
//!   this.
//! - **Persistence never loses precision.** [`crate::Localizer::try_snapshot`]
//!   on a lowered twin returns the progenitor's *exact f64 snapshot*
//!   captured at lowering time, so catalog eviction write-through and
//!   store round trips always carry full-precision state; re-lowering
//!   after hydrate reproduces the identical twin.
//!
//! This module is carved out of the `float-determinism` lint scope by
//! `noble-lint.toml` (path-scoped sanction for the lowered tier).

use crate::imu::SEGMENT_INPUT_DIM;
use crate::localizer::check_feature_dim;
use crate::{Localizer, LocalizerInfo, ModelSnapshot, NobleError};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_nn::{one_hot, Dense, LoweredMlp, OutputLayout};
use noble_quantize::GridQuantizer;

/// Model label of a lowered WiFi twin (the tier is part of the label so
/// serving stats distinguish exact from lowered shards).
const WIFI_LABEL: &str = "wifi-noble-f32";

/// Model label of a lowered IMU twin.
const IMU_LABEL: &str = "imu-noble-f32";

/// A single-precision serving twin of [`crate::wifi::WifiNoble`]:
/// lowered classifier network, exact f64 head/quantizer decode.
#[derive(Debug, Clone)]
pub struct LoweredWifi {
    mlp: LoweredMlp,
    layout: OutputLayout,
    fine: GridQuantizer,
    head_fine: usize,
    feature_dim: usize,
    exact_snapshot: ModelSnapshot,
}

impl LoweredWifi {
    pub(crate) fn new(
        mlp: LoweredMlp,
        layout: OutputLayout,
        fine: GridQuantizer,
        head_fine: usize,
        feature_dim: usize,
        exact_snapshot: ModelSnapshot,
    ) -> Self {
        LoweredWifi {
            mlp,
            layout,
            fine,
            head_fine,
            feature_dim,
            exact_snapshot,
        }
    }
}

impl Localizer for LoweredWifi {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: WIFI_LABEL,
            site: "default".into(),
            feature_dim: self.feature_dim,
            class_count: self.fine.num_classes(),
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim(WIFI_LABEL, self.feature_dim, features)?;
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        // Lowered logits, then the identical decode the f64 path runs:
        // per-head argmax (softmax is monotone) → fine centroid.
        let logits = self.mlp.predict_batch(features)?;
        let fine_classes = self.layout.predict_classes(&logits, self.head_fine)?;
        let mut out = Vec::with_capacity(features.rows());
        for class in fine_classes {
            out.push(self.fine.decode(class)?);
        }
        Ok(out)
    }

    /// The progenitor's exact f64 snapshot: persistence (catalog
    /// write-through, store saves) never narrows model state.
    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        Some(self.exact_snapshot.clone())
    }
}

/// A single-precision serving twin of [`crate::imu::ImuNoble`]: exact
/// f64 projection (a single tiny shared dense layer) feeding lowered
/// displacement and location networks, exact f64 centroid decode.
#[derive(Debug, Clone)]
pub struct LoweredImu {
    projection: Dense,
    displacement: LoweredMlp,
    location: LoweredMlp,
    quantizer: GridQuantizer,
    max_segments: usize,
    exact_snapshot: ModelSnapshot,
}

impl LoweredImu {
    pub(crate) fn new(
        projection: Dense,
        displacement: LoweredMlp,
        location: LoweredMlp,
        quantizer: GridQuantizer,
        max_segments: usize,
        exact_snapshot: ModelSnapshot,
    ) -> Self {
        LoweredImu {
            projection,
            displacement,
            location,
            quantizer,
            max_segments,
            exact_snapshot,
        }
    }

    fn path_feature_dim(&self) -> usize {
        self.max_segments * SEGMENT_INPUT_DIM + 2
    }
}

impl Localizer for LoweredImu {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: IMU_LABEL,
            site: "default".into(),
            feature_dim: self.path_feature_dim(),
            class_count: self.quantizer.num_classes(),
        }
    }

    /// Localizes rows in the [`crate::imu::ImuNoble::path_features`]
    /// layout — the same unflattening the exact path runs, with the two
    /// heavy networks lowered.
    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim(IMU_LABEL, self.path_feature_dim(), features)?;
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let l = self.max_segments;
        let n = features.rows();
        let mut stacked = Matrix::zeros(n * l, SEGMENT_INPUT_DIM);
        let mut start_labels = Vec::with_capacity(n);
        for i in 0..n {
            let row = features.row(i);
            for si in 0..l {
                stacked
                    .row_mut(i * l + si)
                    .copy_from_slice(&row[si * SEGMENT_INPUT_DIM..(si + 1) * SEGMENT_INPUT_DIM]);
            }
            let start = Point::new(row[l * SEGMENT_INPUT_DIM], row[l * SEGMENT_INPUT_DIM + 1]);
            start_labels.push(self.quantizer.quantize_nearest(start));
        }
        // Shared projection in exact f64 (tiny: one dense layer over
        // short segment rows), then the lowered tail.
        let projected = self.projection.predict(&stacked)?;
        let p_dim = self.projection.out_dim();
        let mut concat = Matrix::zeros(n, l * p_dim);
        for pi in 0..n {
            for si in 0..l {
                let src = projected.row(pi * l + si);
                concat.row_mut(pi)[si * p_dim..(si + 1) * p_dim].copy_from_slice(src);
            }
        }
        let displacement = self.displacement.predict_batch(&concat)?;
        let onehots = one_hot(&start_labels, self.quantizer.num_classes());
        let loc_in = displacement.hstack(&onehots)?;
        let logits = self.location.predict_batch(&loc_in)?;
        // Argmax decode with centroid memoization, as the exact path.
        let mut centroids: Vec<Option<Point>> = vec![None; self.quantizer.num_classes()];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let class = noble_linalg::argmax(logits.row(i)).unwrap_or(0);
            let point = match centroids[class] {
                Some(p) => p,
                None => {
                    let p = self.quantizer.decode(class)?;
                    centroids[class] = Some(p);
                    p
                }
            };
            out.push(point);
        }
        Ok(out)
    }

    /// The progenitor's exact f64 snapshot (see [`LoweredWifi`]).
    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        Some(self.exact_snapshot.clone())
    }
}
