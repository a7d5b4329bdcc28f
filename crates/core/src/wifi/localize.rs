//! [`Localizer`] implementations for the WiFi models: NObLe itself plus
//! the Table II baselines. These are what the sharded serving registry
//! routes batches into.

use super::baselines::{DeepRegression, KnnFingerprint, ManifoldRegression};
use super::model::WifiNoble;
use super::{KNN_FINGERPRINT_KIND, WIFI_NOBLE_KIND};
use crate::localizer::{check_feature_dim, Localizer, LocalizerInfo};
use crate::{ModelSnapshot, NobleError, SnapshotLocalizer};
use noble_geo::Point;
use noble_linalg::Matrix;

impl Localizer for WifiNoble {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: WIFI_NOBLE_KIND,
            site: "default".into(),
            feature_dim: self.feature_dim(),
            class_count: self.class_count(),
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim(WIFI_NOBLE_KIND, self.feature_dim(), features)?;
        self.fine_positions(features)
    }

    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        Some(SnapshotLocalizer::snapshot(self))
    }

    fn try_lower(&self, precision: crate::InferencePrecision) -> Option<Box<dyn Localizer>> {
        let lowered = noble_nn::LoweredMlp::lower(&self.mlp, precision).ok()?;
        Some(Box::new(crate::LoweredWifi::new(
            lowered,
            self.layout.clone(),
            self.fine.clone(),
            self.head_fine,
            self.feature_dim(),
            SnapshotLocalizer::snapshot(self),
        )))
    }
}

impl Localizer for DeepRegression {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "deep-regression",
            site: "default".into(),
            feature_dim: self.feature_dim(),
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim("deep-regression", self.feature_dim(), features)?;
        self.predict(features)
    }
}

impl Localizer for ManifoldRegression {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "manifold-regression",
            site: "default".into(),
            feature_dim: self.feature_dim(),
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim("manifold-regression", self.feature_dim(), features)?;
        self.predict(features)
    }
}

impl Localizer for KnnFingerprint {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: KNN_FINGERPRINT_KIND,
            site: "default".into(),
            feature_dim: self.feature_dim(),
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        check_feature_dim(KNN_FINGERPRINT_KIND, self.feature_dim(), features)?;
        Ok((0..features.rows())
            .map(|i| self.predict_one(features.row(i)).0)
            .collect())
    }

    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        Some(SnapshotLocalizer::snapshot(self))
    }
}
