//! The comparison models of Table II (paper §IV-B).
//!
//! - [`DeepRegression`] — the same-size network trained with mean squared
//!   error to regress coordinates directly,
//! - [`DeepRegression::predict_projected`] — *Deep Regression Projection*:
//!   the same predictions snapped to the nearest accessible map point,
//! - [`ManifoldRegression`] — Isomap or LLE embeddings of the input
//!   signals feeding a two-hidden-layer regression network,
//! - [`KnnFingerprint`] — classic weighted-kNN fingerprinting (the §II
//!   "online phase" matcher), included as a non-neural reference.

use crate::eval::position_error_summary;
use crate::NobleError;
use noble_datasets::{WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::{Matrix, Summary};
use noble_manifold::{Isomap, KdTree, Lle, Pca};
use noble_nn::{Activation, Mlp, MseLoss, Optimizer, TrainConfig, Trainer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration shared by the regression baselines.
#[derive(Debug, Clone)]
pub struct RegressionConfig {
    /// Hidden width of the two hidden layers (matched to NObLe's 128).
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for RegressionConfig {
    fn default() -> Self {
        RegressionConfig {
            hidden_dim: 128,
            epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 0xD06,
        }
    }
}

impl RegressionConfig {
    /// A reduced configuration for unit tests.
    pub fn small() -> Self {
        RegressionConfig {
            hidden_dim: 32,
            epochs: 25,
            batch_size: 32,
            learning_rate: 3e-3,
            ..RegressionConfig::default()
        }
    }
}

/// Coordinate standardization fitted on training positions.
#[derive(Debug, Clone)]
struct CoordScaler {
    center: Point,
    scale: f64,
}

impl CoordScaler {
    fn fit(positions: &[Point]) -> Self {
        let n = positions.len().max(1) as f64;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for p in positions {
            cx += p.x;
            cy += p.y;
        }
        let center = Point::new(cx / n, cy / n);
        let mut var = 0.0;
        for p in positions {
            var += p.squared_distance(center);
        }
        let scale = (var / n).sqrt().max(1e-9);
        CoordScaler { center, scale }
    }

    fn encode(&self, positions: &[Point]) -> Matrix {
        let mut m = Matrix::zeros(positions.len(), 2);
        for (i, p) in positions.iter().enumerate() {
            m[(i, 0)] = (p.x - self.center.x) / self.scale;
            m[(i, 1)] = (p.y - self.center.y) / self.scale;
        }
        m
    }

    fn decode_row(&self, row: &[f64]) -> Point {
        Point::new(
            row[0] * self.scale + self.center.x,
            row[1] * self.scale + self.center.y,
        )
    }
}

/// The paper's *Deep Regression* baseline: identical network capacity to
/// NObLe, trained with MSE to output coordinates.
#[derive(Debug, Clone)]
pub struct DeepRegression {
    mlp: Mlp,
    scaler: CoordScaler,
}

impl DeepRegression {
    /// Trains the baseline on a campaign's offline fingerprints.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty campaign; propagates
    /// training failures.
    pub fn train(campaign: &WifiCampaign, cfg: &RegressionConfig) -> Result<Self, NobleError> {
        if campaign.train.is_empty() {
            return Err(NobleError::InvalidData(
                "campaign has no training samples".into(),
            ));
        }
        let x = campaign.features(&campaign.train);
        let positions: Vec<Point> = campaign.train.iter().map(|s| s.position).collect();
        let scaler = CoordScaler::fit(&positions);
        let y = scaler.encode(&positions);
        let mut mlp = Mlp::builder(campaign.num_waps(), cfg.seed)
            .dense(cfg.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(cfg.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            optimizer: Optimizer::adam(cfg.learning_rate),
            lr_decay: 0.985,
            shuffle_seed: cfg.seed ^ 0x3C,
            early_stopping: None,
            detect_divergence: true,
        };
        Trainer::new(train_cfg).fit(&mut mlp, &x, &y, &MseLoss, None)?;
        Ok(DeepRegression { mlp, scaler })
    }

    /// Width of the fingerprint rows the network consumes.
    pub fn feature_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// Raw coordinate predictions.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    pub fn predict(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let out = self.mlp.predict(features)?;
        Ok((0..out.rows())
            .map(|i| self.scaler.decode_row(out.row(i)))
            .collect())
    }

    /// *Deep Regression Projection*: predictions snapped onto the map's
    /// accessible space (the paper's projection baseline after \[8\]).
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    pub fn predict_projected(
        &self,
        features: &Matrix,
        campaign: &WifiCampaign,
    ) -> Result<Vec<Point>, NobleError> {
        Ok(self
            .predict(features)?
            .into_iter()
            .map(|p| campaign.map.project(p))
            .collect())
    }

    /// Position-error summary on a labeled set, raw or projected.
    ///
    /// # Errors
    ///
    /// Propagates prediction failures; [`NobleError::InvalidData`] on an
    /// empty set.
    pub fn evaluate(
        &self,
        campaign: &WifiCampaign,
        samples: &[WifiSample],
        projected: bool,
    ) -> Result<Summary, NobleError> {
        let features = campaign.features(samples);
        let preds = if projected {
            self.predict_projected(&features, campaign)?
        } else {
            self.predict(&features)?
        };
        let truth: Vec<Point> = samples.iter().map(|s| s.position).collect();
        position_error_summary(&preds, &truth)
    }
}

/// Which manifold embedding feeds the regression network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifoldKind {
    /// Geodesic MDS (Isomap).
    Isomap,
    /// Locally linear embedding.
    Lle,
    /// Principal component analysis — the *linear* reference point; if the
    /// nonlinear embeddings cannot beat PCA, input-space neighborhoods
    /// carried no extra information (the paper's §III-A suspicion).
    Pca,
}

/// Configuration of the manifold-embedding regression baselines.
#[derive(Debug, Clone)]
pub struct ManifoldRegressionConfig {
    /// Embedding algorithm.
    pub kind: ManifoldKind,
    /// Embedding dimension (the paper tuned to 400 on UJIIndoorLoc; scale
    /// to the synthetic campaign).
    pub embedding_dim: usize,
    /// Neighborhood size for the kNN graph / local weights.
    pub k: usize,
    /// Landmark subsample used to fit the embedding (full Isomap on
    /// thousands of samples is cubic; landmarks are standard practice).
    pub landmarks: usize,
    /// Downstream regression network settings.
    pub regression: RegressionConfig,
}

impl Default for ManifoldRegressionConfig {
    fn default() -> Self {
        ManifoldRegressionConfig {
            kind: ManifoldKind::Isomap,
            embedding_dim: 32,
            k: 10,
            landmarks: 400,
            regression: RegressionConfig::default(),
        }
    }
}

impl ManifoldRegressionConfig {
    /// A reduced configuration for unit tests.
    pub fn small(kind: ManifoldKind) -> Self {
        ManifoldRegressionConfig {
            kind,
            embedding_dim: 8,
            k: 6,
            landmarks: 80,
            regression: RegressionConfig::small(),
        }
    }
}

enum FittedEmbedding {
    Isomap(Isomap),
    Lle(Lle),
    Pca(Pca),
}

impl std::fmt::Debug for FittedEmbedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FittedEmbedding::Isomap(_) => write!(f, "FittedEmbedding::Isomap"),
            FittedEmbedding::Lle(_) => write!(f, "FittedEmbedding::Lle"),
            FittedEmbedding::Pca(_) => write!(f, "FittedEmbedding::Pca"),
        }
    }
}

/// The paper's *Manifold Embedding* baselines: fit Isomap or LLE on the
/// input signals, then regress coordinates from the embedding with a
/// two-hidden-layer network.
#[derive(Debug)]
pub struct ManifoldRegression {
    embedding: FittedEmbedding,
    mlp: Mlp,
    scaler: CoordScaler,
    input_dim: usize,
}

impl ManifoldRegression {
    /// Trains the baseline.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty campaign; propagates
    /// manifold and training failures.
    pub fn train(
        campaign: &WifiCampaign,
        cfg: &ManifoldRegressionConfig,
    ) -> Result<Self, NobleError> {
        if campaign.train.is_empty() {
            return Err(NobleError::InvalidData(
                "campaign has no training samples".into(),
            ));
        }
        let x = campaign.features(&campaign.train);
        // Landmark subsample for the embedding fit.
        let mut indices: Vec<usize> = (0..x.rows()).collect();
        let mut rng = StdRng::seed_from_u64(cfg.regression.seed ^ 0x1507);
        indices.shuffle(&mut rng);
        indices.truncate(cfg.landmarks.min(x.rows()));
        let landmarks = x.select_rows(&indices);

        let embedding = match cfg.kind {
            ManifoldKind::Isomap => FittedEmbedding::Isomap(Isomap::fit(
                &landmarks,
                cfg.k,
                cfg.embedding_dim,
                cfg.regression.seed,
            )?),
            ManifoldKind::Lle => FittedEmbedding::Lle(Lle::fit(
                &landmarks,
                cfg.k,
                cfg.embedding_dim,
                1e-3,
                cfg.regression.seed,
            )?),
            ManifoldKind::Pca => FittedEmbedding::Pca(Pca::fit(
                &landmarks,
                cfg.embedding_dim.min(landmarks.cols()),
                cfg.regression.seed,
            )?),
        };
        let embed = |features: &Matrix| -> Matrix {
            match &embedding {
                FittedEmbedding::Isomap(m) => m.transform(features),
                FittedEmbedding::Lle(m) => m.transform(features),
                FittedEmbedding::Pca(m) => m.transform(features),
            }
        };

        let x_embedded = embed(&x);
        let positions: Vec<Point> = campaign.train.iter().map(|s| s.position).collect();
        let scaler = CoordScaler::fit(&positions);
        let y = scaler.encode(&positions);

        let mut mlp = Mlp::builder(x_embedded.cols(), cfg.regression.seed)
            .dense(cfg.regression.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(cfg.regression.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        let train_cfg = TrainConfig {
            epochs: cfg.regression.epochs,
            batch_size: cfg.regression.batch_size,
            optimizer: Optimizer::adam(cfg.regression.learning_rate),
            lr_decay: 0.985,
            shuffle_seed: cfg.regression.seed ^ 0x91,
            early_stopping: None,
            detect_divergence: true,
        };
        Trainer::new(train_cfg).fit(&mut mlp, &x_embedded, &y, &MseLoss, None)?;
        Ok(ManifoldRegression {
            embedding,
            mlp,
            scaler,
            input_dim: x.cols(),
        })
    }

    /// Width of the raw fingerprint rows the embedding consumes.
    pub fn feature_dim(&self) -> usize {
        self.input_dim
    }

    /// Predicts coordinates for normalized fingerprints.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    pub fn predict(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let embedded = match &self.embedding {
            FittedEmbedding::Isomap(m) => m.transform(features),
            FittedEmbedding::Lle(m) => m.transform(features),
            FittedEmbedding::Pca(m) => m.transform(features),
        };
        let out = self.mlp.predict(&embedded)?;
        Ok((0..out.rows())
            .map(|i| self.scaler.decode_row(out.row(i)))
            .collect())
    }

    /// Position-error summary on a labeled set.
    ///
    /// # Errors
    ///
    /// Propagates prediction failures.
    pub fn evaluate(
        &self,
        campaign: &WifiCampaign,
        samples: &[WifiSample],
    ) -> Result<Summary, NobleError> {
        let features = campaign.features(samples);
        let preds = self.predict(&features)?;
        let truth: Vec<Point> = samples.iter().map(|s| s.position).collect();
        position_error_summary(&preds, &truth)
    }
}

/// Classic weighted-kNN fingerprinting over the radio map (paper §II's
/// online-phase matcher). Non-neural reference point.
#[derive(Debug)]
pub struct KnnFingerprint {
    pub(super) tree: KdTree,
    pub(super) positions: Vec<Point>,
    pub(super) buildings: Vec<usize>,
    pub(super) floors: Vec<usize>,
    pub(super) k: usize,
    pub(super) feature_dim: usize,
}

impl KnnFingerprint {
    /// Builds the radio map from a campaign's offline fingerprints.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty campaign or zero `k`.
    pub fn fit(campaign: &WifiCampaign, k: usize) -> Result<Self, NobleError> {
        if campaign.train.is_empty() {
            return Err(NobleError::InvalidData(
                "campaign has no training samples".into(),
            ));
        }
        if k == 0 {
            return Err(NobleError::InvalidConfig("k must be positive".into()));
        }
        let x = campaign.features(&campaign.train);
        Ok(KnnFingerprint {
            tree: KdTree::build(&x),
            positions: campaign.train.iter().map(|s| s.position).collect(),
            buildings: campaign.train.iter().map(|s| s.building).collect(),
            floors: campaign.train.iter().map(|s| s.floor).collect(),
            k,
            feature_dim: campaign.num_waps(),
        })
    }

    /// Width of the fingerprint rows the radio map was built over.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Predicts `(position, building, floor)` for one normalized
    /// fingerprint by inverse-distance-weighted voting over the `k`
    /// nearest radio-map entries.
    pub fn predict_one(&self, features: &[f64]) -> (Point, usize, usize) {
        let hits = self.tree.knn(features, self.k);
        let mut wx = 0.0;
        let mut wy = 0.0;
        let mut wsum = 0.0;
        let mut b_votes = std::collections::BTreeMap::new();
        let mut f_votes = std::collections::BTreeMap::new();
        for &(idx, d) in &hits {
            let w = 1.0 / (d + 1e-6);
            wx += w * self.positions[idx].x;
            wy += w * self.positions[idx].y;
            wsum += w;
            *b_votes.entry(self.buildings[idx]).or_insert(0.0) += w;
            *f_votes.entry(self.floors[idx]).or_insert(0.0) += w;
        }
        let position = Point::new(wx / wsum, wy / wsum);
        let building = best_vote(&b_votes);
        let floor = best_vote(&f_votes);
        (position, building, floor)
    }

    /// Position-error summary on a labeled set.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on an empty set.
    pub fn evaluate(
        &self,
        campaign: &WifiCampaign,
        samples: &[WifiSample],
    ) -> Result<Summary, NobleError> {
        let features = campaign.features(samples);
        let preds: Vec<Point> = (0..features.rows())
            .map(|i| self.predict_one(features.row(i)).0)
            .collect();
        let truth: Vec<Point> = samples.iter().map(|s| s.position).collect();
        position_error_summary(&preds, &truth)
    }
}

/// The label with the largest vote weight. Iterating the `BTreeMap` in
/// key order makes ties land on the smallest label deterministically —
/// with a `HashMap` here, the winner of an exact tie (common on the
/// building vote when `k` splits evenly across a boundary) changed from
/// run to run with the hasher seed. `total_cmp` keeps the comparison
/// panic-free.
fn best_vote(votes: &std::collections::BTreeMap<usize, f64>) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (&label, &weight) in votes {
        let better = match best {
            None => true,
            Some((_, w)) => weight.total_cmp(&w) == std::cmp::Ordering::Greater,
        };
        if better {
            best = Some((label, weight));
        }
    }
    best.map(|(label, _)| label).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::StructureReport;
    use noble_datasets::{uji_campaign, UjiConfig};

    fn quick_campaign() -> WifiCampaign {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        uji_campaign(&cfg).unwrap()
    }

    #[test]
    fn deep_regression_learns_coarse_location() {
        let campaign = quick_campaign();
        let model = DeepRegression::train(&campaign, &RegressionConfig::small()).unwrap();
        let s = model.evaluate(&campaign, &campaign.test, false).unwrap();
        // Campus spans ~350 m; a trained regressor should do far better
        // than the ~140 m scale of random guessing.
        assert!(s.mean < 70.0, "mean {}", s.mean);
    }

    #[test]
    fn projection_never_hurts_structure() {
        let campaign = quick_campaign();
        let model = DeepRegression::train(&campaign, &RegressionConfig::small()).unwrap();
        let features = campaign.features(&campaign.test);
        let raw = model.predict(&features).unwrap();
        let projected = model.predict_projected(&features, &campaign).unwrap();
        let raw_structure = StructureReport::compute(&raw, &campaign.map).unwrap();
        let proj_structure = StructureReport::compute(&projected, &campaign.map).unwrap();
        assert!(proj_structure.on_map_fraction >= raw_structure.on_map_fraction);
        assert!(proj_structure.on_map_fraction > 0.99);
    }

    #[test]
    fn best_vote_breaks_exact_ties_on_the_smallest_label() {
        // Regression: with HashMap voting, an exact weight tie was won by
        // whichever entry the hasher happened to iterate first, so the
        // kNN building/floor prediction changed from run to run. The
        // BTreeMap walk must settle ties on the smallest label, every run.
        let mut votes = std::collections::BTreeMap::new();
        votes.insert(9, 0.5);
        votes.insert(3, 0.5);
        votes.insert(6, 0.5);
        assert_eq!(best_vote(&votes), 3);
        votes.insert(6, 0.75);
        assert_eq!(best_vote(&votes), 6);
        assert_eq!(best_vote(&std::collections::BTreeMap::new()), 0);
    }

    #[test]
    fn knn_fingerprint_accuracy() {
        let campaign = quick_campaign();
        let model = KnnFingerprint::fit(&campaign, 5).unwrap();
        let s = model.evaluate(&campaign, &campaign.test).unwrap();
        // kNN on a dense radio map is a strong baseline.
        assert!(s.mean < 40.0, "mean {}", s.mean);
        assert!(KnnFingerprint::fit(&campaign, 0).is_err());
    }

    #[test]
    fn knn_predicts_labels_too() {
        let campaign = quick_campaign();
        let model = KnnFingerprint::fit(&campaign, 3).unwrap();
        let features = campaign.features(&campaign.test);
        let mut hits = 0;
        for (i, s) in campaign.test.iter().enumerate() {
            let (_, b, _) = model.predict_one(features.row(i));
            if b == s.building {
                hits += 1;
            }
        }
        assert!(
            hits as f64 / campaign.test.len() as f64 > 0.8,
            "building votes {hits}/{}",
            campaign.test.len()
        );
    }

    #[test]
    fn manifold_regression_both_kinds_run() {
        let campaign = quick_campaign();
        for kind in [ManifoldKind::Isomap, ManifoldKind::Lle, ManifoldKind::Pca] {
            let model =
                ManifoldRegression::train(&campaign, &ManifoldRegressionConfig::small(kind))
                    .unwrap();
            let s = model.evaluate(&campaign, &campaign.test).unwrap();
            assert!(s.mean.is_finite(), "{kind:?} produced non-finite error");
            assert!(s.mean < 150.0, "{kind:?} mean {}", s.mean);
        }
    }

    #[test]
    fn baselines_serve_through_localizer_trait() {
        use crate::Localizer;
        let campaign = quick_campaign();
        let features = campaign.features(&campaign.test[..6.min(campaign.test.len())]);

        let deep = DeepRegression::train(&campaign, &RegressionConfig::small()).unwrap();
        let direct = deep.predict(&features).unwrap();
        let served = Localizer::localize_batch(&deep, &features).unwrap();
        assert_eq!(direct, served);
        assert_eq!(Localizer::info(&deep).model, "deep-regression");
        assert_eq!(Localizer::info(&deep).class_count, 0);

        let knn = KnnFingerprint::fit(&campaign, 3).unwrap();
        let served = Localizer::localize_batch(&knn, &features).unwrap();
        for (i, p) in served.iter().enumerate() {
            assert_eq!(*p, knn.predict_one(features.row(i)).0);
        }
        assert_eq!(Localizer::info(&knn).feature_dim, campaign.num_waps());

        let bad = Matrix::zeros(2, campaign.num_waps() + 3);
        assert!(Localizer::localize_batch(&deep, &bad).is_err());
        assert!(Localizer::localize_batch(&knn, &bad).is_err());
    }

    #[test]
    fn baselines_reject_empty_campaign() {
        let campaign = quick_campaign();
        let mut empty = campaign.clone();
        empty.train.clear();
        assert!(DeepRegression::train(&empty, &RegressionConfig::small()).is_err());
        assert!(KnnFingerprint::fit(&empty, 3).is_err());
        assert!(ManifoldRegression::train(
            &empty,
            &ManifoldRegressionConfig::small(ManifoldKind::Isomap)
        )
        .is_err());
    }
}
