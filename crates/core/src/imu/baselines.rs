//! The comparison models of Table III (paper §V-C).
//!
//! - [`ImuDeepRegression`] — the same inputs as NObLe but trained with MSE
//!   to regress the end coordinates directly,
//! - [`DeadReckoning`] — classical strapdown integration (no learning):
//!   start position plus the sum of per-segment dead-reckoned
//!   displacements; its error accumulates with path length,
//! - [`MapAssistedDeadReckoning`] — dead reckoning with the position
//!   re-projected onto the walkway after every segment, standing in for
//!   the hand-crafted map-heuristic system the paper cites as \[8\].

use crate::eval::position_error_summary;
use crate::imu::SEGMENT_INPUT_DIM;
use crate::NobleError;
use noble_datasets::{ImuDataset, ImuPathSample, SEGMENT_FEATURE_DIM};
use noble_geo::Point;
use noble_linalg::{Matrix, Summary};
use noble_nn::{Activation, Mlp, MseLoss, Optimizer, TrainConfig, Trainer};

/// Configuration of the IMU deep-regression baseline.
#[derive(Debug, Clone)]
pub struct ImuRegressionConfig {
    /// Hidden width of the two hidden layers.
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

impl Default for ImuRegressionConfig {
    fn default() -> Self {
        ImuRegressionConfig {
            hidden_dim: 128,
            epochs: 40,
            batch_size: 64,
            learning_rate: 1e-3,
            seed: 0xDA7A,
        }
    }
}

impl ImuRegressionConfig {
    /// A reduced configuration for unit tests.
    pub fn small() -> Self {
        ImuRegressionConfig {
            hidden_dim: 32,
            epochs: 25,
            batch_size: 32,
            learning_rate: 3e-3,
            ..ImuRegressionConfig::default()
        }
    }
}

/// Deep regression on flattened path inputs: the padded segment features,
/// trained with MSE on end coordinates.
///
/// Deliberately *not* given the start position: the paper's Fig. 5(c)
/// shows its regression baseline scattering predictions across the whole
/// space — the behaviour of a model that must infer absolute position from
/// relative motion alone — and only NObLe's location network is described
/// as receiving the starting class (§V-B). Giving regression the start
/// anchor collapses the paper's 10.41 m gap to ~4 m.
#[derive(Debug, Clone)]
pub struct ImuDeepRegression {
    mlp: Mlp,
    max_segments: usize,
    center: Point,
    scale: f64,
}

impl ImuDeepRegression {
    /// Trains the baseline.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty dataset; propagates
    /// training failures.
    pub fn train(dataset: &ImuDataset, cfg: &ImuRegressionConfig) -> Result<Self, NobleError> {
        if dataset.train.is_empty() {
            return Err(NobleError::InvalidData(
                "dataset has no training paths".into(),
            ));
        }
        // Coordinate scaler over end positions.
        let n = dataset.train.len() as f64;
        let mut cx = 0.0;
        let mut cy = 0.0;
        for p in &dataset.train {
            cx += p.end_position.x;
            cy += p.end_position.y;
        }
        let center = Point::new(cx / n, cy / n);
        let mut var = 0.0;
        for p in &dataset.train {
            var += p.end_position.squared_distance(center);
        }
        let scale = (var / n).sqrt().max(1e-9);

        let max_segments = dataset.max_segments;
        let in_dim = max_segments * SEGMENT_INPUT_DIM;
        let mut model = ImuDeepRegression {
            mlp: Mlp::builder(in_dim, cfg.seed)
                .dense(cfg.hidden_dim)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(cfg.hidden_dim)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(2)
                .build(),
            max_segments,
            center,
            scale,
        };

        let refs: Vec<&ImuPathSample> = dataset.train.iter().collect();
        let x = model.inputs(&refs);
        let mut y = Matrix::zeros(dataset.train.len(), 2);
        for (i, p) in dataset.train.iter().enumerate() {
            y[(i, 0)] = (p.end_position.x - center.x) / scale;
            y[(i, 1)] = (p.end_position.y - center.y) / scale;
        }
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            optimizer: Optimizer::adam(cfg.learning_rate),
            lr_decay: 0.985,
            shuffle_seed: cfg.seed ^ 0x5A,
            early_stopping: None,
            detect_divergence: true,
        };
        Trainer::new(train_cfg).fit(&mut model.mlp, &x, &y, &MseLoss, None)?;
        Ok(model)
    }

    /// Flattened network inputs of a path batch (segments only; see the
    /// type-level docs for why the start position is withheld).
    fn inputs(&self, paths: &[&ImuPathSample]) -> Matrix {
        let l = self.max_segments;
        let mut m = Matrix::zeros(paths.len(), l * SEGMENT_INPUT_DIM);
        for (i, path) in paths.iter().enumerate() {
            let row = m.row_mut(i);
            for (si, seg) in path.segments.iter().take(l).enumerate() {
                let off = si * SEGMENT_INPUT_DIM;
                row[off..off + SEGMENT_FEATURE_DIM].copy_from_slice(seg.features());
                row[off + SEGMENT_FEATURE_DIM] = 1.0;
            }
        }
        m
    }

    /// Predicts end positions.
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    pub fn predict(&mut self, paths: &[&ImuPathSample]) -> Result<Vec<Point>, NobleError> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let x = self.inputs(paths);
        let out = self.mlp.predict(&x)?;
        Ok((0..out.rows())
            .map(|i| {
                Point::new(
                    out[(i, 0)] * self.scale + self.center.x,
                    out[(i, 1)] * self.scale + self.center.y,
                )
            })
            .collect())
    }

    /// Position-error summary on a path set.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on an empty set.
    pub fn evaluate(&mut self, paths: &[ImuPathSample]) -> Result<Summary, NobleError> {
        let refs: Vec<&ImuPathSample> = paths.iter().collect();
        let preds = self.predict(&refs)?;
        let truth: Vec<Point> = paths.iter().map(|p| p.end_position).collect();
        position_error_summary(&preds, &truth)
    }
}

/// Classical dead reckoning: no learning, pure integration.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeadReckoning;

impl DeadReckoning {
    /// Predicted end position of one path.
    pub fn predict_one(path: &ImuPathSample) -> Point {
        path.dead_reckoned_end()
    }

    /// Position-error summary on a path set.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on an empty set.
    pub fn evaluate(paths: &[ImuPathSample]) -> Result<Summary, NobleError> {
        let preds: Vec<Point> = paths.iter().map(Self::predict_one).collect();
        let truth: Vec<Point> = paths.iter().map(|p| p.end_position).collect();
        position_error_summary(&preds, &truth)
    }
}

/// Dead reckoning corrected by the map after every segment: the cumulative
/// position is projected back onto the walkway band, emulating the
/// turn/wall-snap heuristics of map-assisted trackers (the paper's \[8\]
/// and LocMe \[19\]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MapAssistedDeadReckoning;

impl MapAssistedDeadReckoning {
    /// Predicted end position of one path.
    pub fn predict_one(dataset: &ImuDataset, path: &ImuPathSample) -> Point {
        let mut position = path.start_position;
        for seg in &path.segments {
            position = position + seg.dead_reckoned_displacement();
            position = dataset.walkway.project(position);
        }
        position
    }

    /// Position-error summary on a path set.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on an empty set.
    pub fn evaluate(dataset: &ImuDataset, paths: &[ImuPathSample]) -> Result<Summary, NobleError> {
        let preds: Vec<Point> = paths
            .iter()
            .map(|p| Self::predict_one(dataset, p))
            .collect();
        let truth: Vec<Point> = paths.iter().map(|p| p.end_position).collect();
        position_error_summary(&preds, &truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noble_datasets::ImuConfig;

    fn quick_dataset() -> ImuDataset {
        let mut cfg = ImuConfig::small();
        cfg.num_paths = 400;
        cfg.num_reference_points = 40;
        ImuDataset::generate(&cfg).unwrap()
    }

    #[test]
    fn deep_regression_beats_naive() {
        let dataset = quick_dataset();
        let mut model = ImuDeepRegression::train(&dataset, &ImuRegressionConfig::small()).unwrap();
        let s = model.evaluate(&dataset.test).unwrap();
        let naive: f64 = dataset
            .test
            .iter()
            .map(|p| p.start_position.distance(p.end_position))
            .sum::<f64>()
            / dataset.test.len() as f64;
        assert!(s.mean < naive, "regression {} vs naive {naive}", s.mean);
    }

    #[test]
    fn dead_reckoning_evaluates() {
        let dataset = quick_dataset();
        let s = DeadReckoning::evaluate(&dataset.test).unwrap();
        assert!(s.mean.is_finite());
        assert!(s.mean > 0.0);
    }

    #[test]
    fn map_assist_improves_dead_reckoning_structure() {
        let dataset = quick_dataset();
        // Every map-assisted prediction lies on the walkway by construction.
        for p in dataset.test.iter().take(30) {
            let pred = MapAssistedDeadReckoning::predict_one(&dataset, p);
            assert!(dataset.walkway.is_accessible(pred));
        }
        let plain = DeadReckoning::evaluate(&dataset.test).unwrap();
        let assisted = MapAssistedDeadReckoning::evaluate(&dataset, &dataset.test).unwrap();
        // Projection cannot be dramatically worse; typically it helps.
        assert!(assisted.mean <= plain.mean * 1.5);
    }

    #[test]
    fn regression_rejects_empty() {
        let mut dataset = quick_dataset();
        dataset.train.clear();
        assert!(ImuDeepRegression::train(&dataset, &ImuRegressionConfig::small()).is_err());
        assert!(DeadReckoning::evaluate(&[]).is_err());
    }

    #[test]
    fn predict_empty_paths() {
        let dataset = quick_dataset();
        let mut model = ImuDeepRegression::train(&dataset, &ImuRegressionConfig::small()).unwrap();
        assert!(model.predict(&[]).unwrap().is_empty());
    }
}
