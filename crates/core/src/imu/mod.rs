//! IMU device tracking (paper §V).
//!
//! [`ImuNoble`] implements the Fig. 5(a) architecture:
//!
//! 1. **projection module** — one trainable linear map applied to *every*
//!    segment's feature vector (weights shared across segments),
//! 2. **displacement module** — a two-hidden-layer network mapping the
//!    concatenated projections to a displacement vector `V ∈ R²`,
//! 3. **location module** — takes `V` and the one-hot *starting location
//!    class* and classifies the *ending* neighborhood class, decoded to
//!    coordinates via the fitted quantizer (`τ = 0.4 m` in the paper).
//!
//! Training is end-to-end: cross-entropy on the end class plus an
//! auxiliary mean-squared-error term on the displacement vector. The
//! baselines of Table III are in [`baselines`].

pub mod baselines;

mod snapshot;

use crate::eval::{position_error_summary, StructureReport};
use crate::NobleError;
use noble_datasets::{ImuDataset, ImuPathSample, SEGMENT_FEATURE_DIM};
use noble_geo::Point;
use noble_linalg::{Matrix, Summary};
use noble_nn::{one_hot, Activation, Dense, Loss, Mlp, Optimizer, SoftmaxCrossEntropyLoss};
use noble_quantize::{DecodePolicy, GridQuantizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-segment input width: the dataset features plus a validity flag for
/// padded slots.
pub const SEGMENT_INPUT_DIM: usize = SEGMENT_FEATURE_DIM + 1;

/// Snapshot kind tag of [`ImuNoble`] (also its
/// [`crate::LocalizerInfo::model`] label).
pub const IMU_NOBLE_KIND: &str = "imu-noble";

/// Configuration of the NObLe IMU tracker.
#[derive(Debug, Clone)]
pub struct ImuNobleConfig {
    /// Quantization cell side in meters (paper: 0.4 m).
    pub tau: f64,
    /// Decode policy for the end-class centroid.
    pub decode_policy: DecodePolicy,
    /// Output width of the shared projection module.
    pub projection_dim: usize,
    /// Hidden width of the displacement and location networks.
    pub hidden_dim: usize,
    /// Weight of the auxiliary displacement MSE term.
    pub displacement_loss_weight: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for ImuNobleConfig {
    fn default() -> Self {
        ImuNobleConfig {
            tau: 0.4,
            decode_policy: DecodePolicy::SampleMean,
            projection_dim: 12,
            hidden_dim: 128,
            displacement_loss_weight: 4.0,
            epochs: 120,
            batch_size: 64,
            learning_rate: 1e-3,
            lr_decay: 0.99,
            seed: 0x1210,
        }
    }
}

impl ImuNobleConfig {
    /// A reduced configuration for unit tests.
    pub fn small() -> Self {
        ImuNobleConfig {
            tau: 2.0,
            projection_dim: 6,
            hidden_dim: 32,
            epochs: 30,
            batch_size: 32,
            learning_rate: 3e-3,
            ..ImuNobleConfig::default()
        }
    }
}

/// Evaluation results in the shape of the paper's Table III.
#[derive(Debug, Clone)]
pub struct ImuEvalReport {
    /// End-position error distances in meters.
    pub position_error: Summary,
    /// End-class hit rate.
    pub class_accuracy: f64,
    /// Structure awareness of predicted end positions (Fig. 5 quantified).
    pub structure: StructureReport,
}

/// The trained NObLe IMU tracker.
#[derive(Debug, Clone)]
pub struct ImuNoble {
    projection: Dense,
    displacement: Mlp,
    location: Mlp,
    quantizer: GridQuantizer,
    max_segments: usize,
    displacement_scale: f64,
}

impl ImuNoble {
    /// Trains the tracker on a dataset's training paths.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty dataset; propagates
    /// quantizer and network failures.
    pub fn train(dataset: &ImuDataset, cfg: &ImuNobleConfig) -> Result<Self, NobleError> {
        if dataset.train.is_empty() {
            return Err(NobleError::InvalidData(
                "dataset has no training paths".into(),
            ));
        }
        // Quantize over both start and end positions so the start one-hot
        // and the end classes share one vocabulary.
        let mut anchor_positions: Vec<Point> =
            dataset.train.iter().map(|p| p.end_position).collect();
        anchor_positions.extend(dataset.train.iter().map(|p| p.start_position));
        let quantizer = GridQuantizer::fit(&anchor_positions, cfg.tau, cfg.decode_policy)?;
        let num_classes = quantizer.num_classes();

        let displacement_scale = dataset
            .train
            .iter()
            .map(|p| p.true_displacement().length())
            .fold(0.0f64, f64::max)
            .max(1.0);

        let max_segments = dataset.max_segments;
        let mut model = ImuNoble {
            projection: Dense::new(SEGMENT_INPUT_DIM, cfg.projection_dim, cfg.seed ^ 0x11),
            displacement: Mlp::builder(max_segments * cfg.projection_dim, cfg.seed ^ 0x22)
                .dense(cfg.hidden_dim)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(cfg.hidden_dim)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(2)
                .build(),
            location: Mlp::builder(2 + num_classes, cfg.seed ^ 0x33)
                .dense(cfg.hidden_dim)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(num_classes)
                .build(),
            quantizer,
            max_segments,
            displacement_scale,
        };
        model.fit(dataset, cfg)?;
        // A finished model serves; it never trains again.
        model.projection.release_training_state();
        model.displacement.release_training_state();
        model.location.release_training_state();
        Ok(model)
    }

    /// The fitted quantizer (exposed for analysis).
    pub fn quantizer(&self) -> &GridQuantizer {
        &self.quantizer
    }

    /// Dense layer shapes across all three modules (for the energy model).
    pub fn dense_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = vec![(self.projection.in_dim(), self.projection.out_dim())];
        shapes.extend(self.displacement.dense_shapes());
        shapes.extend(self.location.dense_shapes());
        shapes
    }

    /// Builds the stacked `(batch * max_segments, SEGMENT_INPUT_DIM)`
    /// segment matrix of a path batch (zero-padded, validity-flagged).
    fn stack_segments(&self, paths: &[&ImuPathSample]) -> Matrix {
        let l = self.max_segments;
        let mut m = Matrix::zeros(paths.len() * l, SEGMENT_INPUT_DIM);
        for (pi, path) in paths.iter().enumerate() {
            for (si, seg) in path.segments.iter().take(l).enumerate() {
                let row = m.row_mut(pi * l + si);
                row[..SEGMENT_FEATURE_DIM].copy_from_slice(seg.features());
                row[SEGMENT_FEATURE_DIM] = 1.0; // valid
            }
        }
        m
    }

    /// Start-class one-hot block of a path batch.
    fn start_onehots(&self, paths: &[&ImuPathSample]) -> Matrix {
        let labels: Vec<usize> = paths
            .iter()
            .map(|p| self.quantizer.quantize_nearest(p.start_position))
            .collect();
        one_hot(&labels, self.quantizer.num_classes())
    }

    /// Training forward pass through all three modules, caching what the
    /// backward pass needs. Returns `(displacement, logits)`.
    fn forward(&mut self, paths: &[&ImuPathSample]) -> Result<(Matrix, Matrix), NobleError> {
        let onehots = self.start_onehots(paths);
        let projected = self.projection.forward(&self.stack_segments(paths), true)?;
        let concat = self.concat_projections(&projected, paths.len());
        let displacement = self.displacement.forward(&concat, true)?;
        let logits = self
            .location
            .forward(&displacement.hstack(&onehots)?, true)?;
        Ok((displacement, logits))
    }

    /// Inference pass: the location logits of a `(batch*L, dim)` segment
    /// stack and its start one-hots. Fed either from path samples
    /// ([`ImuNoble::predict_batch`]) or from the flat feature encoding of
    /// [`ImuNoble::path_features`] — both construct the identical segment
    /// stack and one-hots, so the two entry points are bit-identical.
    fn infer(
        &self,
        stacked: &Matrix,
        start_onehots: &Matrix,
        batch: usize,
    ) -> Result<Matrix, NobleError> {
        let projected = self.projection.predict(stacked)?;
        let concat = self.concat_projections(&projected, batch);
        let displacement = self.displacement.predict(&concat)?;
        Ok(self
            .location
            .predict(&displacement.hstack(start_onehots)?)?)
    }

    /// Reshapes `(batch*L, p)` segment projections into `(batch, L*p)`
    /// rows, the displacement module's input.
    fn concat_projections(&self, projected: &Matrix, batch: usize) -> Matrix {
        let l = self.max_segments;
        let p_dim = self.projection.out_dim();
        let mut concat = Matrix::zeros(batch, l * p_dim);
        for pi in 0..batch {
            for si in 0..l {
                let src = projected.row(pi * l + si);
                concat.row_mut(pi)[si * p_dim..(si + 1) * p_dim].copy_from_slice(src);
            }
        }
        concat
    }

    /// Width of the flat serving-feature rows: `max_segments` padded
    /// segment slots plus the start position `(x, y)`.
    pub fn path_feature_dim(&self) -> usize {
        self.max_segments * SEGMENT_INPUT_DIM + 2
    }

    /// Number of neighborhood classes the end-position decode ranges over.
    pub fn class_count(&self) -> usize {
        self.quantizer.num_classes()
    }

    /// Encodes paths into the flat `(n, path_feature_dim)` serving layout
    /// consumed by the [`crate::Localizer`] impl: the zero-padded,
    /// validity-flagged segment block followed by the start position. The
    /// encoding is lossless for inference — decoding it reproduces the
    /// exact segment stack and start one-hots the path-based forward
    /// builds.
    pub fn path_features(&self, paths: &[&ImuPathSample]) -> Matrix {
        let l = self.max_segments;
        let mut m = Matrix::zeros(paths.len(), self.path_feature_dim());
        for (pi, path) in paths.iter().enumerate() {
            let row = m.row_mut(pi);
            for (si, seg) in path.segments.iter().take(l).enumerate() {
                let base = si * SEGMENT_INPUT_DIM;
                row[base..base + SEGMENT_FEATURE_DIM].copy_from_slice(seg.features());
                row[base + SEGMENT_FEATURE_DIM] = 1.0; // valid
            }
            row[l * SEGMENT_INPUT_DIM] = path.start_position.x;
            row[l * SEGMENT_INPUT_DIM + 1] = path.start_position.y;
        }
        m
    }

    /// Decodes end positions from location-module logits: argmax over raw
    /// logits (softmax is strictly monotone) with per-class centroid
    /// memoization.
    fn decode_logits(&self, logits: &Matrix) -> Result<Vec<Point>, NobleError> {
        let mut centroids: Vec<Option<Point>> = vec![None; self.quantizer.num_classes()];
        let mut out = Vec::with_capacity(logits.rows());
        for i in 0..logits.rows() {
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

    fn fit(&mut self, dataset: &ImuDataset, cfg: &ImuNobleConfig) -> Result<(), NobleError> {
        let n = dataset.train.len();
        let mut optimizer = Optimizer::adam(cfg.learning_rate);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x44);
        let mut order: Vec<usize> = (0..n).collect();
        let ce = SoftmaxCrossEntropyLoss;
        let num_classes = self.quantizer.num_classes();
        let l = self.max_segments;
        let p_dim = self.projection.out_dim();

        for _epoch in 0..cfg.epochs {
            if cfg.lr_decay != 1.0 {
                let lr = optimizer.learning_rate();
                optimizer.set_learning_rate(lr * cfg.lr_decay);
            }
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size) {
                let batch: Vec<&ImuPathSample> = chunk.iter().map(|&i| &dataset.train[i]).collect();
                let (displacement, logits) = self.forward(&batch)?;

                // End-class cross entropy.
                let end_labels: Vec<usize> = batch
                    .iter()
                    .map(|p| self.quantizer.quantize_nearest(p.end_position))
                    .collect();
                let targets = one_hot(&end_labels, num_classes);
                let (_, ce_grad) = ce.evaluate(&logits, &targets)?;
                // One backward through the location module both accumulates
                // its parameter gradients and yields d(loss)/d(V ⊕ one-hot);
                // only the displacement slice continues down the chain (the
                // one-hot block is an input, not an activation).
                let loc_in_grad = self.location.backward_with_input_grad(&ce_grad)?;
                let mut disp_grad = Matrix::zeros(batch.len(), 2);
                for i in 0..batch.len() {
                    disp_grad[(i, 0)] = loc_in_grad[(i, 0)];
                    disp_grad[(i, 1)] = loc_in_grad[(i, 1)];
                }
                // Auxiliary displacement MSE (scaled units).
                let w = cfg.displacement_loss_weight;
                if w > 0.0 {
                    let bn = batch.len() as f64;
                    for (i, path) in batch.iter().enumerate() {
                        let v = path.true_displacement();
                        let tx = v.x / self.displacement_scale;
                        let ty = v.y / self.displacement_scale;
                        disp_grad[(i, 0)] += w * (displacement[(i, 0)] - tx) / bn;
                        disp_grad[(i, 1)] += w * (displacement[(i, 1)] - ty) / bn;
                    }
                }
                let concat_grad = self.displacement.backward_with_input_grad(&disp_grad)?;

                // Reshape (batch, L*p) -> (batch*L, p) for the shared
                // projection layer.
                let mut stacked_grad = Matrix::zeros(batch.len() * l, p_dim);
                for pi in 0..batch.len() {
                    for si in 0..l {
                        let dst = stacked_grad.row_mut(pi * l + si);
                        dst.copy_from_slice(&concat_grad.row(pi)[si * p_dim..(si + 1) * p_dim]);
                    }
                }
                self.projection.backward(&stacked_grad)?;

                optimizer.begin_step();
                for p in self.projection.params_mut() {
                    optimizer.update(p);
                }
                for p in self.displacement.params_mut() {
                    optimizer.update(p);
                }
                for p in self.location.params_mut() {
                    optimizer.update(p);
                }
            }
        }
        Ok(())
    }

    /// Predicts end positions for a set of paths.
    ///
    /// Delegates to [`ImuNoble::predict_batch`] — the end class is the
    /// argmax over logits, which softmax (strictly monotone) cannot
    /// change, so the probability pass the original implementation ran is
    /// pure overhead.
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures.
    pub fn predict(&self, paths: &[&ImuPathSample]) -> Result<Vec<Point>, NobleError> {
        self.predict_batch(paths)
    }

    /// Predicts the end position of a single path (serving-style per-fix
    /// path). For throughput, use [`ImuNoble::predict_batch`].
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures.
    pub fn predict_one(&self, path: &ImuPathSample) -> Result<Point, NobleError> {
        let mut out = self.predict_batch(&[path])?;
        out.pop().ok_or_else(|| {
            NobleError::InvalidData("predict_batch returned no prediction for one path".into())
        })
    }

    /// Batched prediction: one stacked forward over all paths, then a
    /// batch decode that takes the argmax over raw logits (softmax is
    /// strictly monotone, so probabilities are never materialized) and
    /// memoizes each class's centroid so repeated classes decode once.
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures.
    pub fn predict_batch(&self, paths: &[&ImuPathSample]) -> Result<Vec<Point>, NobleError> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let logits = self.infer(
            &self.stack_segments(paths),
            &self.start_onehots(paths),
            paths.len(),
        )?;
        self.decode_logits(&logits)
    }

    /// Evaluates on a path set, producing the Table III metrics.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on an empty set; propagates prediction
    /// failures.
    pub fn evaluate(
        &self,
        dataset: &ImuDataset,
        paths: &[ImuPathSample],
    ) -> Result<ImuEvalReport, NobleError> {
        if paths.is_empty() {
            return Err(NobleError::InvalidData("no paths to evaluate".into()));
        }
        let refs: Vec<&ImuPathSample> = paths.iter().collect();
        let preds = self.predict(&refs)?;
        let truth: Vec<Point> = paths.iter().map(|p| p.end_position).collect();
        let pred_classes: Vec<usize> = preds
            .iter()
            .map(|p| self.quantizer.quantize_nearest(*p))
            .collect();
        let true_classes: Vec<usize> = truth
            .iter()
            .map(|p| self.quantizer.quantize_nearest(*p))
            .collect();
        let hits = pred_classes
            .iter()
            .zip(&true_classes)
            .filter(|(a, b)| a == b)
            .count();
        Ok(ImuEvalReport {
            position_error: position_error_summary(&preds, &truth)?,
            class_accuracy: hits as f64 / paths.len() as f64,
            structure: StructureReport::compute(&preds, &dataset.walkway)?,
        })
    }
}

impl crate::Localizer for ImuNoble {
    fn info(&self) -> crate::LocalizerInfo {
        crate::LocalizerInfo {
            model: IMU_NOBLE_KIND,
            site: "default".into(),
            feature_dim: self.path_feature_dim(),
            class_count: self.class_count(),
        }
    }

    fn try_snapshot(&self) -> Option<crate::ModelSnapshot> {
        Some(crate::SnapshotLocalizer::snapshot(self))
    }

    /// Localizes rows in the [`ImuNoble::path_features`] layout. The
    /// segment stack and start one-hots rebuilt from a row are bitwise
    /// equal to what [`ImuNoble::predict_batch`] builds from the original
    /// path, so the two paths agree exactly.
    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        crate::localizer::check_feature_dim("imu-noble", self.path_feature_dim(), features)?;
        if features.rows() == 0 {
            return Ok(Vec::new());
        }
        let l = self.max_segments;
        let n = features.rows();
        // Unflatten the segment block and re-derive the start one-hots.
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
        let onehots = one_hot(&start_labels, self.quantizer.num_classes());
        let logits = self.infer(&stacked, &onehots, n)?;
        self.decode_logits(&logits)
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
    fn trained_and_hydrated_models_carry_no_optimizer_state() {
        use crate::SnapshotLocalizer;
        let trained = ImuNoble::train(
            &quick_dataset(),
            &ImuNobleConfig {
                epochs: 1,
                ..ImuNobleConfig::small()
            },
        )
        .unwrap();
        let hydrated = ImuNoble::from_snapshot(&trained.snapshot()).unwrap();
        for (name, model) in [("trained", &trained), ("hydrated", &hydrated)] {
            let params = model
                .projection
                .params()
                .into_iter()
                .chain(model.displacement.params())
                .chain(model.location.params());
            for p in params {
                for buf in [&p.grad, &p.m, &p.v] {
                    assert_eq!(buf.shape(), (0, 0), "{name} model kept optimizer state");
                }
            }
        }
    }

    #[test]
    fn trains_and_beats_naive_baseline() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        let report = model.evaluate(&dataset, &dataset.test).unwrap();
        // Naive baseline: predict the start position.
        let naive: f64 = dataset
            .test
            .iter()
            .map(|p| p.start_position.distance(p.end_position))
            .sum::<f64>()
            / dataset.test.len() as f64;
        assert!(
            report.position_error.mean < naive,
            "NObLe {} should beat naive {naive}",
            report.position_error.mean
        );
        // Decoded positions are quantizer centroids: on or near the walkway.
        assert!(report.structure.on_map_fraction > 0.8);
    }

    #[test]
    fn predict_batch_matches_per_sample_and_softmax_paths() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        let refs: Vec<&ImuPathSample> = dataset.test.iter().take(16).collect();
        let softmax_path = model.predict(&refs).unwrap();
        let batched = model.predict_batch(&refs).unwrap();
        assert_eq!(batched.len(), refs.len());
        // Logit argmax == softmax argmax, so the decoded points are equal.
        for (a, b) in softmax_path.iter().zip(&batched) {
            assert!(a.distance(*b) < 1e-12, "softmax {a} vs batched {b}");
        }
        for (path, b) in refs.iter().zip(&batched) {
            let single = model.predict_one(path).unwrap();
            assert!(
                single.distance(*b) < 1e-12,
                "single {single} vs batched {b}"
            );
        }
        assert!(model.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn localizer_trait_matches_predict_batch_exactly() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        let refs: Vec<&ImuPathSample> = dataset.test.iter().take(10).collect();
        let direct = model.predict_batch(&refs).unwrap();

        let features = model.path_features(&refs);
        let info = crate::Localizer::info(&model);
        assert_eq!(info.model, "imu-noble");
        assert_eq!(info.feature_dim, features.cols());
        assert_eq!(info.class_count, model.class_count());

        let via_trait = crate::Localizer::localize_batch(&model, &features).unwrap();
        assert_eq!(direct, via_trait, "matrix encoding must be lossless");

        let bad = Matrix::zeros(1, model.path_feature_dim() + 1);
        assert!(crate::Localizer::localize_batch(&model, &bad).is_err());
    }

    #[test]
    fn predict_empty_is_empty() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        assert!(model.predict(&[]).unwrap().is_empty());
        assert!(model.evaluate(&dataset, &[]).is_err());
    }

    #[test]
    fn rejects_empty_dataset() {
        let mut dataset = quick_dataset();
        dataset.train.clear();
        assert!(ImuNoble::train(&dataset, &ImuNobleConfig::small()).is_err());
    }

    #[test]
    fn dense_shapes_cover_three_modules() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        let shapes = model.dense_shapes();
        // projection + 3 displacement + 2 location dense layers.
        assert_eq!(shapes.len(), 6);
        assert_eq!(shapes[0].0, SEGMENT_INPUT_DIM);
        assert_eq!(shapes[3].1, 2, "displacement module outputs V in R^2");
    }

    #[test]
    fn quantizer_classes_cover_start_positions() {
        let dataset = quick_dataset();
        let model = ImuNoble::train(&dataset, &ImuNobleConfig::small()).unwrap();
        for p in dataset.train.iter().take(30) {
            let c = model.quantizer().quantize_nearest(p.start_position);
            assert!(c < model.quantizer().num_classes());
        }
    }
}
