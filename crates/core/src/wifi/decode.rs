//! Inference and decode paths of [`WifiNoble`]: per-fix and batched
//! localization, probability-weighted decode, embedding, evaluation.

use super::model::{WifiEvalReport, WifiNoble, WifiPrediction};
use crate::eval::{position_error_summary, StructureReport};
use crate::NobleError;
use noble_datasets::{WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_nn::accuracy;

impl WifiNoble {
    /// Predicts positions and labels for a feature matrix (rows =
    /// normalized fingerprints).
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures.
    pub fn predict(&mut self, features: &Matrix) -> Result<Vec<WifiPrediction>, NobleError> {
        let logits = self.mlp.predict(features)?;
        let buildings = self.layout.predict_classes(&logits, self.head_building)?;
        let floors = self.layout.predict_classes(&logits, self.head_floor)?;
        let fine_classes = self.layout.predict_classes(&logits, self.head_fine)?;
        let mut out = Vec::with_capacity(features.rows());
        for i in 0..features.rows() {
            let position = self.fine.decode(fine_classes[i])?;
            out.push(WifiPrediction {
                position,
                building: buildings[i],
                floor: floors[i],
                fine_class: fine_classes[i],
            });
        }
        Ok(out)
    }

    /// The serving pass: positions only, bit-identical to the positions
    /// [`WifiNoble::predict`] returns. It picks the fine head's class
    /// through [`noble_nn::Mlp::predict_argmax`] and reads nothing else —
    /// neither the building, floor and coarse heads nor their weights —,
    /// skips the first layer's all-zero input groups once its weights are
    /// known finite, and on a full-scale head scores the classes with the
    /// certified f32 screen (see [`noble_nn::Mlp`]).
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures.
    pub(crate) fn fine_positions(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let range = self.layout.range(self.head_fine);
        self.mlp
            .predict_argmax(features, range)?
            .into_iter()
            .map(|class| Ok(self.fine.decode(class)?))
            .collect()
    }

    /// Localizes a single fingerprint (serving-style per-fix path).
    ///
    /// For throughput-sensitive callers, collect fingerprints and use
    /// [`WifiNoble::localize_batch`]: one stacked forward pass reuses the
    /// weight matrices across the batch and engages the blocked
    /// (and, above a size threshold, multi-threaded) matmul kernels.
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures; the fingerprint length must
    /// equal the trained WAP count.
    pub fn localize_one(&mut self, fingerprint: &[f64]) -> Result<WifiPrediction, NobleError> {
        let features = Matrix::from_vec(1, fingerprint.len(), fingerprint.to_vec())
            .map_err(|e| NobleError::InvalidData(e.to_string()))?;
        let mut preds = self.predict(&features)?;
        preds.pop().ok_or_else(|| {
            NobleError::InvalidData("predict returned no prediction for a one-row batch".into())
        })
    }

    /// Localizes a batch of fingerprints with a single stacked forward
    /// pass. Prediction `i` corresponds to `fingerprints[i]` and is
    /// **bit-identical** to [`WifiNoble::localize_one`] on that row: the
    /// matmul kernel class is chosen per output row, so logits do not
    /// depend on which batch a fingerprint rides in (the invariant the
    /// serving engine's micro-batching relies on).
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] on ragged input; propagates network and
    /// decode failures.
    pub fn localize_batch(
        &mut self,
        fingerprints: &[Vec<f64>],
    ) -> Result<Vec<WifiPrediction>, NobleError> {
        if fingerprints.is_empty() {
            return Ok(Vec::new());
        }
        let features =
            Matrix::from_rows(fingerprints).map_err(|e| NobleError::InvalidData(e.to_string()))?;
        self.predict(&features)
    }

    /// Embeds fingerprints with the penultimate layer (the learned
    /// manifold embedding of §III-C).
    ///
    /// # Errors
    ///
    /// Propagates network failures.
    pub fn embed(&mut self, features: &Matrix) -> Result<Matrix, NobleError> {
        Ok(self.mlp.embed(features)?)
    }

    /// Probability-weighted decode over the `k` most likely neighborhood
    /// classes: `sum p_c * centroid_c / sum p_c`.
    ///
    /// An extension beyond the paper's arg-max decode: when the classifier
    /// hesitates between adjacent cells, the expectation interpolates
    /// between their centroids instead of committing to one. Returns
    /// `(position, confidence)` pairs where confidence is the probability
    /// mass of the top class.
    ///
    /// # Errors
    ///
    /// Propagates network and decode failures;
    /// [`NobleError::InvalidConfig`] when `k` is zero.
    pub fn predict_expected(
        &mut self,
        features: &Matrix,
        k: usize,
    ) -> Result<Vec<(Point, f64)>, NobleError> {
        if k == 0 {
            return Err(NobleError::InvalidConfig(
                "top-k decode needs k >= 1".into(),
            ));
        }
        let logits = self.mlp.predict(features)?;
        let probs = self.layout.predict_probabilities(&logits, self.head_fine)?;
        let mut out = Vec::with_capacity(features.rows());
        for i in 0..features.rows() {
            let row = probs.row(i);
            // Indices of the k largest probabilities.
            let mut order: Vec<usize> = (0..row.len()).collect();
            // total_cmp: NaN-proof and deterministic (no panic branch).
            order.sort_by(|&a, &b| row[b].total_cmp(&row[a]));
            order.truncate(k);
            let mut mass = 0.0;
            let mut x = 0.0;
            let mut y = 0.0;
            for &c in &order {
                let p = row[c];
                let centroid = self.fine.decode(c)?;
                mass += p;
                x += p * centroid.x;
                y += p * centroid.y;
            }
            let position = if mass > 1e-300 {
                Point::new(x / mass, y / mass)
            } else {
                self.fine.decode(order[0])?
            };
            out.push((position, row[order[0]]));
        }
        Ok(out)
    }

    /// Evaluates on a labeled sample set, producing the Table I metrics.
    ///
    /// # Errors
    ///
    /// [`NobleError::InvalidData`] for an empty sample set; propagates
    /// prediction failures.
    pub fn evaluate(
        &mut self,
        campaign: &WifiCampaign,
        samples: &[WifiSample],
    ) -> Result<WifiEvalReport, NobleError> {
        if samples.is_empty() {
            return Err(NobleError::InvalidData("no samples to evaluate".into()));
        }
        let features = campaign.features(samples);
        let preds = self.predict(&features)?;
        let predicted_positions: Vec<Point> = preds.iter().map(|p| p.position).collect();
        let true_positions: Vec<Point> = samples.iter().map(|s| s.position).collect();

        let pred_b: Vec<usize> = preds.iter().map(|p| p.building).collect();
        let true_b: Vec<usize> = samples.iter().map(|s| s.building).collect();
        let pred_f: Vec<usize> = preds.iter().map(|p| p.floor).collect();
        let true_f: Vec<usize> = samples.iter().map(|s| s.floor).collect();
        let pred_c: Vec<usize> = preds.iter().map(|p| p.fine_class).collect();
        let true_c: Vec<usize> = samples
            .iter()
            .map(|s| self.fine.quantize_nearest(s.position))
            .collect();

        Ok(WifiEvalReport {
            building_accuracy: accuracy(&pred_b, &true_b),
            floor_accuracy: accuracy(&pred_f, &true_f),
            class_accuracy: accuracy(&pred_c, &true_c),
            position_error: position_error_summary(&predicted_positions, &true_positions)?,
            structure: StructureReport::compute(&predicted_positions, &campaign.map)?,
        })
    }
}
