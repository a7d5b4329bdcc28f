//! Multi-head output composition.
//!
//! NObLe's WiFi model predicts several labels at once from one logit
//! vector: neighborhood class `C`, building `B`, floor `F` (Fig. 3 of the
//! paper), and optionally a coarse-resolution class `R` (§III-B). Each head
//! occupies a contiguous column range of the network output and carries its
//! own loss:
//!
//! - [`HeadKind::Softmax`] — single-label softmax cross-entropy (building,
//!   floor),
//! - [`HeadKind::MultiLabelSigmoid`] — the paper's binary cross-entropy over
//!   sigmoid outputs, which supports multi-hot targets (fine class with
//!   adjacency expansion).

use crate::loss::Loss;
use crate::metrics::softmax_row;
use crate::{activation, NnError};
use noble_linalg::Matrix;

/// Loss family attached to one output head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// Single-label softmax cross-entropy.
    Softmax,
    /// Multi-label binary cross-entropy on sigmoid outputs (the paper's
    /// NObLe objective).
    MultiLabelSigmoid,
}

/// One named output head covering `width` logits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadSpec {
    /// Display name (e.g. `"building"`).
    pub name: String,
    /// Number of classes in this head.
    pub width: usize,
    /// Loss family.
    pub kind: HeadKind,
    /// Relative weight of this head's loss in the total objective.
    pub loss_weight_millis: u32,
}

impl HeadSpec {
    /// A softmax head with unit loss weight.
    pub fn softmax(name: &str, width: usize) -> Self {
        HeadSpec {
            name: name.to_string(),
            width,
            kind: HeadKind::Softmax,
            loss_weight_millis: 1000,
        }
    }

    /// A multi-label sigmoid head with unit loss weight.
    pub fn multi_label(name: &str, width: usize) -> Self {
        HeadSpec {
            name: name.to_string(),
            width,
            kind: HeadKind::MultiLabelSigmoid,
            loss_weight_millis: 1000,
        }
    }

    /// Overrides the loss weight (expressed as a float, stored in millis so
    /// the spec stays `Eq`).
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.loss_weight_millis = (weight * 1000.0).round().max(0.0) as u32;
        self
    }

    fn weight(&self) -> f64 {
        self.loss_weight_millis as f64 / 1000.0
    }
}

/// Layout of a multi-head output vector: column ranges per head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputLayout {
    heads: Vec<HeadSpec>,
}

impl OutputLayout {
    /// Builds a layout from head specs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when no heads are given or a head
    /// has zero width.
    pub fn new(heads: Vec<HeadSpec>) -> Result<Self, NnError> {
        if heads.is_empty() {
            return Err(NnError::InvalidConfig(
                "output layout needs at least one head".into(),
            ));
        }
        if let Some(h) = heads.iter().find(|h| h.width == 0) {
            return Err(NnError::InvalidConfig(format!(
                "head '{}' has zero width",
                h.name
            )));
        }
        Ok(OutputLayout { heads })
    }

    /// Total number of logits.
    pub fn total_width(&self) -> usize {
        self.heads.iter().map(|h| h.width).sum()
    }

    /// The head specs in layout order.
    pub fn heads(&self) -> &[HeadSpec] {
        &self.heads
    }

    /// Column range of head `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn range(&self, index: usize) -> std::ops::Range<usize> {
        let start: usize = self.heads[..index].iter().map(|h| h.width).sum();
        start..start + self.heads[index].width
    }

    /// Index of the head named `name`, if present.
    pub fn head_index(&self, name: &str) -> Option<usize> {
        self.heads.iter().position(|h| h.name == name)
    }

    /// Extracts the arg-max class of head `head_index` for every row of
    /// `logits`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `logits` does not match the
    /// layout width.
    pub fn predict_classes(
        &self,
        logits: &Matrix,
        head_index: usize,
    ) -> Result<Vec<usize>, NnError> {
        if logits.cols() != self.total_width() {
            return Err(NnError::ShapeMismatch {
                context: "predict_classes",
                expected: self.total_width(),
                found: logits.cols(),
            });
        }
        let range = self.range(head_index);
        Ok(logits
            .iter_rows()
            .map(|row| class_of(&row[range.clone()]))
            .collect())
    }

    /// Per-class probabilities of head `head_index` for every row.
    ///
    /// Softmax heads produce a distribution; sigmoid heads produce
    /// independent Bernoulli probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `logits` does not match the
    /// layout width.
    pub fn predict_probabilities(
        &self,
        logits: &Matrix,
        head_index: usize,
    ) -> Result<Matrix, NnError> {
        if logits.cols() != self.total_width() {
            return Err(NnError::ShapeMismatch {
                context: "predict_probabilities",
                expected: self.total_width(),
                found: logits.cols(),
            });
        }
        let range = self.range(head_index);
        let head = &self.heads[head_index];
        let mut out = Matrix::zeros(logits.rows(), head.width);
        for i in 0..logits.rows() {
            let row = &logits.row(i)[range.clone()];
            match head.kind {
                HeadKind::Softmax => {
                    out.row_mut(i).copy_from_slice(&softmax_row(row));
                }
                HeadKind::MultiLabelSigmoid => {
                    for (o, &z) in out.row_mut(i).iter_mut().zip(row) {
                        *o = activation::sigmoid(z);
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A head's class for one row of its logits: the first arg-max, NaNs
/// ignored, class 0 when every logit is NaN.
fn class_of(head_row: &[f64]) -> usize {
    noble_linalg::argmax(head_row).unwrap_or(0)
}

/// The combined multi-head loss: a weighted sum of per-head losses over a
/// shared logit matrix.
///
/// Targets are given as one `(batch, total_width)` matrix whose column
/// blocks hold the per-head one-hot / multi-hot targets.
#[derive(Debug, Clone)]
pub struct MultiHeadLoss {
    layout: OutputLayout,
}

impl MultiHeadLoss {
    /// Wraps an output layout as a trainable loss.
    pub fn new(layout: OutputLayout) -> Self {
        MultiHeadLoss { layout }
    }

    /// The underlying layout.
    pub fn layout(&self) -> &OutputLayout {
        &self.layout
    }

    /// Per-head loss values for diagnostics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Loss::evaluate`].
    pub fn per_head_losses(
        &self,
        outputs: &Matrix,
        targets: &Matrix,
    ) -> Result<Vec<(String, f64)>, NnError> {
        let mut out = Vec::with_capacity(self.layout.heads.len());
        for (idx, head) in self.layout.heads.iter().enumerate() {
            let (l, _) = self.head_loss(outputs, targets, idx)?;
            out.push((head.name.clone(), l));
        }
        Ok(out)
    }

    fn head_loss(
        &self,
        outputs: &Matrix,
        targets: &Matrix,
        idx: usize,
    ) -> Result<(f64, Matrix), NnError> {
        let n = outputs.rows();
        if n == 0 {
            return Err(NnError::EmptyData);
        }
        let range = self.layout.range(idx);
        let head = &self.layout.heads[idx];
        let nf = n as f64;
        let mut loss = 0.0;
        let mut grad = Matrix::zeros(n, head.width);
        match head.kind {
            HeadKind::Softmax => {
                for i in 0..n {
                    let logit_row = &outputs.row(i)[range.clone()];
                    let target_row = &targets.row(i)[range.clone()];
                    let probs = softmax_row(logit_row);
                    for j in 0..head.width {
                        let t = target_row[j];
                        if t > 0.0 {
                            loss -= t * probs[j].max(1e-300).ln();
                        }
                        grad[(i, j)] = (probs[j] - t) / nf;
                    }
                }
            }
            HeadKind::MultiLabelSigmoid => {
                for i in 0..n {
                    let logit_row = &outputs.row(i)[range.clone()];
                    let target_row = &targets.row(i)[range.clone()];
                    for j in 0..head.width {
                        let z = logit_row[j];
                        let t = target_row[j];
                        loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
                        grad[(i, j)] = (activation::sigmoid(z) - t) / nf;
                    }
                }
            }
        }
        Ok((loss / nf, grad))
    }
}

impl Loss for MultiHeadLoss {
    fn evaluate(&self, outputs: &Matrix, targets: &Matrix) -> Result<(f64, Matrix), NnError> {
        if outputs.shape() != targets.shape() || outputs.cols() != self.layout.total_width() {
            return Err(NnError::ShapeMismatch {
                context: "multi-head loss",
                expected: self.layout.total_width(),
                found: outputs.cols(),
            });
        }
        let mut total = 0.0;
        let mut grad = Matrix::zeros(outputs.rows(), outputs.cols());
        for (idx, head) in self.layout.heads.iter().enumerate() {
            let w = head.weight();
            if w == 0.0 {
                continue;
            }
            let (l, g) = self.head_loss(outputs, targets, idx)?;
            total += w * l;
            let range = self.layout.range(idx);
            for i in 0..outputs.rows() {
                for (j, col) in range.clone().enumerate() {
                    grad[(i, col)] += w * g[(i, j)];
                }
            }
        }
        Ok((total, grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> OutputLayout {
        OutputLayout::new(vec![
            HeadSpec::softmax("building", 3),
            HeadSpec::softmax("floor", 4),
            HeadSpec::multi_label("class", 5),
        ])
        .unwrap()
    }

    #[test]
    fn layout_ranges() {
        let l = layout();
        assert_eq!(l.total_width(), 12);
        assert_eq!(l.range(0), 0..3);
        assert_eq!(l.range(1), 3..7);
        assert_eq!(l.range(2), 7..12);
        assert_eq!(l.head_index("floor"), Some(1));
        assert_eq!(l.head_index("nope"), None);
    }

    #[test]
    fn layout_rejects_bad_specs() {
        assert!(OutputLayout::new(vec![]).is_err());
        assert!(OutputLayout::new(vec![HeadSpec::softmax("x", 0)]).is_err());
    }

    #[test]
    fn predict_classes_per_head() {
        let l = layout();
        let mut logits = Matrix::zeros(1, 12);
        logits[(0, 1)] = 5.0; // building 1
        logits[(0, 6)] = 5.0; // floor 3
        logits[(0, 7)] = 5.0; // class 0
        assert_eq!(l.predict_classes(&logits, 0).unwrap(), vec![1]);
        assert_eq!(l.predict_classes(&logits, 1).unwrap(), vec![3]);
        assert_eq!(l.predict_classes(&logits, 2).unwrap(), vec![0]);
        assert!(l.predict_classes(&Matrix::zeros(1, 11), 0).is_err());
    }

    #[test]
    fn predict_probabilities_normalized_for_softmax() {
        let l = layout();
        let logits = Matrix::filled(2, 12, 0.3);
        let p = l.predict_probabilities(&logits, 0).unwrap();
        for i in 0..2 {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Sigmoid head: independent probabilities, equal logits -> equal probs.
        let q = l.predict_probabilities(&logits, 2).unwrap();
        assert!(q.as_slice().iter().all(|&v| (v - q[(0, 0)]).abs() < 1e-12));
    }

    #[test]
    fn multi_head_loss_gradient_check() {
        let l = MultiHeadLoss::new(layout());
        let outputs = Matrix::from_fn(2, 12, |i, j| ((i * 12 + j) as f64 * 0.37).sin());
        let mut targets = Matrix::zeros(2, 12);
        targets[(0, 0)] = 1.0; // building 0
        targets[(0, 5)] = 1.0; // floor 2
        targets[(0, 8)] = 1.0; // class: multi-hot
        targets[(0, 9)] = 1.0;
        targets[(1, 2)] = 1.0;
        targets[(1, 3)] = 1.0;
        targets[(1, 11)] = 1.0;

        let (_, grad) = l.evaluate(&outputs, &targets).unwrap();
        let h = 1e-6;
        for (i, j) in [(0, 0), (0, 4), (0, 8), (1, 2), (1, 11), (1, 6)] {
            let mut op = outputs.clone();
            op[(i, j)] += h;
            let mut om = outputs.clone();
            om[(i, j)] -= h;
            let (lp, _) = l.evaluate(&op, &targets).unwrap();
            let (lm, _) = l.evaluate(&om, &targets).unwrap();
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (grad[(i, j)] - num).abs() < 1e-6,
                "grad[{i}{j}]: analytic {} vs numeric {num}",
                grad[(i, j)]
            );
        }
    }

    #[test]
    fn head_weights_scale_loss() {
        let base = OutputLayout::new(vec![HeadSpec::softmax("a", 2)]).unwrap();
        let double = OutputLayout::new(vec![HeadSpec::softmax("a", 2).with_weight(2.0)]).unwrap();
        let outputs = Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap();
        let targets = Matrix::from_rows(&[vec![0.0, 1.0]]).unwrap();
        let (l1, g1) = MultiHeadLoss::new(base)
            .evaluate(&outputs, &targets)
            .unwrap();
        let (l2, g2) = MultiHeadLoss::new(double)
            .evaluate(&outputs, &targets)
            .unwrap();
        assert!((l2 - 2.0 * l1).abs() < 1e-12);
        assert!((g2[(0, 0)] - 2.0 * g1[(0, 0)]).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_head_ignored() {
        let l = OutputLayout::new(vec![
            HeadSpec::softmax("a", 2).with_weight(0.0),
            HeadSpec::softmax("b", 2),
        ])
        .unwrap();
        let outputs = Matrix::from_rows(&[vec![100.0, -100.0, 0.0, 0.0]]).unwrap();
        let mut targets = Matrix::zeros(1, 4);
        targets[(0, 1)] = 1.0; // head a: totally wrong, but weight 0
        targets[(0, 2)] = 1.0;
        let (loss, grad) = MultiHeadLoss::new(l).evaluate(&outputs, &targets).unwrap();
        assert!((loss - 2.0f64.ln()).abs() < 1e-9);
        assert_eq!(grad[(0, 0)], 0.0);
        assert_eq!(grad[(0, 1)], 0.0);
    }

    #[test]
    fn per_head_losses_named() {
        let l = MultiHeadLoss::new(layout());
        let outputs = Matrix::zeros(1, 12);
        let mut targets = Matrix::zeros(1, 12);
        targets[(0, 0)] = 1.0;
        targets[(0, 3)] = 1.0;
        targets[(0, 7)] = 1.0;
        let per = l.per_head_losses(&outputs, &targets).unwrap();
        assert_eq!(per.len(), 3);
        assert_eq!(per[0].0, "building");
        assert!((per[0].1 - 3.0f64.ln()).abs() < 1e-12);
        assert!((per[1].1 - 4.0f64.ln()).abs() < 1e-12);
    }
}
