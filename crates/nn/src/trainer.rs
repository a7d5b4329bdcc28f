//! Mini-batch training loop with shuffling, learning-rate decay and early
//! stopping.

use crate::{Loss, Mlp, NnError, Optimizer};
use noble_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Early-stopping policy on a validation loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopping {
    /// Number of epochs without improvement tolerated before stopping.
    pub patience: usize,
    /// Minimum decrease in validation loss that counts as improvement.
    pub min_delta: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            patience: 10,
            min_delta: 1e-4,
        }
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size; the final batch of an epoch may be smaller.
    pub batch_size: usize,
    /// Update rule (consumed as the initial state; the decayed learning
    /// rate stays internal to the run).
    pub optimizer: Optimizer,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f64,
    /// Shuffle seed; training visits batches in a deterministic order for
    /// a given seed.
    pub shuffle_seed: u64,
    /// Optional early stopping, active only when a validation set is given.
    pub early_stopping: Option<EarlyStopping>,
    /// If set, training returns [`NnError::Diverged`] when the loss stops
    /// being finite.
    pub detect_divergence: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 50,
            batch_size: 64,
            optimizer: Optimizer::adam(1e-3),
            lr_decay: 1.0,
            shuffle_seed: 0x5EED,
            early_stopping: None,
            detect_divergence: true,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each completed epoch.
    pub train_losses: Vec<f64>,
    /// Validation loss per epoch (empty when no validation set given).
    pub val_losses: Vec<f64>,
    /// Training loss of the final epoch.
    pub final_train_loss: f64,
    /// Epochs actually run (may be fewer than configured with early
    /// stopping).
    pub epochs_run: usize,
    /// Whether early stopping triggered.
    pub stopped_early: bool,
}

/// Mini-batch gradient-descent driver.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `(x, y)` with the given loss.
    ///
    /// `validation` optionally provides `(x_val, y_val)` for early stopping
    /// and per-epoch validation losses.
    ///
    /// # Errors
    ///
    /// - [`NnError::EmptyData`] when `x` has no rows.
    /// - [`NnError::InvalidConfig`] for a zero batch size or zero epochs.
    /// - [`NnError::ShapeMismatch`] when `x`/`y` row counts differ.
    /// - [`NnError::Diverged`] when divergence detection trips.
    pub fn fit(
        &self,
        model: &mut Mlp,
        x: &Matrix,
        y: &Matrix,
        loss: &dyn Loss,
        validation: Option<(&Matrix, &Matrix)>,
    ) -> Result<TrainReport, NnError> {
        let n = x.rows();
        if n == 0 {
            return Err(NnError::EmptyData);
        }
        if self.config.batch_size == 0 {
            return Err(NnError::InvalidConfig("batch_size must be positive".into()));
        }
        if self.config.epochs == 0 {
            return Err(NnError::InvalidConfig("epochs must be positive".into()));
        }
        if y.rows() != n {
            return Err(NnError::ShapeMismatch {
                context: "trainer targets",
                expected: n,
                found: y.rows(),
            });
        }

        let mut optimizer = self.config.optimizer.clone();
        let mut rng = StdRng::seed_from_u64(self.config.shuffle_seed);
        let mut order: Vec<usize> = (0..n).collect();

        let mut report = TrainReport {
            train_losses: Vec::with_capacity(self.config.epochs),
            val_losses: Vec::new(),
            final_train_loss: f64::INFINITY,
            epochs_run: 0,
            stopped_early: false,
        };
        let mut best_val = f64::INFINITY;
        let mut epochs_since_best = 0usize;

        for epoch in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let xb = x.select_rows(chunk);
                let yb = y.select_rows(chunk);
                let out = model.forward(&xb, true)?;
                let (l, grad) = loss.evaluate(&out, &yb)?;
                if self.config.detect_divergence && !l.is_finite() {
                    return Err(NnError::Diverged { epoch });
                }
                model.backward(&grad)?;
                model.apply_gradients(&mut optimizer);
                epoch_loss += l;
                batches += 1;
            }
            epoch_loss /= batches.max(1) as f64;
            report.train_losses.push(epoch_loss);
            report.final_train_loss = epoch_loss;
            report.epochs_run = epoch + 1;

            if let Some((xv, yv)) = validation {
                let out = model.forward(xv, false)?;
                let (vl, _) = loss.evaluate(&out, yv)?;
                report.val_losses.push(vl);
                if let Some(es) = self.config.early_stopping {
                    if vl < best_val - es.min_delta {
                        best_val = vl;
                        epochs_since_best = 0;
                    } else {
                        epochs_since_best += 1;
                        if epochs_since_best >= es.patience {
                            report.stopped_early = true;
                            break;
                        }
                    }
                }
            }

            if self.config.lr_decay != 1.0 {
                let lr = optimizer.learning_rate() * self.config.lr_decay;
                optimizer.set_learning_rate(lr);
            }
        }
        // One read of the first layer's trained weights lets inference
        // skip its zero input groups (see `Mlp`). The f32 screen is left to
        // the first `predict_argmax`: built here, it would sit at the top
        // of this thread's heap, above the training scratch.
        model.scan_input_weights_finite();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::one_hot;
    use crate::{Activation, MseLoss, SoftmaxCrossEntropyLoss};

    fn line_data(n: usize) -> (Matrix, Matrix) {
        let x = Matrix::from_fn(n, 1, |i, _| i as f64 / n as f64);
        let y = x.map(|v| 3.0 * v - 1.0);
        (x, y)
    }

    #[test]
    fn fit_linear_regression() {
        let (x, y) = line_data(64);
        let mut mlp = Mlp::builder(1, 3).dense(1).build();
        let cfg = TrainConfig {
            epochs: 400,
            batch_size: 16,
            optimizer: Optimizer::adam(0.05),
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &MseLoss, None)
            .unwrap();
        assert!(
            report.final_train_loss < 1e-4,
            "loss {}",
            report.final_train_loss
        );
        assert_eq!(report.epochs_run, 400);
        assert!(!report.stopped_early);
    }

    #[test]
    fn fit_classification_with_batchnorm() {
        // Two separable blobs.
        let n = 40;
        let x = Matrix::from_fn(n, 2, |i, j| {
            let base = if i < n / 2 { -2.0 } else { 2.0 };
            base + 0.1 * ((i * 7 + j * 3) % 10) as f64 / 10.0
        });
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= n / 2)).collect();
        let y = one_hot(&labels, 2);
        let mut mlp = Mlp::builder(2, 11)
            .dense(8)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        let cfg = TrainConfig {
            epochs: 100,
            batch_size: 10,
            optimizer: Optimizer::adam(0.01),
            ..TrainConfig::default()
        };
        Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &SoftmaxCrossEntropyLoss, None)
            .unwrap();
        let out = mlp.predict(&x).unwrap();
        let predicted: Vec<usize> = (0..n)
            .map(|i| noble_linalg::argmax(out.row(i)).unwrap())
            .collect();
        let acc = crate::metrics::accuracy(&predicted, &labels);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn early_stopping_halts() {
        let (x, y) = line_data(32);
        let mut mlp = Mlp::builder(1, 5)
            .dense(4)
            .activation(Activation::Tanh)
            .dense(1)
            .build();
        let cfg = TrainConfig {
            epochs: 500,
            batch_size: 8,
            optimizer: Optimizer::adam(0.05),
            early_stopping: Some(EarlyStopping {
                patience: 5,
                min_delta: 1e-7,
            }),
            ..TrainConfig::default()
        };
        let report = Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &MseLoss, Some((&x, &y)))
            .unwrap();
        assert!(report.stopped_early);
        assert!(report.epochs_run < 500);
        assert_eq!(report.val_losses.len(), report.epochs_run);
    }

    #[test]
    fn rejects_bad_configs() {
        let (x, y) = line_data(4);
        let mut mlp = Mlp::builder(1, 0).dense(1).build();
        let mut cfg = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        assert!(matches!(
            Trainer::new(cfg.clone()).fit(&mut mlp, &x, &y, &MseLoss, None),
            Err(NnError::InvalidConfig(_))
        ));
        cfg.batch_size = 4;
        cfg.epochs = 0;
        assert!(Trainer::new(cfg)
            .fit(&mut mlp, &x, &y, &MseLoss, None)
            .is_err());
        let empty = Matrix::zeros(0, 1);
        assert!(matches!(
            Trainer::new(TrainConfig::default()).fit(&mut mlp, &empty, &empty, &MseLoss, None),
            Err(NnError::EmptyData)
        ));
    }

    #[test]
    fn rejects_mismatched_targets() {
        let x = Matrix::zeros(4, 1);
        let y = Matrix::zeros(3, 1);
        let mut mlp = Mlp::builder(1, 0).dense(1).build();
        assert!(matches!(
            Trainer::new(TrainConfig::default()).fit(&mut mlp, &x, &y, &MseLoss, None),
            Err(NnError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn divergence_detection() {
        let (x, y) = line_data(16);
        let mut mlp = Mlp::builder(1, 1).dense(1).build();
        let cfg = TrainConfig {
            epochs: 200,
            batch_size: 16,
            optimizer: Optimizer::sgd(1e12), // absurd LR guarantees blow-up
            ..TrainConfig::default()
        };
        let result = Trainer::new(cfg).fit(&mut mlp, &x, &y, &MseLoss, None);
        assert!(matches!(result, Err(NnError::Diverged { .. })));
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = line_data(32);
        let run = |seed: u64| {
            let mut mlp = Mlp::builder(1, 7)
                .dense(4)
                .activation(Activation::Tanh)
                .dense(1)
                .build();
            let cfg = TrainConfig {
                epochs: 20,
                batch_size: 8,
                shuffle_seed: seed,
                ..TrainConfig::default()
            };
            Trainer::new(cfg)
                .fit(&mut mlp, &x, &y, &MseLoss, None)
                .unwrap()
                .final_train_loss
        };
        assert_eq!(run(1).to_bits(), run(1).to_bits());
        assert_ne!(run(1).to_bits(), run(2).to_bits());
    }

    #[test]
    fn loss_curves_invariant_to_thread_count() {
        // Mini-batch products (batch 64, width 128 — 1M MACs) now cross
        // the per-worker parallel threshold, so with threads configured
        // the trainer's forward/backward run on `matmul_parallel`. That
        // kernel is bit-identical to the serial blocked kernel, so the
        // loss trajectory must not move by even one bit.
        let x = Matrix::from_fn(256, 128, |i, j| ((i * 31 + j * 7) % 23) as f64 / 23.0 - 0.5);
        let y = Matrix::from_fn(256, 1, |i, _| (i % 17) as f64 / 17.0);
        let run = |threads: usize| {
            noble_linalg::set_num_threads(threads);
            let mut mlp = Mlp::builder(128, 33)
                .dense(128)
                .activation(Activation::Tanh)
                .dense(1)
                .build();
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: 64,
                ..TrainConfig::default()
            };
            let report = Trainer::new(cfg)
                .fit(&mut mlp, &x, &y, &MseLoss, None)
                .unwrap();
            noble_linalg::set_num_threads(0);
            report
                .train_losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "threads={threads}");
        }
    }

    #[test]
    fn concurrent_training_with_same_seed_is_bit_identical() {
        // Two serving shards training at once with the same seed must end
        // up with identical models: nothing in Mlp/Trainer may read shared
        // RNG state, and the matmul dispatch must stay bit-stable even
        // while another thread flips the global worker-count override.
        let (x, y) = line_data(48);
        let train_one = || {
            let mut mlp = Mlp::builder(1, 99)
                .dense(32)
                .batch_norm()
                .activation(Activation::Tanh)
                .dense(1)
                .build();
            let cfg = TrainConfig {
                epochs: 12,
                batch_size: 8,
                shuffle_seed: crate::derive_seed(99, 1),
                ..TrainConfig::default()
            };
            Trainer::new(cfg)
                .fit(&mut mlp, &x, &y, &MseLoss, None)
                .unwrap();
            let bits: Vec<u64> = mlp
                .params_mut()
                .iter()
                .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
                .collect();
            bits
        };
        let stop = std::sync::atomic::AtomicBool::new(false);
        let (a, b) = std::thread::scope(|s| {
            let ha = s.spawn(train_one);
            let hb = s.spawn(train_one);
            // Adversary: churn the process-wide thread override while both
            // trainings run; results must not depend on it. The deadline
            // bounds the spin so a panicking training thread fails the
            // test instead of deadlocking scope exit.
            let toggler = s.spawn(|| {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
                let mut t = 1;
                while !stop.load(std::sync::atomic::Ordering::Relaxed)
                    && std::time::Instant::now() < deadline
                {
                    noble_linalg::set_num_threads(t);
                    t = t % 4 + 1;
                    std::thread::yield_now();
                }
                noble_linalg::set_num_threads(0);
            });
            let a = ha.join().unwrap();
            let b = hb.join().unwrap();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            toggler.join().unwrap();
            (a, b)
        });
        assert_eq!(a, b, "concurrent same-seed trainings diverged");
    }

    #[test]
    fn lr_decay_changes_trajectory() {
        let (x, y) = line_data(32);
        let run = |decay: f64| {
            let mut mlp = Mlp::builder(1, 7).dense(1).build();
            let cfg = TrainConfig {
                epochs: 30,
                batch_size: 8,
                lr_decay: decay,
                optimizer: Optimizer::sgd(0.5),
                ..TrainConfig::default()
            };
            Trainer::new(cfg)
                .fit(&mut mlp, &x, &y, &MseLoss, None)
                .unwrap()
                .final_train_loss
        };
        // Merely assert both run and produce finite losses, and that decay
        // changed the outcome.
        let a = run(1.0);
        let b = run(0.5);
        assert!(a.is_finite() && b.is_finite());
        assert_ne!(a.to_bits(), b.to_bits());
    }
}
