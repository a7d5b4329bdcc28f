//! Model definition and training of the NObLe WiFi localizer.
//!
//! The inference/decode paths live in [`super::decode`]; the serving trait
//! impl lives in [`super::localize`].

use crate::eval::StructureReport;
use crate::NobleError;
use noble_datasets::{WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::{Matrix, Summary};
use noble_nn::{
    Activation, EarlyStopping, HeadSpec, Mlp, MultiHeadLoss, Optimizer, OutputLayout, TrainConfig,
    Trainer,
};
use noble_quantize::{DecodePolicy, GridQuantizer, LabelEncoder};

/// Configuration of the NObLe WiFi localizer.
#[derive(Debug, Clone)]
pub struct WifiNobleConfig {
    /// Fine quantization cell side `τ` in meters (paper: < 0.2 m on dense
    /// reference grids; 1 m suits the synthetic campaign's density).
    pub tau: f64,
    /// Optional coarse cell side `l > τ` for the multi-resolution head.
    pub coarse_l: Option<f64>,
    /// Optional adjacency-expansion weight for the fine head's multi-hot
    /// labels (the paper's data-sparsity remedy; `1.0` = hard labels).
    pub adjacency_weight: Option<f64>,
    /// Class decode policy.
    pub decode_policy: DecodePolicy,
    /// Loss weight of the auxiliary building/floor heads. The paper argues
    /// the joint heads teach geodesic structure; `0.0` ablates them (they
    /// still predict, but receive no gradient).
    pub aux_head_weight: f64,
    /// Loss weight of the fine neighborhood-class head. Values above 1
    /// compensate for the per-class gradient dilution of wide heads.
    pub fine_head_weight: f64,
    /// Hidden width of the two hidden layers (paper: 128).
    pub hidden_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Early-stopping patience on the validation loss (None disables).
    pub patience: Option<usize>,
    /// Seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for WifiNobleConfig {
    fn default() -> Self {
        WifiNobleConfig {
            tau: 1.0,
            coarse_l: Some(8.0),
            adjacency_weight: None,
            decode_policy: DecodePolicy::SampleMean,
            aux_head_weight: 1.0,
            fine_head_weight: 4.0,
            hidden_dim: 128,
            epochs: 60,
            batch_size: 64,
            learning_rate: 1e-3,
            patience: Some(8),
            seed: 0xB0B,
        }
    }
}

impl WifiNobleConfig {
    /// A reduced configuration for unit tests.
    pub fn small() -> Self {
        WifiNobleConfig {
            tau: 4.0,
            coarse_l: Some(16.0),
            hidden_dim: 32,
            epochs: 25,
            batch_size: 32,
            learning_rate: 3e-3,
            patience: None,
            ..WifiNobleConfig::default()
        }
    }
}

/// One localization prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct WifiPrediction {
    /// Decoded position (neighborhood centroid).
    pub position: Point,
    /// Predicted building index.
    pub building: usize,
    /// Predicted floor index.
    pub floor: usize,
    /// Predicted fine neighborhood class.
    pub fine_class: usize,
}

/// Evaluation results in the shape of the paper's Table I.
#[derive(Debug, Clone)]
pub struct WifiEvalReport {
    /// Building hit rate.
    pub building_accuracy: f64,
    /// Floor hit rate.
    pub floor_accuracy: f64,
    /// Fine neighborhood-class hit rate.
    pub class_accuracy: f64,
    /// Position error distances in meters.
    pub position_error: Summary,
    /// Structure awareness of the predictions (Fig. 4 quantified).
    pub structure: StructureReport,
}

/// The trained NObLe WiFi localizer.
///
/// # Example
///
/// Train on a small synthetic campaign and localize its test fingerprints:
///
/// ```
/// use noble::wifi::{WifiNoble, WifiNobleConfig};
/// use noble_datasets::{uji_campaign, UjiConfig};
///
/// let campaign = uji_campaign(&UjiConfig::small()).unwrap();
/// let mut cfg = WifiNobleConfig::small();
/// cfg.epochs = 2; // keep the doctest fast; accuracy needs more
/// let mut model = WifiNoble::train(&campaign, &cfg).unwrap();
///
/// let features = campaign.features(&campaign.test);
/// let predictions = model.predict(&features).unwrap();
/// assert_eq!(predictions.len(), campaign.test.len());
/// assert!(predictions.iter().all(|p| p.position.x.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct WifiNoble {
    pub(super) mlp: Mlp,
    pub(super) layout: OutputLayout,
    pub(super) fine: GridQuantizer,
    pub(super) coarse: Option<GridQuantizer>,
    pub(super) head_building: usize,
    pub(super) head_floor: usize,
    pub(super) head_fine: usize,
}

impl WifiNoble {
    /// Trains NObLe on a campaign's offline fingerprints.
    ///
    /// # Errors
    ///
    /// Propagates quantizer, encoding and training failures;
    /// [`NobleError::InvalidData`] when the campaign has no training
    /// samples.
    pub fn train(campaign: &WifiCampaign, cfg: &WifiNobleConfig) -> Result<Self, NobleError> {
        if campaign.train.is_empty() {
            return Err(NobleError::InvalidData(
                "campaign has no training samples".into(),
            ));
        }
        let positions: Vec<Point> = campaign.train.iter().map(|s| s.position).collect();
        let fine = GridQuantizer::fit(&positions, cfg.tau, cfg.decode_policy)?;
        let coarse = match cfg.coarse_l {
            Some(l) => {
                if l <= cfg.tau {
                    return Err(NobleError::InvalidConfig(format!(
                        "coarse side {l} must exceed tau {}",
                        cfg.tau
                    )));
                }
                Some(GridQuantizer::fit(&positions, l, cfg.decode_policy)?)
            }
            None => None,
        };

        let num_buildings = campaign.map.building_count();
        let num_floors = campaign
            .map
            .buildings()
            .iter()
            .map(|b| b.floors())
            .max()
            .unwrap_or(1);

        // The fine head is multi-label sigmoid BCE (the paper's objective)
        // when adjacency expansion produces multi-hot targets; with plain
        // one-hot targets, softmax cross-entropy is the exact single-label
        // specialization and converges much faster over many classes.
        let fine_head = if cfg.adjacency_weight.is_some() {
            HeadSpec::multi_label("fine", fine.num_classes())
        } else {
            HeadSpec::softmax("fine", fine.num_classes())
        };
        let mut heads = vec![
            HeadSpec::softmax("building", num_buildings).with_weight(cfg.aux_head_weight),
            HeadSpec::softmax("floor", num_floors).with_weight(cfg.aux_head_weight),
            fine_head.with_weight(cfg.fine_head_weight),
        ];
        if let Some(c) = &coarse {
            heads.push(HeadSpec::softmax("coarse", c.num_classes()));
        }
        let layout = OutputLayout::new(heads)?;
        let head_of = |name: &str| {
            layout.head_index(name).ok_or_else(|| {
                NobleError::InvalidConfig(format!("output layout is missing the {name} head"))
            })
        };
        let head_building = head_of("building")?;
        let head_floor = head_of("floor")?;
        let head_fine = head_of("fine")?;

        // Built before the training matrices, so the weights that outlive
        // training sit below that scratch and do not pin it in the heap.
        let mut mlp = Mlp::builder(campaign.num_waps(), cfg.seed)
            .dense(cfg.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(cfg.hidden_dim)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(layout.total_width())
            .build();

        let x = campaign.features(&campaign.train);
        let y = Self::targets(
            campaign,
            &campaign.train,
            &layout,
            &fine,
            coarse.as_ref(),
            cfg,
        )?;
        let (x_val, y_val);
        let validation = if campaign.val.is_empty() {
            None
        } else {
            x_val = campaign.features(&campaign.val);
            y_val = Self::targets(
                campaign,
                &campaign.val,
                &layout,
                &fine,
                coarse.as_ref(),
                cfg,
            )?;
            Some((&x_val, &y_val))
        };

        let loss = MultiHeadLoss::new(layout.clone());
        let train_cfg = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            optimizer: Optimizer::adam(cfg.learning_rate),
            lr_decay: 0.985,
            shuffle_seed: cfg.seed ^ 0xA5,
            early_stopping: cfg.patience.map(|p| EarlyStopping {
                patience: p,
                min_delta: 1e-4,
            }),
            detect_divergence: true,
        };
        Trainer::new(train_cfg).fit(&mut mlp, &x, &y, &loss, validation)?;
        // A finished model serves; it never trains again.
        mlp.release_training_state();

        Ok(WifiNoble {
            mlp,
            layout,
            fine,
            coarse,
            head_building,
            head_floor,
            head_fine,
        })
    }

    fn targets(
        campaign: &WifiCampaign,
        samples: &[WifiSample],
        layout: &OutputLayout,
        fine: &GridQuantizer,
        coarse: Option<&GridQuantizer>,
        cfg: &WifiNobleConfig,
    ) -> Result<Matrix, NobleError> {
        let n = samples.len();
        let num_floors = layout.heads()[1].width;
        let mut y = Matrix::zeros(n, layout.total_width());
        // Building / floor one-hots.
        let b_range = layout.range(0);
        let f_range = layout.range(1);
        for (i, s) in samples.iter().enumerate() {
            y[(i, b_range.start + s.building)] = 1.0;
            y[(i, f_range.start + s.floor.min(num_floors - 1))] = 1.0;
        }
        // Fine multi-hot (optionally adjacency-expanded).
        let fine_labels: Vec<usize> = samples
            .iter()
            .map(|s| fine.quantize_nearest(s.position))
            .collect();
        let mut encoder = LabelEncoder::new(fine.num_classes());
        if let Some(w) = cfg.adjacency_weight {
            encoder = encoder.with_adjacency(w);
        }
        let fine_targets = encoder.encode(&fine_labels, Some(fine))?;
        let fine_range = layout.range(2);
        for i in 0..n {
            for (j, col) in fine_range.clone().enumerate() {
                y[(i, col)] = fine_targets[(i, j)];
            }
        }
        // Coarse one-hot.
        if let Some(c) = coarse {
            let range = layout.range(3);
            for (i, s) in samples.iter().enumerate() {
                let label = c.quantize_nearest(s.position);
                y[(i, range.start + label)] = 1.0;
            }
        }
        let _ = campaign;
        Ok(y)
    }

    /// The fine quantizer (exposed for analysis and ablations).
    pub fn fine_quantizer(&self) -> &GridQuantizer {
        &self.fine
    }

    /// The coarse quantizer, when multi-resolution was enabled.
    pub fn coarse_quantizer(&self) -> Option<&GridQuantizer> {
        self.coarse.as_ref()
    }

    /// Width of the fingerprint rows the model consumes (the trained WAP
    /// count).
    pub fn feature_dim(&self) -> usize {
        self.mlp.in_dim()
    }

    /// Number of fine neighborhood classes the model decodes over.
    pub fn class_count(&self) -> usize {
        self.fine.num_classes()
    }

    /// Number of trainable parameters (used by the energy model).
    pub fn parameter_count(&mut self) -> usize {
        self.mlp.parameter_count()
    }

    /// Shapes of the dense layers (used by the energy model's MAC counter).
    pub fn dense_shapes(&self) -> Vec<(usize, usize)> {
        self.mlp.dense_shapes()
    }
}
