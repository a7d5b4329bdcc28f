//! From-scratch neural-network substrate for the NObLe localization suite.
//!
//! Implements exactly what the paper's models need, with no external ML
//! dependencies:
//!
//! - dense (fully connected) layers with Xavier/Glorot initialization
//!   ([`init`](xavier_uniform)),
//! - hyperbolic tangent / ReLU / sigmoid activations ([`Activation`]),
//! - batch normalization with running statistics ([`BatchNorm`]),
//! - losses: mean squared error, binary cross-entropy with logits
//!   (the paper's multi-label objective), and softmax cross-entropy,
//!   including the multi-head composition used by NObLe's
//!   building/floor/class outputs ([`MultiHeadLoss`]),
//! - optimizers: SGD, SGD with momentum, Adam ([`Optimizer`]),
//! - a mini-batch [`Trainer`] with shuffling, learning-rate decay and
//!   early stopping.
//!
//! # Example
//!
//! ```
//! use noble_nn::{Activation, Mlp, MseLoss, Optimizer, Trainer, TrainConfig};
//! use noble_linalg::Matrix;
//!
//! // Learn y = 2x on a few points.
//! let x = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]).unwrap();
//! let y = Matrix::from_rows(&[vec![0.0], vec![2.0], vec![4.0], vec![6.0]]).unwrap();
//! let mut mlp = Mlp::builder(1, 42)
//!     .dense(8)
//!     .activation(Activation::Tanh)
//!     .dense(1)
//!     .build();
//! let config = TrainConfig {
//!     epochs: 200,
//!     batch_size: 4,
//!     optimizer: Optimizer::adam(0.05),
//!     ..TrainConfig::default()
//! };
//! let report = Trainer::new(config).fit(&mut mlp, &x, &y, &MseLoss, None).unwrap();
//! assert!(report.final_train_loss < 0.1);
//! ```

mod activation;
mod batchnorm;
mod dropout;
mod error;
mod heads;
mod init;
mod layer;
mod loss;
mod metrics;
mod network;
mod optimizer;
mod param;
mod screen;
mod seed;
mod serialize;
mod trainer;

pub use activation::Activation;
pub use batchnorm::BatchNorm;
pub use dropout::Dropout;
pub use error::NnError;
pub use heads::{HeadKind, HeadSpec, MultiHeadLoss, OutputLayout};
pub use init::{he_uniform, xavier_normal, xavier_uniform};
pub use layer::Dense;
pub use loss::{BceWithLogitsLoss, Loss, MseLoss, SoftmaxCrossEntropyLoss};
pub use metrics::{accuracy, confusion_counts, one_hot, softmax_row};
pub use network::{Mlp, MlpBuilder, MlpLayerSpec};
pub use optimizer::Optimizer;
pub use param::Param;
pub use screen::SCREEN_MIN_ROW_FLOPS;
pub use seed::derive_seed;
pub use serialize::{check_parameter_header, load_parameters, save_parameters};
pub use trainer::{EarlyStopping, TrainConfig, TrainReport, Trainer};
