//! # NObLe — Neighbor Oblivious Learning for device localization and tracking
//!
//! A from-scratch Rust reproduction of *"Neighbor Oblivious Learning
//! (NObLe) for Device Localization and Tracking"* (Liu, Chou & Shrivastava,
//! DATE 2021). The paper's idea: localization output spaces are structured
//! manifolds (floor plans, walkways), so instead of regressing coordinates,
//! quantize the output space into occupied grid cells ("neighborhood
//! classes") and train a multi-head classifier; the class → centroid decode
//! respects the structure, and the cross-entropy objective clusters the
//! penultimate-layer embedding like MDS *without* unreliable input-space
//! neighbor searches.
//!
//! Two applications, as in the paper:
//!
//! - [`wifi`] — WiFi RSSI fingerprint localization: [`wifi::WifiNoble`]
//!   plus the paper's comparison models (deep regression, regression with
//!   map projection, Isomap/LLE embedding regression, classic weighted-kNN
//!   fingerprinting),
//! - [`imu`] — IMU device tracking: [`imu::ImuNoble`] with the paper's
//!   projection → displacement → location architecture (Fig. 5a), plus
//!   dead-reckoning baselines.
//!
//! [`eval`] carries the shared metrics: position-error summaries and the
//! structure-awareness measures that quantify Figs. 4 and 5.
//!
//! [`localizer`] defines the model-agnostic serving interface: every
//! trained model (NObLe WiFi/IMU and the baselines) implements
//! [`Localizer`], which is what the `noble-serve` sharded registry and
//! micro-batching server route requests into. [`snapshot`] adds the
//! model-lifecycle half of that seam: [`SnapshotLocalizer`] serializes
//! a trained model into a versioned [`ModelSnapshot`] and [`hydrate`]
//! rebuilds a bit-identical localizer from one, which is what the
//! serving layer's model store and evicting catalog are built on.
//!
//! # Quickstart
//!
//! ```no_run
//! use noble::wifi::{WifiNoble, WifiNobleConfig};
//! use noble_datasets::{uji_campaign, UjiConfig};
//!
//! let campaign = uji_campaign(&UjiConfig::default()).unwrap();
//! let mut model = WifiNoble::train(&campaign, &WifiNobleConfig::default()).unwrap();
//! let report = model.evaluate(&campaign, &campaign.test).unwrap();
//! println!("mean position error: {:.2} m", report.position_error.mean);
//! ```

pub mod eval;
pub mod imu;
pub mod localizer;
pub mod report;
pub mod snapshot;
pub mod wifi;

mod error;

pub use error::NobleError;
pub use localizer::{Localizer, LocalizerInfo};
pub use snapshot::{hydrate, ModelSnapshot, SnapshotLocalizer};
