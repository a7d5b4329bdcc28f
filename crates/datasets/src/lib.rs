//! Synthetic dataset generators for the NObLe reproduction.
//!
//! The paper evaluates on three datasets we cannot ship: UJIIndoorLoc
//! (external download), the IPIN 2016 Tutorial dataset (external download),
//! and the authors' never-released campus IMU walks. So this crate
//! builds synthetic equivalents that
//! exercise the same code paths:
//!
//! - [`uji_campaign`] — a three-building, four-floor campus in the spirit
//!   of Fig. 1: ring-shaped buildings whose courtyards are inaccessible,
//!   RSSI fingerprints from a log-distance path-loss model with wall/floor
//!   attenuation and shadowing ([`rssi`] module),
//! - [`ipin_campaign`] — a single smaller building,
//! - [`ImuDataset`] — simulated pedestrian walks around a campus loop with
//!   raw 50 Hz accelerometer/gyroscope synthesis, reference locations every
//!   `SAMPLES_PER_SEGMENT` readings, and the paper's path construction
//!   (random start reference, bounded segment count).
//!
//! All generators are deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use noble_datasets::{UjiConfig, uji_campaign};
//!
//! let mut cfg = UjiConfig::small();
//! cfg.seed = 7;
//! let campaign = uji_campaign(&cfg).unwrap();
//! assert_eq!(campaign.map.building_count(), 3);
//! assert!(!campaign.train.is_empty());
//! assert!(!campaign.test.is_empty());
//! ```

mod campus;
mod error;
mod imu;
pub mod io;
pub mod rssi;
mod split;
mod wifi;

pub use campus::{ipin_building, uji_campus, CampusConfig};
pub use error::DatasetError;
pub use imu::{
    ImuConfig, ImuDataset, ImuPathSample, ImuSegment, SAMPLES_PER_SEGMENT, SEGMENT_FEATURE_DIM,
};
pub use rssi::{PathLossModel, Wap, NOT_DETECTED};
pub use split::split_indices;
pub use wifi::{ipin_campaign, uji_campaign, UjiConfig, WifiCampaign, WifiSample};
