//! Fixtures the serving suites share: one small campaign, its model and
//! registry configs, and scratch store directories.

// Each suite uses a subset.
#![allow(dead_code)]

use noble::wifi::WifiNobleConfig;
use noble_datasets::{uji_campaign, UjiConfig, WifiCampaign};
use noble_serve::{RegistryConfig, ShardPolicy};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn quick_campaign() -> WifiCampaign {
    let mut cfg = UjiConfig::small();
    cfg.seed = 42;
    uji_campaign(&cfg).unwrap()
}

/// The small model, trained for `epochs`.
pub fn fast_model_cfg(epochs: usize) -> WifiNobleConfig {
    WifiNobleConfig {
        epochs,
        ..WifiNobleConfig::small()
    }
}

pub fn registry_cfg() -> RegistryConfig {
    RegistryConfig {
        policy: ShardPolicy::PerBuilding,
        max_train_samples_per_shard: None,
        parallel_training: true,
    }
}

/// A fresh store directory per call, under the cargo-managed tmp dir
/// and named after the suite. Wiped on handout: version lineage persists
/// in an `FsStore`, so archives left by a previous run would shift
/// version allocation.
pub fn store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    let name = format!("{}-{tag}-{n}", env!("CARGO_CRATE_NAME"));
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
