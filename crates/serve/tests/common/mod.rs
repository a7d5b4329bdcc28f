//! Fixtures the serving suites share: one small campaign, its model and
//! registry configs, scratch store directories, and a store that fails
//! on purpose.

// Each suite uses a subset.
#![allow(dead_code)]

use noble::wifi::WifiNobleConfig;
use noble::ModelSnapshot;
use noble_datasets::{uji_campaign, UjiConfig, WifiCampaign};
use noble_serve::{MemStore, ModelStore, RegistryConfig, ServeError, ShardKey, ShardPolicy};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// A [`MemStore`] with injected faults: `put` and `get` fail with a
/// `ServeError::Store` by a seeded draw, and the first `get` of one chosen
/// key panics. A draw depends only on the seed, the operation, the key and
/// how many times that operation has run on that key, so a failure
/// reproduces from its seed whatever the thread interleaving. Clones share
/// one store, so a test keeps a handle to the store it hands a catalog.
#[derive(Clone)]
pub struct FaultyStore {
    shared: Arc<Shared>,
}

struct Shared {
    inner: MemStore,
    faults: Mutex<Faults>,
}

struct Faults {
    seed: u64,
    /// Chance of an injected error, in thousandths.
    fail_per_mille: u64,
    panic_on_get: Option<ShardKey>,
    /// Calls so far per (operation, key).
    calls: BTreeMap<(u8, ShardKey), u64>,
    /// The last snapshot each successful `put` stored.
    acknowledged: BTreeMap<ShardKey, ModelSnapshot>,
    injected: u64,
}

impl FaultyStore {
    /// Fails `put` and `get` with chance `fail_per_mille / 1000` each,
    /// drawn from `seed`.
    pub fn seeded(seed: u64, fail_per_mille: u64) -> Self {
        Self::build(seed, fail_per_mille, None)
    }

    /// Panics in the first `get` of `key`; otherwise a plain store.
    pub fn panicking_on_first_get(key: ShardKey) -> Self {
        Self::build(0, 0, Some(key))
    }

    fn build(seed: u64, fail_per_mille: u64, panic_on_get: Option<ShardKey>) -> Self {
        FaultyStore {
            shared: Arc::new(Shared {
                inner: MemStore::new(),
                faults: Mutex::new(Faults {
                    seed,
                    fail_per_mille,
                    panic_on_get,
                    calls: BTreeMap::new(),
                    acknowledged: BTreeMap::new(),
                    injected: 0,
                }),
            }),
        }
    }

    /// Stops injecting faults.
    pub fn heal(&self) {
        self.faults().fail_per_mille = 0;
    }

    /// The snapshot each acknowledged `put` left, per key.
    pub fn acknowledged(&self) -> BTreeMap<ShardKey, ModelSnapshot> {
        self.faults().acknowledged.clone()
    }

    /// How many errors were injected so far.
    pub fn injected(&self) -> u64 {
        self.faults().injected
    }

    fn faults(&self) -> std::sync::MutexGuard<'_, Faults> {
        self.shared
            .faults
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The `op`-th operation's draw on `key`: an injected error or `Ok`.
    fn draw(&self, op: u8, key: ShardKey) -> Result<(), ServeError> {
        let mut faults = self.faults();
        let n = faults.calls.entry((op, key)).or_insert(0);
        *n += 1;
        let n = *n;
        if op == GET && n == 1 && faults.panic_on_get == Some(key) {
            drop(faults);
            panic!("store defect under test: get of {key}");
        }
        let mut h = faults.seed ^ (u64::from(op) << 56) ^ (n << 24);
        h = h.wrapping_add(
            format!("{key}")
                .bytes()
                .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(b))),
        );
        if splitmix(h) % 1000 < faults.fail_per_mille {
            faults.injected += 1;
            return Err(ServeError::Store(format!(
                "injected fault: {} #{n} of {key}",
                if op == GET { "get" } else { "put" }
            )));
        }
        Ok(())
    }
}

const GET: u8 = 0;
const PUT: u8 = 1;

/// SplitMix64's output function.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ModelStore for FaultyStore {
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        self.draw(PUT, key)?;
        self.shared.inner.put(key, snapshot)?;
        self.faults().acknowledged.insert(key, snapshot.clone());
        Ok(())
    }

    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
        self.draw(GET, key)?;
        self.shared.inner.get(key)
    }

    fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
        self.shared.inner.list()
    }

    fn evict(&self, key: ShardKey) -> Result<bool, ServeError> {
        self.shared.inner.evict(key)
    }

    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError> {
        self.shared.inner.put_version(key, version, snapshot)
    }

    fn get_version(
        &self,
        key: ShardKey,
        version: u64,
    ) -> Result<Option<ModelSnapshot>, ServeError> {
        self.shared.inner.get_version(key, version)
    }

    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.shared.inner.versions(key)
    }
}
