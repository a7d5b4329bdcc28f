//! Shard keys and campaign partitioning, plus the eager-training
//! registry: partitions a campaign by building/floor key and trains (or
//! accepts) one [`Localizer`] per shard for [`crate::BatchServer`].

use crate::{CatalogBudget, ModelCatalog, ServeError};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::Localizer;
use noble_datasets::{WifiCampaign, WifiSample};
use noble_nn::derive_seed;
use std::collections::BTreeMap;
use std::fmt;

/// Identifies one serving shard: a building, optionally narrowed to a
/// single floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardKey {
    /// Building index.
    pub building: usize,
    /// Floor index, when sharding per building-floor.
    pub floor: Option<usize>,
}

impl ShardKey {
    /// A per-building shard key.
    pub fn building(building: usize) -> Self {
        ShardKey {
            building,
            floor: None,
        }
    }

    /// A per-building-floor shard key.
    pub fn building_floor(building: usize, floor: usize) -> Self {
        ShardKey {
            building,
            floor: Some(floor),
        }
    }

    /// A stable stream index for [`derive_seed`]: distinct keys map to
    /// distinct streams regardless of how many shards exist or in which
    /// order they train.
    fn seed_stream(self) -> u64 {
        let floor = self.floor.map_or(0, |f| f as u64 + 1);
        ((self.building as u64) << 32) | floor
    }
}

impl fmt::Display for ShardKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.floor {
            Some(floor) => write!(f, "b{}/f{floor}", self.building),
            None => write!(f, "b{}", self.building),
        }
    }
}

/// How a campaign is partitioned into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// One shard for the whole campaign (the unsharded reference point).
    SingleSite,
    /// One shard per building.
    PerBuilding,
    /// One shard per building-floor pair (DevLoc-style zone scoping).
    PerBuildingFloor,
}

impl ShardPolicy {
    /// The shard key a sample routes to under this policy.
    pub fn key_of(self, sample: &WifiSample) -> ShardKey {
        match self {
            ShardPolicy::SingleSite => ShardKey::building(0),
            ShardPolicy::PerBuilding => ShardKey::building(sample.building),
            ShardPolicy::PerBuildingFloor => {
                ShardKey::building_floor(sample.building, sample.floor)
            }
        }
    }
}

/// Registry-level configuration.
#[derive(Debug, Clone)]
pub struct RegistryConfig {
    /// Partitioning policy.
    pub policy: ShardPolicy,
    /// Per-shard training-set cap. Shards never hold more than this many
    /// offline fingerprints, bounding per-shard model and radio-map memory
    /// as sites multiply (`None` = unbounded).
    pub max_train_samples_per_shard: Option<usize>,
    /// Train shards concurrently on scoped threads (worker count from
    /// [`noble_linalg::num_threads`]). Per-shard seeds are derived from
    /// the shard key, so the result is bit-identical either way.
    pub parallel_training: bool,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            policy: ShardPolicy::PerBuilding,
            max_train_samples_per_shard: None,
            parallel_training: true,
        }
    }
}

/// The seed the registry trains shard `key` with, derived order-free from
/// the base configuration seed (exposed so parity tests can train the
/// identical model outside the registry).
pub fn shard_seed(base: u64, key: ShardKey) -> u64 {
    derive_seed(base, key.seed_stream())
}

/// Splits a campaign into per-shard sub-campaigns under `keyer`, keeping
/// the shared map/WAP/channel context and capping each shard's training
/// set at `max_train` samples.
///
/// Shards are keyed by the *training* samples; validation and test
/// samples routed to a shard with no training data are dropped with it.
pub fn partition_campaign(
    campaign: &WifiCampaign,
    keyer: impl Fn(&WifiSample) -> ShardKey,
    max_train: Option<usize>,
) -> BTreeMap<ShardKey, WifiCampaign> {
    let mut shards: BTreeMap<ShardKey, WifiCampaign> = BTreeMap::new();
    let empty_shell = || {
        let mut shell = campaign.clone();
        shell.train.clear();
        shell.val.clear();
        shell.test.clear();
        shell
    };
    for sample in &campaign.train {
        let shard = shards.entry(keyer(sample)).or_insert_with(empty_shell);
        if max_train.is_none_or(|cap| shard.train.len() < cap) {
            shard.train.push(sample.clone());
        }
    }
    for sample in &campaign.val {
        if let Some(shard) = shards.get_mut(&keyer(sample)) {
            shard.val.push(sample.clone());
        }
    }
    for sample in &campaign.test {
        if let Some(shard) = shards.get_mut(&keyer(sample)) {
            shard.test.push(sample.clone());
        }
    }
    shards
}

/// A keyed collection of eagerly trained per-shard localizers: the
/// hand-off from training to serving.
///
/// [`ShardedRegistry::train_wifi`] trains every shard up front (the lazy
/// alternative is [`ModelCatalog::register_wifi_campaign`]), and
/// [`crate::BatchServer::start`] takes the registry through
/// `From<ShardedRegistry> for ModelCatalog`: an unbounded catalog whose
/// models are already parked, so the server serves them fully resident.
/// Everything past training — routing, persistence
/// ([`ModelCatalog::export_to`]), budgets, and online refresh — lives on
/// the catalog and the server. Refresh retrains from a registered
/// [`crate::TrainSpec`], which a registry's shards do not carry.
pub struct ShardedRegistry {
    catalog: ModelCatalog,
}

impl Default for ShardedRegistry {
    fn default() -> Self {
        ShardedRegistry {
            catalog: ModelCatalog::new(CatalogBudget::Unbounded)
                // noble-lint: allow(panic-path, "CatalogBudget::Unbounded is a unit variant ModelCatalog::new always accepts; Default cannot return Result")
                .expect("an unbounded budget is always valid"),
        }
    }
}

impl fmt::Debug for ShardedRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedRegistry")
            .field("shards", &self.keys())
            .finish()
    }
}

impl From<ShardedRegistry> for ModelCatalog {
    fn from(registry: ShardedRegistry) -> Self {
        registry.catalog
    }
}

impl ShardedRegistry {
    /// An empty registry; populate with [`ShardedRegistry::insert`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Trains one [`WifiNoble`] per shard of `campaign` under the
    /// registry configuration. Each shard trains with the order-free seed
    /// [`shard_seed`]`(cfg.seed, key)`, so shard models are reproducible
    /// whether training runs serially or concurrently.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoShards`] when the campaign has no training
    /// samples; otherwise the first shard training failure.
    pub fn train_wifi(
        campaign: &WifiCampaign,
        cfg: &WifiNobleConfig,
        reg: &RegistryConfig,
    ) -> Result<Self, ServeError> {
        let parts: Vec<(ShardKey, WifiCampaign)> = partition_campaign(
            campaign,
            |s| reg.policy.key_of(s),
            reg.max_train_samples_per_shard,
        )
        .into_iter()
        .collect();
        if parts.is_empty() {
            return Err(ServeError::NoShards);
        }
        let train_one = |(key, shard): &(ShardKey, WifiCampaign)| {
            let mut shard_cfg = cfg.clone();
            shard_cfg.seed = shard_seed(cfg.seed, *key);
            WifiNoble::train(shard, &shard_cfg)
                .map(|model| (*key, model))
                .map_err(ServeError::from)
        };
        let threads = if reg.parallel_training {
            noble_linalg::num_threads()
        } else {
            1
        };
        let trained: Vec<Result<(ShardKey, WifiNoble), ServeError>> =
            noble_linalg::parallel_map_ranges(parts.len(), threads, |range| {
                range.map(|i| train_one(&parts[i])).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let mut registry = ShardedRegistry::new();
        for result in trained {
            let (key, model) = result?;
            registry.insert(key, Box::new(model));
        }
        Ok(registry)
    }

    /// Registers (or replaces) the localizer serving `key`.
    pub fn insert(&mut self, key: ShardKey, localizer: Box<dyn Localizer>) {
        self.catalog
            .insert(key, localizer)
            // noble-lint: allow(panic-path, "insert only fails on a byte budget's write-through, and this catalog is unbounded; the facade's public signature predates ServeError")
            .expect("an unbounded catalog never evicts, so insert cannot fail");
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.catalog.resident_len()
    }

    /// Whether the registry holds no shards.
    pub fn is_empty(&self) -> bool {
        self.catalog.resident_len() == 0
    }

    /// Shard keys in sorted order.
    pub fn keys(&self) -> Vec<ShardKey> {
        self.catalog.resident_keys()
    }
}
