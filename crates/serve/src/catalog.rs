//! The capacity-bounded model catalog: the resident tier of the serving
//! model lifecycle.
//!
//! A [`ModelCatalog`] answers every shard's requests while keeping only a
//! budgeted subset of models in memory:
//!
//! - **resident tier** — live [`Localizer`]s, LRU-tracked, bounded by a
//!   [`CatalogBudget`] (model count or estimated snapshot bytes);
//! - **store tier** — a pluggable [`ModelStore`] of serialized
//!   [`ModelSnapshot`]s; cold shards hydrate from here
//!   ([`noble::hydrate`], bit-identical to the original model);
//! - **spec tier** — registered [`TrainSpec`]s; shards with neither a
//!   resident model nor a stored snapshot retrain on demand with the
//!   same order-free derived seed the eager registry path uses, so a
//!   lazy retrain reproduces the eager model exactly.
//!
//! Eviction is write-through: a victim that is not yet in the store is
//!   snapshotted into it before its memory is released, so no answer is
//! ever lost — a later request hydrates the identical model back.
//! Models that cannot snapshot (the research baselines) and have no
//! spec are never evicted; they pin their budget share, and every time
//! eviction has to walk past one the [`CatalogStats::pinned`] counter
//! ticks so an un-honorable budget is observable.
//!
//! For serving, [`ModelCatalog::into_shared`] converts the catalog into
//! a [`SharedCatalog`]: the thread-shared face that the server's shard
//! workers lease models out of and release them back into
//! ([`crate::BatchServer::start`]). Faulting — store reads,
//! hydration, retraining — runs *outside* the shared state lock, so
//! concurrently faulting shards overlap instead of queueing behind one
//! another; only same-shard lease/release pairs are serialized.
//!
//! # Examples
//!
//! A budget of one resident model over three shards: inserts evict
//! least-recently-used victims through the store, and later requests
//! hydrate them back bit-identically.
//!
//! ```
//! use noble::wifi::KnnFingerprint;
//! use noble::Localizer;
//! use noble_datasets::{uji_campaign, UjiConfig};
//! use noble_serve::{CatalogBudget, ModelCatalog, ShardKey};
//!
//! let campaign = uji_campaign(&UjiConfig::small())?;
//! let probe = campaign.features(&campaign.test[..4]);
//!
//! let mut catalog = ModelCatalog::new(CatalogBudget::Count(1))?;
//! let mut expected = Vec::new();
//! for k in 1..=3 {
//!     let mut model: Box<dyn Localizer> = Box::new(KnnFingerprint::fit(&campaign, k)?);
//!     expected.push(model.localize_batch(&probe)?);
//!     catalog.insert(ShardKey::building(k), model)?;
//!     assert!(catalog.resident_len() <= 1, "budget of one enforced");
//! }
//! // All three shards still answer — cold ones fault back in from the
//! // store tier, bit-identical to the original models.
//! for (k, reference) in (1..=3).zip(&expected) {
//!     assert_eq!(&catalog.localize(ShardKey::building(k), &probe)?, reference);
//! }
//! assert!(catalog.stats().evictions >= 2);
//! assert!(catalog.stats().hydrations >= 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::registry::partition_campaign;
use crate::sync::{relock, rewait};
use crate::{shard_seed, MemStore, ModelStore, RegistryConfig, ServeError, ShardKey};
use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{hydrate, Localizer, LocalizerInfo, ModelSnapshot, NobleError};
use noble_datasets::{ImuDataset, WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Memory envelope of the resident tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogBudget {
    /// No bound: every model stays resident (what a trained
    /// [`crate::ShardedRegistry`] converts into).
    Unbounded,
    /// At most this many resident models.
    Count(usize),
    /// At most this many estimated bytes of resident models, measured as
    /// each model's encoded-snapshot size (the honest proxy for its
    /// parameter + table memory). A single model larger than the budget
    /// still serves — the bound applies to what *stays* resident around
    /// the active model.
    Bytes(usize),
}

impl CatalogBudget {
    fn validate(self) -> Result<(), ServeError> {
        match self {
            CatalogBudget::Count(0) => Err(ServeError::InvalidConfig(
                "catalog budget of 0 models cannot serve".into(),
            )),
            CatalogBudget::Bytes(0) => Err(ServeError::InvalidConfig(
                "catalog budget of 0 bytes cannot serve".into(),
            )),
            _ => Ok(()),
        }
    }
}

/// Lifecycle counters, readable via [`ModelCatalog::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Requests answered by an already-resident model.
    pub hits: u64,
    /// Requests that found the shard cold.
    pub misses: u64,
    /// Cold misses served by hydrating a stored snapshot.
    pub hydrations: u64,
    /// Cold misses served by retraining from a [`TrainSpec`].
    pub retrains: u64,
    /// Resident models retired to the store tier.
    pub evictions: u64,
    /// Times eviction needed room but had to walk past a model that can
    /// neither snapshot nor retrain. The model stays resident (pinned),
    /// which means the budget could not be fully honored — a nonzero
    /// count is the observable warning that an oversubscribed budget is
    /// being exceeded by unsnapshotable baselines.
    pub pinned: u64,
}

/// A recipe to (re)train one shard's model on demand. The seed is
/// derived from the shard key with [`shard_seed`] exactly as the eager
/// [`crate::ShardedRegistry::train_wifi`] path derives it, so a lazy
/// retrain is bit-identical to the model the eager path would have
/// produced.
pub enum TrainSpec {
    /// Train a [`WifiNoble`] on a (typically pre-partitioned) campaign.
    Wifi {
        /// The shard's training campaign.
        campaign: WifiCampaign,
        /// Model configuration; `cfg.seed` is the *base* seed.
        cfg: WifiNobleConfig,
    },
    /// Train an [`ImuNoble`] tracker on an IMU dataset.
    Imu {
        /// The shard's training dataset.
        dataset: ImuDataset,
        /// Model configuration; `cfg.seed` is the *base* seed.
        cfg: ImuNobleConfig,
    },
}

impl fmt::Debug for TrainSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainSpec::Wifi { campaign, .. } => f
                .debug_struct("TrainSpec::Wifi")
                .field("train_samples", &campaign.train.len())
                .finish_non_exhaustive(),
            TrainSpec::Imu { dataset, .. } => f
                .debug_struct("TrainSpec::Imu")
                .field("train_paths", &dataset.train.len())
                .finish_non_exhaustive(),
        }
    }
}

impl TrainSpec {
    /// Trains the shard model with the derived per-shard seed.
    fn train(&self, key: ShardKey) -> Result<Box<dyn Localizer>, ServeError> {
        match self {
            TrainSpec::Wifi { campaign, cfg } => {
                let mut shard_cfg = cfg.clone();
                shard_cfg.seed = shard_seed(cfg.seed, key);
                Ok(Box::new(WifiNoble::train(campaign, &shard_cfg)?))
            }
            TrainSpec::Imu { dataset, cfg } => {
                let mut shard_cfg = cfg.clone();
                shard_cfg.seed = shard_seed(cfg.seed, key);
                Ok(Box::new(ImuNoble::train(dataset, &shard_cfg)?))
            }
        }
    }
}

/// Relabels a localizer's site metadata with its shard key.
pub(crate) struct Sited<L> {
    pub(crate) site: String,
    pub(crate) inner: L,
}

impl<L: Localizer> Localizer for Sited<L> {
    fn info(&self) -> LocalizerInfo {
        self.inner.info().with_site(self.site.clone())
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        self.inner.localize_batch(features)
    }

    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        self.inner.try_snapshot()
    }
}

/// One resident model plus its LRU bookkeeping.
struct Resident {
    model: Box<dyn Localizer>,
    /// Encoded-snapshot size, the [`CatalogBudget::Bytes`] unit; `0` when
    /// unknown (non-snapshotable models under a count budget).
    cost: usize,
    last_used: u64,
    /// Model version (online-refresh lineage; `0` is the offline-trained
    /// generation). Carried so the shared catalog can tell a stale lease
    /// from the active generation.
    version: u64,
}

/// The capacity-bounded, store-backed shard model catalog (see the
/// module docs for the three tiers).
pub struct ModelCatalog {
    budget: CatalogBudget,
    store: Arc<dyn ModelStore>,
    specs: BTreeMap<ShardKey, Arc<TrainSpec>>,
    resident: BTreeMap<ShardKey, Resident>,
    /// Keys known to have a snapshot in the store tier (primed from
    /// `store.list()` at construction, maintained on every put).
    stored: BTreeSet<ShardKey>,
    clock: u64,
    stats: CatalogStats,
}

impl fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelCatalog")
            .field("budget", &self.budget)
            .field("resident", &self.resident_keys())
            .field("stored", &self.stored)
            .field("specs", &self.specs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ModelCatalog {
    /// An empty catalog backed by an in-memory store.
    ///
    /// Note the budget bounds *live models*, not total process memory:
    /// with the default [`MemStore`], every evicted model's snapshot
    /// bytes still live in this process (useful to bound the expensive
    /// part — resident networks with caches — or for tests). To actually
    /// shed memory with the model count, pair a budget with an on-disk
    /// store: [`ModelCatalog::with_store`] + [`crate::FsStore`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero budget.
    pub fn new(budget: CatalogBudget) -> Result<Self, ServeError> {
        Self::with_store(budget, Box::new(MemStore::new()))
    }

    /// An empty catalog over an existing store; snapshots already in the
    /// store immediately serve as cold shards.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a zero budget; propagates store
    /// listing failures.
    pub fn with_store(
        budget: CatalogBudget,
        store: Box<dyn ModelStore>,
    ) -> Result<Self, ServeError> {
        budget.validate()?;
        let stored: BTreeSet<ShardKey> = store.list()?.into_iter().collect();
        Ok(ModelCatalog {
            budget,
            store: Arc::from(store),
            specs: BTreeMap::new(),
            resident: BTreeMap::new(),
            stored,
            clock: 0,
            stats: CatalogStats::default(),
        })
    }

    /// The configured budget.
    pub fn budget(&self) -> CatalogBudget {
        self.budget
    }

    /// Lifecycle counters so far.
    pub fn stats(&self) -> CatalogStats {
        self.stats
    }

    /// Registers (or replaces) a live model for `key`, relabeling its
    /// site metadata with the shard key.
    ///
    /// # Errors
    ///
    /// Propagates write-through failures when the insert pushes the
    /// resident tier over budget and a victim must be stored first.
    pub fn insert(
        &mut self,
        key: ShardKey,
        localizer: Box<dyn Localizer>,
    ) -> Result<(), ServeError> {
        let model: Box<dyn Localizer> = Box::new(Sited {
            site: key.to_string(),
            inner: localizer,
        });
        // The byte budget needs each model's cost up front; the snapshot
        // is only built when that budget is active — and since it is in
        // hand, write it through now so a later eviction of this shard
        // never has to serialize the model a second time.
        let cost = match self.budget {
            CatalogBudget::Bytes(_) => match model.try_snapshot() {
                Some(snapshot) => {
                    self.store.put(key, &snapshot)?;
                    self.stored.insert(key);
                    snapshot.encoded_len()
                }
                None => 0,
            },
            _ => 0,
        };
        self.clock += 1;
        self.resident.insert(
            key,
            Resident {
                model,
                cost,
                last_used: self.clock,
                version: 0,
            },
        );
        self.enforce_budget(Some(key))
    }

    /// Registers a training recipe for a cold shard: the first request
    /// for `key` (with no resident model and no stored snapshot) trains
    /// it on demand, snapshots it into the store, and serves.
    pub fn register_spec(&mut self, key: ShardKey, spec: TrainSpec) {
        self.specs.insert(key, Arc::new(spec));
    }

    /// Partitions a WiFi campaign under the registry configuration and
    /// registers one *lazy* [`TrainSpec::Wifi`] per shard — nothing
    /// trains until a shard's first request arrives.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoShards`] when the campaign has no training
    /// samples.
    pub fn register_wifi_campaign(
        &mut self,
        campaign: &WifiCampaign,
        cfg: &WifiNobleConfig,
        reg: &RegistryConfig,
    ) -> Result<Vec<ShardKey>, ServeError> {
        let parts = partition_campaign(
            campaign,
            |s: &WifiSample| reg.policy.key_of(s),
            reg.max_train_samples_per_shard,
        );
        if parts.is_empty() {
            return Err(ServeError::NoShards);
        }
        let mut keys = Vec::with_capacity(parts.len());
        for (key, shard) in parts {
            self.register_spec(
                key,
                TrainSpec::Wifi {
                    campaign: shard,
                    cfg: cfg.clone(),
                },
            );
            keys.push(key);
        }
        Ok(keys)
    }

    /// Registers a lazy IMU tracker shard (the IMU serving path).
    pub fn register_imu_campaign(
        &mut self,
        key: ShardKey,
        dataset: ImuDataset,
        cfg: ImuNobleConfig,
    ) {
        self.register_spec(key, TrainSpec::Imu { dataset, cfg });
    }

    /// Every key the catalog can serve (resident ∪ stored ∪ specs),
    /// sorted.
    pub fn keys(&self) -> Vec<ShardKey> {
        let mut keys: BTreeSet<ShardKey> = self.resident.keys().copied().collect();
        keys.extend(self.stored.iter().copied());
        keys.extend(self.specs.keys().copied());
        keys.into_iter().collect()
    }

    /// Keys currently holding a live model, sorted.
    pub fn resident_keys(&self) -> Vec<ShardKey> {
        self.resident.keys().copied().collect()
    }

    /// Number of live models (what the budget bounds).
    pub fn resident_len(&self) -> usize {
        self.resident.len()
    }

    /// Number of servable shards across all tiers.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Whether no shard is servable.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty() && self.stored.is_empty() && self.specs.is_empty()
    }

    /// Metadata of every *resident* model, in key order.
    pub fn info(&self) -> Vec<LocalizerInfo> {
        self.resident.values().map(|r| r.model.info()).collect()
    }

    /// Mutable access to `key`'s model, faulting it in from the store or
    /// spec tier if cold (and evicting the least-recently-used resident
    /// models past the budget).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] when no tier knows `key`; propagates
    /// hydration, training and write-through failures.
    pub fn get_mut(&mut self, key: ShardKey) -> Result<&mut (dyn Localizer + '_), ServeError> {
        self.ensure_resident(key)?;
        self.clock += 1;
        let Some(entry) = self.resident.get_mut(&key) else {
            return Err(ServeError::UnknownShard(key));
        };
        entry.last_used = self.clock;
        Ok(entry.model.as_mut())
    }

    /// Routes a feature batch to its shard and localizes it, faulting
    /// the model in if cold.
    ///
    /// # Errors
    ///
    /// As [`ModelCatalog::get_mut`]; propagates model failures.
    pub fn localize(&mut self, key: ShardKey, features: &Matrix) -> Result<Vec<Point>, ServeError> {
        let shard = self.get_mut(key)?;
        shard.localize_batch(features).map_err(ServeError::from)
    }

    /// Snapshots every resident model into `store` (e.g. an
    /// [`crate::FsStore`] for warm restarts). Returns how many snapshots
    /// were written.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotSnapshotable`] when a resident model cannot
    /// serialize itself; propagates store failures.
    pub fn export_to(&self, store: &dyn ModelStore) -> Result<usize, ServeError> {
        for (key, resident) in &self.resident {
            let snapshot = resident
                .model
                .try_snapshot()
                .ok_or(ServeError::NotSnapshotable(*key))?;
            store.put(*key, &snapshot)?;
        }
        Ok(self.resident.len())
    }

    /// Converts the catalog into its thread-shared face for serving (see
    /// [`SharedCatalog`]). All three tiers carry over: resident models
    /// become the parked tier, the store and spec tiers serve cold
    /// faults.
    pub fn into_shared(self) -> SharedCatalog {
        let active = self
            .resident
            .iter()
            .filter(|(_, r)| r.version > 0)
            .map(|(k, r)| (*k, r.version))
            .collect();
        SharedCatalog {
            budget: self.budget,
            store: self.store,
            specs: self.specs,
            state: Mutex::new(SharedState {
                parked: self.resident,
                stored: self.stored,
                leased: BTreeSet::new(),
                pending: BTreeMap::new(),
                active,
                activating: BTreeSet::new(),
                clock: self.clock,
                stats: self.stats,
            }),
            released: Condvar::new(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Faults `key` into the resident tier.
    fn ensure_resident(&mut self, key: ShardKey) -> Result<(), ServeError> {
        if self.resident.contains_key(&key) {
            self.stats.hits += 1;
            return Ok(());
        }
        self.stats.misses += 1;
        let (model, cost, version): (Box<dyn Localizer>, usize, u64) =
            if let Some(snapshot) = self.store.get(key)? {
                self.stats.hydrations += 1;
                let model = hydrate(&snapshot)?;
                (
                    Box::new(Sited {
                        site: key.to_string(),
                        inner: model,
                    }),
                    snapshot.encoded_len(),
                    snapshot.version(),
                )
            } else if let Some(spec) = self.specs.get(&key) {
                self.stats.retrains += 1;
                let model = spec.train(key)?;
                // Write through immediately: the next cold miss hydrates
                // from the store instead of paying the retrain again.
                let cost = match model.try_snapshot() {
                    Some(snapshot) => {
                        self.store.put(key, &snapshot)?;
                        self.stored.insert(key);
                        snapshot.encoded_len()
                    }
                    None => 0,
                };
                (
                    Box::new(Sited {
                        site: key.to_string(),
                        inner: model,
                    }),
                    cost,
                    0,
                )
            } else {
                return Err(ServeError::UnknownShard(key));
            };
        self.clock += 1;
        self.resident.insert(
            key,
            Resident {
                model,
                cost,
                last_used: self.clock,
                version,
            },
        );
        self.enforce_budget(Some(key))
    }

    fn over_budget(&self) -> bool {
        match self.budget {
            CatalogBudget::Unbounded => false,
            CatalogBudget::Count(n) => self.resident.len() > n,
            CatalogBudget::Bytes(n) => {
                self.resident.values().map(|r| r.cost).sum::<usize>() > n && self.resident.len() > 1
            }
        }
    }

    /// Evicts least-recently-used resident models (never `protect`, the
    /// shard being served) until the budget holds or only unevictable
    /// models remain.
    fn enforce_budget(&mut self, protect: Option<ShardKey>) -> Result<(), ServeError> {
        while self.over_budget() {
            let mut candidates: Vec<(u64, ShardKey)> = self
                .resident
                .iter()
                .filter(|(k, _)| protect != Some(**k))
                .map(|(k, r)| (r.last_used, *k))
                .collect();
            candidates.sort_unstable();
            // Walk in strict LRU order. A victim whose model must be
            // serialized for the write-through is serialized exactly once
            // here — the snapshot is carried into the eviction rather
            // than probed and rebuilt.
            let mut victim: Option<(ShardKey, Option<ModelSnapshot>)> = None;
            for (_, k) in candidates {
                if self.stored.contains(&k) || self.specs.contains_key(&k) {
                    victim = Some((k, None)); // recoverable without serializing
                    break;
                }
                if let Some(snapshot) = self.resident[&k].model.try_snapshot() {
                    victim = Some((k, Some(snapshot)));
                    break;
                }
                // Pinned (unsnapshotable, no spec): the budget cannot be
                // honored for this model — count the walk-past so
                // oversubscribed-but-pinned budgets are observable, then
                // try the next-oldest.
                self.stats.pinned += 1;
            }
            let Some((victim, snapshot)) = victim else {
                // Everything left is pinned; staying over budget beats
                // losing a model.
                return Ok(());
            };
            self.evict_resident(victim, snapshot)?;
        }
        Ok(())
    }

    /// Retires one resident model, writing it through to the store first
    /// when it is not already there (`snapshot` carries a pre-built blob
    /// so the model is never serialized twice).
    fn evict_resident(
        &mut self,
        key: ShardKey,
        snapshot: Option<ModelSnapshot>,
    ) -> Result<(), ServeError> {
        let Some(resident) = self.resident.remove(&key) else {
            return Ok(());
        };
        if !self.stored.contains(&key) {
            match snapshot {
                Some(snapshot) => {
                    self.store.put(key, &snapshot)?;
                    self.stored.insert(key);
                }
                // A registered spec makes the shard retrainable; honoring
                // the caller's choice not to serialize keeps eviction of
                // spec-backed shards free (a later retrain writes through
                // in ensure_resident, converting the miss after that one
                // into a hydrate).
                None if self.specs.contains_key(&key) => {}
                None => match resident.model.try_snapshot() {
                    Some(snapshot) => {
                        self.store.put(key, &snapshot)?;
                        self.stored.insert(key);
                    }
                    None => {
                        // Unrecoverable: keep it resident and report.
                        self.resident.insert(key, resident);
                        return Err(ServeError::NotSnapshotable(key));
                    }
                },
            }
        }
        self.stats.evictions += 1;
        Ok(())
    }
}

/// What a leasing worker must do to materialize a cold model.
enum LeaseSource {
    Stored,
    Spec(Arc<TrainSpec>),
}

/// State of a [`SharedCatalog`] that changes under the lock. The store
/// and spec tiers live *outside* it: they are `&self`-safe, so the
/// expensive half of a fault (store reads, hydration, retraining) never
/// holds this lock.
struct SharedState {
    /// Models checked into the catalog and not leased out (the resident
    /// tier between serve cycles).
    parked: BTreeMap<ShardKey, Resident>,
    /// Keys known to have a snapshot in the store tier.
    stored: BTreeSet<ShardKey>,
    /// Keys whose model is currently leased to a shard worker.
    leased: BTreeSet<ShardKey>,
    /// Freshly activated models for keys whose previous generation is
    /// still leased out. The leasing worker picks its entry up at the
    /// next batch boundary ([`SharedCatalog::refresh_lease`]); release
    /// paths fold a leftover entry in so an activated model is never
    /// lost.
    pending: BTreeMap<ShardKey, Resident>,
    /// Activated model version per key; absent means "whatever the
    /// store's active slot says" (primed on first lease), which is `0`
    /// for shards that never refreshed.
    active: BTreeMap<ShardKey, u64>,
    /// Keys with an activation (or rollback) in flight — version
    /// allocation, archive and publish are serialized per key.
    activating: BTreeSet<ShardKey>,
    clock: u64,
    stats: CatalogStats,
}

/// The thread-shared face of a [`ModelCatalog`], built for serving
/// ([`crate::BatchServer::start`]).
///
/// Shard workers *lease* a model out of the catalog on their first
/// request (a parked-tier hit, a store-tier hydration, or a spec-tier
/// retrain — all bit-identical to the eager model) and *release* it back
/// when they spin down: either cold (write-through to the store, memory
/// freed) or parked (kept live for the next lease, the shutdown path).
///
/// Concurrency contract: the state lock only guards bookkeeping. Two
/// shards faulting at the same time hydrate or retrain concurrently;
/// only lease/release pairs *for the same shard* serialize (a new lease
/// waits until the previous worker has released the key, so a spinning-
/// down worker's write-through always completes before a successor
/// rehydrates).
pub struct SharedCatalog {
    budget: CatalogBudget,
    store: Arc<dyn ModelStore>,
    specs: BTreeMap<ShardKey, Arc<TrainSpec>>,
    state: Mutex<SharedState>,
    /// Signals lease releases and activation completions (same-shard
    /// waiters re-check here).
    released: Condvar,
    /// Bumped on every activation/rollback. Shard workers cache the value
    /// and re-check it between batches — one relaxed atomic load per
    /// batch — so a version bump is picked up at a batch boundary without
    /// ever taking the state lock on the fast path.
    epoch: AtomicU64,
}

impl fmt::Debug for SharedCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = relock(&self.state);
        f.debug_struct("SharedCatalog")
            .field("budget", &self.budget)
            .field("parked", &state.parked.keys().collect::<Vec<_>>())
            .field("leased", &state.leased)
            .field("stored", &state.stored)
            .field("specs", &self.specs.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl SharedCatalog {
    /// The configured budget (enforced across *leased* models by the
    /// server, and across parked models when converting back to a
    /// [`ModelCatalog`]).
    pub fn budget(&self) -> CatalogBudget {
        self.budget
    }

    /// Lifecycle counters so far.
    pub fn stats(&self) -> CatalogStats {
        relock(&self.state).stats
    }

    /// Every key the catalog can serve (parked ∪ leased ∪ stored ∪
    /// specs), sorted.
    pub fn keys(&self) -> Vec<ShardKey> {
        let state = relock(&self.state);
        let mut keys: BTreeSet<ShardKey> = state.parked.keys().copied().collect();
        keys.extend(state.leased.iter().copied());
        keys.extend(state.stored.iter().copied());
        keys.extend(self.specs.keys().copied());
        keys.into_iter().collect()
    }

    /// Number of models currently leased to shard workers.
    pub fn leased_len(&self) -> usize {
        relock(&self.state).leased.len()
    }

    /// Checks `key`'s model out of the catalog for exclusive use by one
    /// shard worker, faulting it in (parked hit → store hydration → spec
    /// retrain) if cold. Returns the model, its budget cost (encoded
    /// snapshot bytes; `0` when unknown) and its model version.
    ///
    /// Blocks while a previous worker still holds `key`'s lease, so a
    /// spin-down's write-through always completes before the re-fault.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] when no tier knows `key`; propagates
    /// hydration, training and store failures (the lease is not held on
    /// error).
    pub(crate) fn lease(
        &self,
        key: ShardKey,
    ) -> Result<(Box<dyn Localizer>, usize, u64), ServeError> {
        let source = {
            let mut state = relock(&self.state);
            while state.leased.contains(&key) {
                state = rewait(&self.released, state);
            }
            if let Some(parked) = state.parked.remove(&key) {
                state.stats.hits += 1;
                state.leased.insert(key);
                return Ok((parked.model, parked.cost, parked.version));
            }
            state.stats.misses += 1;
            if state.stored.contains(&key) {
                state.leased.insert(key);
                LeaseSource::Stored
            } else if let Some(spec) = self.specs.get(&key) {
                state.leased.insert(key);
                LeaseSource::Spec(Arc::clone(spec))
            } else {
                return Err(ServeError::UnknownShard(key));
            }
        };
        // The expensive half — a store read + hydration, or a full
        // retrain — runs outside the state lock so concurrently faulting
        // shards overlap instead of queueing behind one another.
        let outcome: Result<(Box<dyn Localizer>, usize, u64, bool), ServeError> = match source {
            LeaseSource::Stored => self
                .store
                .get(key)
                .and_then(|snapshot| {
                    snapshot.ok_or_else(|| {
                        ServeError::Store(format!("snapshot for shard {key} vanished from store"))
                    })
                })
                .and_then(|snapshot| {
                    let model = hydrate(&snapshot)?;
                    Ok((
                        Box::new(Sited {
                            site: key.to_string(),
                            inner: model,
                        }) as Box<dyn Localizer>,
                        snapshot.encoded_len(),
                        snapshot.version(),
                        false,
                    ))
                }),
            LeaseSource::Spec(spec) => spec.train(key).and_then(|model| {
                // Write through immediately: the next cold fault hydrates
                // instead of paying the retrain again.
                let cost = match model.try_snapshot() {
                    Some(snapshot) => {
                        self.store.put(key, &snapshot)?;
                        snapshot.encoded_len()
                    }
                    None => 0,
                };
                Ok((
                    Box::new(Sited {
                        site: key.to_string(),
                        inner: model,
                    }) as Box<dyn Localizer>,
                    cost,
                    0,
                    true,
                ))
            }),
        };
        let mut state = relock(&self.state);
        match outcome {
            Ok((model, cost, version, retrained)) => {
                if retrained {
                    state.stats.retrains += 1;
                    if cost > 0 {
                        state.stored.insert(key);
                    }
                } else {
                    state.stats.hydrations += 1;
                }
                // Prime the version map from the hydrated snapshot's
                // stamp (restart recovery: the active slot is the source
                // of truth until an in-process activation overrides it).
                state.active.entry(key).or_insert(version);
                Ok((model, cost, version))
            }
            Err(e) => {
                state.leased.remove(&key);
                self.released.notify_all();
                Err(e)
            }
        }
    }

    /// Checks a leased model back in *cold*: writes it through to the
    /// store if it is not already there, then releases its memory (the
    /// spin-down path). A model that can neither snapshot nor retrain is
    /// parked instead of dropped — never lost — and the
    /// [`CatalogStats::pinned`] warning counter ticks.
    ///
    /// `version` is the generation the worker was serving. When a newer
    /// generation was activated during the lease, the returned model is
    /// stale: its bytes are already archived and the successor's bytes
    /// already occupy the store's active slot, so both the stale model
    /// and the superseding pending model can be dropped — the next fault
    /// hydrates the active generation.
    pub(crate) fn release_cold(
        &self,
        key: ShardKey,
        model: Box<dyn Localizer>,
        cost: usize,
        version: u64,
    ) {
        let superseded = {
            let mut state = relock(&self.state);
            state.pending.remove(&key)
        };
        if let Some(fresh) = superseded {
            // Activation already wrote the fresh generation's bytes to
            // the active slot, so neither live copy needs a write-through.
            drop(model);
            drop(fresh);
            let mut state = relock(&self.state);
            state.stats.evictions += 1;
            state.leased.remove(&key);
            self.released.notify_all();
            return;
        }
        let needs_write = {
            let state = relock(&self.state);
            !state.stored.contains(&key)
        };
        if needs_write {
            // Serialization and the store write run outside the lock.
            match model.try_snapshot() {
                Some(snapshot) => match self.store.put(key, &snapshot.with_version(version)) {
                    Ok(()) => {
                        relock(&self.state).stored.insert(key);
                    }
                    Err(e) => {
                        // Failing the write-through must not lose the
                        // model: park it and keep serving from memory.
                        eprintln!(
                            "noble-serve: spin-down write-through for shard {key} failed ({e}); \
                             keeping the model resident"
                        );
                        return self.release_parked(key, model, cost, version);
                    }
                },
                // Retrainable from its spec: dropping is safe.
                None if self.specs.contains_key(&key) => {}
                None => {
                    relock(&self.state).stats.pinned += 1;
                    return self.release_parked(key, model, cost, version);
                }
            }
        }
        drop(model);
        let mut state = relock(&self.state);
        state.stats.evictions += 1;
        state.leased.remove(&key);
        self.released.notify_all();
    }

    /// Checks a leased model back in *live*: it stays parked in the
    /// resident tier for the next lease (the server-shutdown path, so
    /// converting back to a [`ModelCatalog`] hands warm models back).
    /// A pending activation supersedes the returned model — the fresh
    /// generation parks, the stale one drops.
    pub(crate) fn release_parked(
        &self,
        key: ShardKey,
        model: Box<dyn Localizer>,
        cost: usize,
        version: u64,
    ) {
        let stale;
        {
            let mut state = relock(&self.state);
            state.clock += 1;
            let last_used = state.clock;
            let resident = match state.pending.remove(&key) {
                Some(mut fresh) => {
                    fresh.last_used = last_used;
                    stale = Some(model);
                    fresh
                }
                None => {
                    stale = None;
                    Resident {
                        model,
                        cost,
                        last_used,
                        version,
                    }
                }
            };
            state.parked.insert(key, resident);
            state.leased.remove(&key);
        }
        self.released.notify_all();
        drop(stale);
    }

    /// Drains the shared state back into a single-threaded
    /// [`ModelCatalog`] (parked models become the resident tier, trimmed
    /// back under the budget with write-through evictions). Any model
    /// still leased when this runs stays with its worker and is simply
    /// absent — the server only calls this after joining every
    /// worker.
    ///
    /// # Errors
    ///
    /// Propagates write-through failures while trimming to the budget.
    pub(crate) fn drain_into_catalog(&self) -> Result<ModelCatalog, ServeError> {
        let mut state = relock(&self.state);
        debug_assert!(
            state.leased.is_empty(),
            "draining a SharedCatalog with live leases loses models"
        );
        let pending = std::mem::take(&mut state.pending);
        let mut resident = std::mem::take(&mut state.parked);
        resident.extend(pending);
        let mut catalog = ModelCatalog {
            budget: self.budget,
            store: Arc::clone(&self.store),
            specs: self.specs.clone(),
            resident,
            stored: state.stored.clone(),
            clock: state.clock,
            stats: state.stats,
        };
        drop(state);
        catalog.enforce_budget(None)?;
        Ok(catalog)
    }

    // -----------------------------------------------------------------
    // Online refresh: versioned activation, rollback, batch-boundary
    // pickup. See ARCHITECTURE.md, "Online refresh".
    // -----------------------------------------------------------------

    /// The activated model version of `key`: `0` until the first
    /// [`SharedCatalog::activate`] (or after a rollback to the offline
    /// generation). Absent keys report `0`.
    ///
    /// Note the map is primed lazily: after a restart the authoritative
    /// version lives in the store's active slot and is learned on the
    /// first lease or activation of the key.
    pub fn active_version(&self, key: ShardKey) -> u64 {
        relock(&self.state).active.get(&key).copied().unwrap_or(0)
    }

    /// Archived (rollback-able) version numbers of `key`, ascending —
    /// a store passthrough.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn archived_versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.store.versions(key)
    }

    /// The swap epoch: bumped on every activation and rollback. Workers
    /// cache it and compare between batches; an unchanged epoch is one
    /// relaxed load, so the serving fast path never touches the state
    /// lock for version checks.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The training spec registered for `key` (the refresher's retrain
    /// recipe).
    pub(crate) fn spec_of(&self, key: ShardKey) -> Option<Arc<TrainSpec>> {
        self.specs.get(&key).map(Arc::clone)
    }

    /// Builds and activates the next model generation of `key`.
    ///
    /// `build` receives the allocated version number and returns the new
    /// model — it runs *off the serving path* (no catalog lock held, the
    /// current generation keeps serving untouched). The activation
    /// contract, in order:
    ///
    /// 1. the predecessor generation is archived if it never was (so the
    ///    first refresh makes version 0 rollback-able);
    /// 2. the new model is snapshotted through the store as an immutable
    ///    version archive **before** activation;
    /// 3. the same bytes are published to the store's active slot (a
    ///    restart rehydrates to the new version);
    /// 4. the in-memory flip: parked keys swap immediately, leased keys
    ///    get a pending entry their worker picks up at the next batch
    ///    boundary — never mid-batch — and the swap epoch bumps.
    ///
    /// Activations and rollbacks of the same key are serialized against
    /// each other (concurrent calls for different keys overlap).
    /// Version numbers are never reused: after a rollback, the next
    /// activation continues above the highest archived version.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotSnapshotable`] when the built model cannot
    /// serialize itself (nothing is activated); propagates store and
    /// build failures.
    pub fn activate<F>(&self, key: ShardKey, build: F) -> Result<u64, ServeError>
    where
        F: FnOnce(u64) -> Result<Box<dyn Localizer>, ServeError>,
    {
        let current = self.begin_activation(key);
        let outcome = (|| {
            // Lineage recovery from the store: the active slot may be
            // ahead of the in-memory map (fresh process), and archived
            // numbers must never be reused (rollback rewinds `active`
            // but not history).
            let slot = self.store.get(key)?;
            let slot_version = slot.as_ref().map_or(0, ModelSnapshot::version);
            let archived = self.store.versions(key)?;
            if let Some(slot_snap) = &slot {
                if !archived.contains(&slot_version) {
                    self.store.put_version(key, slot_version, slot_snap)?;
                }
            }
            let version = archived
                .last()
                .copied()
                .unwrap_or(0)
                .max(slot_version)
                .max(current)
                + 1;
            let model = build(version)?;
            let model: Box<dyn Localizer> = Box::new(Sited {
                site: key.to_string(),
                inner: model,
            });
            let snapshot = model
                .try_snapshot()
                .ok_or(ServeError::NotSnapshotable(key))?
                .with_version(version);
            // Archive first, then publish the active slot: every version
            // is durably snapshotted before anything serves it.
            self.store.put_version(key, version, &snapshot)?;
            self.store.put(key, &snapshot)?;
            Ok((version, model, snapshot.encoded_len()))
        })();
        self.finish_activation(key, outcome)
    }

    /// Rewinds `key` to an archived `version`: rehydrates its bytes,
    /// republishes them as the store's active slot, and flips serving to
    /// the restored model with the same batch-boundary discipline as
    /// [`SharedCatalog::activate`]. The restored model is bit-identical
    /// to the one that was archived (snapshot hydration is exact).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVersion`] when `version` was never archived
    /// for `key`; propagates store and hydration failures (serving is
    /// untouched on error).
    pub fn rollback(&self, key: ShardKey, version: u64) -> Result<(), ServeError> {
        self.begin_activation(key);
        let outcome = (|| {
            let snapshot = self
                .store
                .get_version(key, version)?
                .ok_or(ServeError::UnknownVersion { key, version })?;
            let model = hydrate(&snapshot)?;
            let model: Box<dyn Localizer> = Box::new(Sited {
                site: key.to_string(),
                inner: model,
            });
            // Republish the archived bytes as the active slot so a
            // restart rehydrates to the rolled-back version.
            self.store.put(key, &snapshot)?;
            Ok((version, model, snapshot.encoded_len()))
        })();
        self.finish_activation(key, outcome).map(|_| ())
    }

    /// Claims the per-key activation slot, waiting out an in-flight
    /// activation of the same key. Returns the current active version.
    fn begin_activation(&self, key: ShardKey) -> u64 {
        let mut state = relock(&self.state);
        while state.activating.contains(&key) {
            state = rewait(&self.released, state);
        }
        state.activating.insert(key);
        state.active.get(&key).copied().unwrap_or(0)
    }

    /// Publishes (or abandons, on error) an activation: flips the active
    /// version, routes the model to the parked tier or the leased
    /// worker's pending slot, bumps the swap epoch and releases the
    /// per-key activation slot.
    fn finish_activation(
        &self,
        key: ShardKey,
        outcome: Result<(u64, Box<dyn Localizer>, usize), ServeError>,
    ) -> Result<u64, ServeError> {
        let mut state = relock(&self.state);
        state.activating.remove(&key);
        let result = match outcome {
            Ok((version, model, cost)) => {
                state.clock += 1;
                let resident = Resident {
                    model,
                    cost,
                    last_used: state.clock,
                    version,
                };
                state.stored.insert(key);
                state.active.insert(key, version);
                if state.leased.contains(&key) {
                    // The worker picks this up at its next batch
                    // boundary; a second activation before that simply
                    // replaces the entry (the dropped generation is
                    // archived).
                    state.pending.insert(key, resident);
                } else {
                    state.parked.insert(key, resident);
                }
                self.epoch.fetch_add(1, Ordering::Release);
                Ok(version)
            }
            Err(e) => Err(e),
        };
        drop(state);
        self.released.notify_all();
        result
    }

    /// A paged worker's between-batches version check: given the version
    /// it is serving, returns the fresh `(model, cost, version)` to swap
    /// to at this batch boundary, or `None` to keep serving. Never
    /// blocks on training — the fresh model was built off-path and is
    /// waiting in the pending slot (the rare fallback rehydrates the
    /// store's active slot). On any store/hydration hiccup the worker
    /// keeps its current generation: refresh machinery must never
    /// degrade serving.
    pub(crate) fn refresh_lease(
        &self,
        key: ShardKey,
        serving: u64,
    ) -> Option<(Box<dyn Localizer>, usize, u64)> {
        {
            let mut state = relock(&self.state);
            let active = state.active.get(&key).copied().unwrap_or(serving);
            if active == serving {
                return None;
            }
            if let Some(fresh) = state.pending.remove(&key) {
                return Some((fresh.model, fresh.cost, fresh.version));
            }
        }
        // No live pending copy (e.g. consecutive swaps raced): fall back
        // to the active slot's bytes.
        let snapshot = self.store.get(key).ok().flatten()?;
        if snapshot.version() == serving {
            return None;
        }
        let cost = snapshot.encoded_len();
        let version = snapshot.version();
        let model = hydrate(&snapshot).ok()?;
        Some((
            Box::new(Sited {
                site: key.to_string(),
                inner: model,
            }),
            cost,
            version,
        ))
    }
}
