//! The capacity-bounded model catalog: the one type that owns a shard
//! model's lifecycle, from training recipe through store to memory and
//! back.
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
//! One fault path turns a key into a model: a *lease* takes the parked
//! model if there is one, else hydrates the stored snapshot, else
//! retrains from the spec. One write-through moves a model's only copy
//! out of memory: it stores the model's snapshot stamped with the
//! version it serves, whether the model leaves through LRU eviction, a
//! server worker's spin-down, or [`ModelCatalog::export_to`]. So no
//! answer is ever lost — a later request hydrates the identical model
//! at the same version. Models that cannot leave memory safely — they
//! cannot snapshot (the research baselines) and have no spec, or the
//! store refused their write-through — are never evicted; they pin their
//! budget share, and every time eviction has to walk past one the
//! [`CatalogStats::pinned`] counter ticks so an un-honorable budget is
//! observable.
//!
//! The same value serves both owners. Owned, [`ModelCatalog::localize`]
//! leases, serves, parks and trims in the caller's thread, and the
//! `&mut self` calls (inserts, trims, exports) reach the state without
//! locking. Handed to
//! [`crate::BatchServer::start`], it is shared by every shard worker:
//! workers lease models out and release them back when they spin down.
//! Faulting — store reads, hydration, retraining, write-through — runs
//! *outside* the state lock, so concurrently faulting shards overlap
//! instead of queueing behind one another; only same-shard
//! lease/release pairs are serialized.
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
use noble::{hydrate, Localizer, LocalizerInfo, ModelSnapshot};
use noble_datasets::{ImuDataset, WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

    /// Whether the parked models exceed the budget. A byte budget
    /// always admits one model, however large.
    fn exceeded_by(self, parked: &BTreeMap<ShardKey, Resident>) -> bool {
        match self {
            CatalogBudget::Unbounded => false,
            CatalogBudget::Count(n) => parked.len() > n,
            CatalogBudget::Bytes(n) => {
                parked.len() > 1 && parked.values().map(|r| r.cost).sum::<usize>() > n
            }
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
    /// Times eviction needed room but had to keep a model that cannot
    /// leave memory safely: it can neither snapshot nor retrain, or the
    /// store refused its write-through. The model stays resident
    /// (pinned), which means the budget could not be fully honored — a
    /// nonzero count is the observable warning that an oversubscribed
    /// budget is being exceeded by unsnapshotable baselines or a failing
    /// store.
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

/// Writes `model`'s snapshot, stamped with `version`, to `store`'s
/// active slot for `key` — the one write-through behind LRU eviction,
/// worker spin-down, spec retrains, byte-budget inserts and
/// [`ModelCatalog::export_to`]. Returns the encoded size, or `None` when
/// the model cannot snapshot.
fn write_through(
    store: &dyn ModelStore,
    key: ShardKey,
    model: &dyn Localizer,
    version: u64,
) -> Result<Option<usize>, ServeError> {
    let Some(snapshot) = model.try_snapshot() else {
        return Ok(None);
    };
    let snapshot = snapshot.with_version(version);
    store.put(key, &snapshot)?;
    Ok(Some(snapshot.encoded_len()))
}

/// The state of an owned catalog, reached without locking.
fn unlocked(state: &mut Mutex<State>) -> &mut State {
    state.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// One resident model plus its LRU bookkeeping.
struct Resident {
    model: Box<dyn Localizer>,
    /// Encoded-snapshot size, the [`CatalogBudget::Bytes`] unit; `0` when
    /// unknown (non-snapshotable models under a count budget).
    cost: usize,
    last_used: u64,
    /// Model version (online-refresh lineage; `0` is the offline-trained
    /// generation). Stamped onto the model's write-through, and lets a
    /// worker tell a stale lease from the active generation.
    version: u64,
}

/// What a leasing worker must do to materialize a cold model.
enum LeaseSource {
    Stored,
    Spec(Arc<TrainSpec>),
}

/// Catalog state that changes under the lock. The store and spec tiers
/// live *outside* it: they are `&self`-safe, so the expensive half of a
/// fault (store reads, hydration, retraining) never holds this lock.
#[derive(Default)]
struct State {
    /// Models checked into the catalog and not leased out (the resident
    /// tier).
    parked: BTreeMap<ShardKey, Resident>,
    /// Keys known to have a snapshot in the store tier (primed from
    /// `store.list()` at construction, maintained on every put).
    stored: BTreeSet<ShardKey>,
    /// Keys whose model is currently leased out.
    leased: BTreeSet<ShardKey>,
    /// Freshly activated models for keys whose previous generation is
    /// still leased out. The leasing worker picks its entry up at the
    /// next batch boundary ([`ModelCatalog::refresh_lease`]); release
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

/// The capacity-bounded, store-backed shard model catalog (see the
/// module docs for the three tiers and the lifecycle).
///
/// Owned, it is a single-threaded LRU cache of models. Passed to
/// [`crate::BatchServer::start`], the same catalog is shared by the
/// server's shard workers, and [`crate::BatchServer::shutdown_with_catalog`]
/// hands it back with every tier intact.
pub struct ModelCatalog {
    budget: CatalogBudget,
    store: Arc<dyn ModelStore>,
    specs: BTreeMap<ShardKey, Arc<TrainSpec>>,
    state: Mutex<State>,
    /// Signals lease releases and activation completions (same-shard
    /// waiters re-check here).
    released: Condvar,
    /// Bumped on every activation/rollback. Shard workers cache the value
    /// and re-check it between batches — one atomic load per batch — so
    /// a version bump is picked up at a batch boundary without ever
    /// taking the state lock on the fast path.
    epoch: AtomicU64,
}

/// Hands a lease back, freeing its key to be leased again, unless
/// [`ModelCatalog::lease`] forgets it once its fault-in succeeds: a failed
/// or unwinding fault-in never leaves the key leased for good.
struct HandBack<'a> {
    catalog: &'a ModelCatalog,
    key: ShardKey,
}

impl Drop for HandBack<'_> {
    fn drop(&mut self) {
        relock(&self.catalog.state).leased.remove(&self.key);
        self.catalog.released.notify_all();
    }
}

impl fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = relock(&self.state);
        f.debug_struct("ModelCatalog")
            .field("budget", &self.budget)
            .field("parked", &state.parked.keys().collect::<Vec<_>>())
            .field("leased", &state.leased)
            .field("stored", &state.stored)
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
            state: Mutex::new(State {
                stored,
                ..State::default()
            }),
            released: Condvar::new(),
            epoch: AtomicU64::new(0),
        })
    }

    /// The configured budget.
    pub fn budget(&self) -> CatalogBudget {
        self.budget
    }

    /// Lifecycle counters so far.
    pub fn stats(&self) -> CatalogStats {
        relock(&self.state).stats
    }

    /// Registers (or replaces) a live model for `key`;
    /// [`ModelCatalog::info`] labels its site with the shard key.
    ///
    /// # Errors
    ///
    /// Under a [`CatalogBudget::Bytes`] budget, propagates the failure to
    /// write the new model through (the model is then not inserted). A
    /// victim the insert pushes out that cannot be stored stays resident
    /// instead (see [`CatalogStats::pinned`]).
    pub fn insert(
        &mut self,
        key: ShardKey,
        localizer: Box<dyn Localizer>,
    ) -> Result<(), ServeError> {
        // The byte budget needs each model's cost up front; the snapshot
        // is only built when that budget is active — and since it is in
        // hand, write it through now so a later eviction of this shard
        // never has to serialize the model a second time.
        let written = match self.budget {
            CatalogBudget::Bytes(_) => {
                write_through(self.store.as_ref(), key, localizer.as_ref(), 0)?
            }
            _ => None,
        };
        let state = unlocked(&mut self.state);
        if written.is_some() {
            state.stored.insert(key);
        }
        state.clock += 1;
        state.parked.insert(
            key,
            Resident {
                model: localizer,
                cost: written.unwrap_or(0),
                last_used: state.clock,
                version: 0,
            },
        );
        self.trim(Some(key));
        Ok(())
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

    /// Every key the catalog can serve (resident ∪ leased ∪ stored ∪
    /// specs), sorted.
    pub fn keys(&self) -> Vec<ShardKey> {
        let state = relock(&self.state);
        let mut keys: BTreeSet<ShardKey> = state.parked.keys().copied().collect();
        keys.extend(state.leased.iter().copied());
        keys.extend(state.stored.iter().copied());
        keys.extend(self.specs.keys().copied());
        keys.into_iter().collect()
    }

    /// Keys currently holding a live model, sorted.
    pub fn resident_keys(&self) -> Vec<ShardKey> {
        relock(&self.state).parked.keys().copied().collect()
    }

    /// Number of live models (what the budget bounds).
    pub fn resident_len(&self) -> usize {
        relock(&self.state).parked.len()
    }

    /// Number of servable shards across all tiers.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// Whether no shard is servable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata of every *resident* model, in key order, with each
    /// model's site labeled by its shard key.
    pub fn info(&self) -> Vec<LocalizerInfo> {
        relock(&self.state)
            .parked
            .iter()
            .map(|(key, r)| r.model.info().with_site(key.to_string()))
            .collect()
    }

    /// Routes a feature batch to its shard and localizes it: the model is
    /// leased (faulting it in if cold), serves, parks again, and the
    /// least-recently-used models past the budget are written through
    /// and evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] when no tier knows `key`; propagates
    /// hydration, training, model and write-through failures.
    pub fn localize(&mut self, key: ShardKey, features: &Matrix) -> Result<Vec<Point>, ServeError> {
        let (mut model, cost, version) = self.lease(key)?;
        let points = model.localize_batch(features);
        self.release_parked(key, model, cost, version);
        self.trim(Some(key));
        points.map_err(ServeError::from)
    }

    /// Snapshots every resident model into `store` (e.g. an
    /// [`crate::FsStore`] for warm restarts), each stamped with the
    /// version it serves, so a catalog restarted from `store` reports
    /// the same active versions. Returns how many snapshots were
    /// written.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotSnapshotable`] when a resident model cannot
    /// serialize itself; propagates store failures.
    pub fn export_to(&mut self, store: &dyn ModelStore) -> Result<usize, ServeError> {
        let parked = &unlocked(&mut self.state).parked;
        for (key, resident) in parked {
            write_through(store, *key, resident.model.as_ref(), resident.version)?
                .ok_or(ServeError::NotSnapshotable(*key))?;
        }
        Ok(parked.len())
    }

    /// Moves every tier out into a fresh catalog trimmed back under the
    /// budget: the server's shutdown hand-back, run once every worker
    /// has released its lease.
    pub(crate) fn take(&self) -> ModelCatalog {
        let mut state = std::mem::take(&mut *relock(&self.state));
        debug_assert!(
            state.leased.is_empty(),
            "taking a catalog with live leases loses models"
        );
        let pending = std::mem::take(&mut state.pending);
        state.parked.extend(pending);
        let mut catalog = ModelCatalog {
            budget: self.budget,
            store: Arc::clone(&self.store),
            specs: self.specs.clone(),
            state: Mutex::new(state),
            released: Condvar::new(),
            epoch: AtomicU64::new(0),
        };
        catalog.trim(None);
        catalog
    }

    /// Evicts least-recently-used parked models (never `protect`, the
    /// shard just served) until the budget holds or only pinned models
    /// remain. A victim the store does not hold yet is written through
    /// first; one that can neither be stored nor retrained stays
    /// resident, pinned.
    fn trim(&mut self, protect: Option<ShardKey>) {
        let ModelCatalog {
            budget,
            store,
            specs,
            state,
            ..
        } = self;
        let state = unlocked(state);
        let mut pinned = BTreeSet::new();
        while budget.exceeded_by(&state.parked) {
            let victim = state
                .parked
                .iter()
                .filter(|(k, _)| protect != Some(**k) && !pinned.contains(*k))
                .min_by_key(|(_, r)| r.last_used);
            let Some((&key, victim)) = victim else {
                // Everything left is pinned; staying over budget beats
                // losing a model.
                return;
            };
            let evictable = state.stored.contains(&key)
                || match write_through(store.as_ref(), key, victim.model.as_ref(), victim.version) {
                    Ok(Some(_)) => {
                        state.stored.insert(key);
                        true
                    }
                    // Unsnapshotable: dropping is safe only with a spec.
                    Ok(None) => specs.contains_key(&key),
                    Err(e) => {
                        eprintln!(
                            "noble-serve: eviction write-through for shard {key} failed ({e}); \
                             keeping the model resident"
                        );
                        false
                    }
                };
            if !evictable {
                // Pinned: count the walk-past so oversubscribed-but-
                // pinned budgets are observable, then try the next-oldest.
                state.stats.pinned += 1;
                pinned.insert(key);
                continue;
            }
            state.parked.remove(&key);
            state.stats.evictions += 1;
        }
    }

    /// Checks `key`'s model out of the catalog for exclusive use,
    /// faulting it in (parked hit → store hydration → spec retrain) if
    /// cold — the only code that turns a key into a model. Returns the
    /// model, its budget cost (encoded snapshot bytes; `0` when unknown)
    /// and its model version.
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
        // shards overlap instead of queueing behind one another. Until it
        // succeeds, the guard hands the key back on every way out: an
        // error, or an unwind (a panicking store, hydration or retrain).
        let lease = HandBack { catalog: self, key };
        let (model, cost, version, retrained) = match source {
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
                    Ok((model, snapshot.encoded_len(), snapshot.version(), false))
                }),
            LeaseSource::Spec(spec) => spec.train(key).and_then(|model| {
                // Write through immediately: the next cold fault hydrates
                // instead of paying the retrain again.
                let cost = write_through(self.store.as_ref(), key, model.as_ref(), 0)?;
                Ok((model, cost.unwrap_or(0), 0, true))
            }),
        }?;
        std::mem::forget(lease);
        let mut state = relock(&self.state);
        if retrained {
            state.stats.retrains += 1;
            if cost > 0 {
                state.stored.insert(key);
            }
        } else {
            state.stats.hydrations += 1;
        }
        // Prime the version map from the hydrated snapshot's stamp
        // (restart recovery: the active slot is the source of truth until
        // an in-process activation overrides it).
        state.active.entry(key).or_insert(version);
        Ok((model, cost, version))
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
        let (superseded, stored) = {
            let mut state = relock(&self.state);
            (state.pending.remove(&key), state.stored.contains(&key))
        };
        // Activation already wrote a superseding generation's bytes to
        // the active slot, so neither live copy needs a write-through.
        // Otherwise serialization and the store write run outside the
        // lock.
        if superseded.is_none() && !stored {
            let droppable = match write_through(self.store.as_ref(), key, model.as_ref(), version) {
                Ok(Some(_)) => {
                    relock(&self.state).stored.insert(key);
                    true
                }
                // Unsnapshotable: dropping is safe only with a spec.
                Ok(None) => self.specs.contains_key(&key),
                Err(e) => {
                    eprintln!(
                        "noble-serve: spin-down write-through for shard {key} failed ({e}); \
                         keeping the model resident"
                    );
                    false
                }
            };
            if !droppable {
                // Dropping would lose the only copy: park it (pinned)
                // and keep serving from memory.
                relock(&self.state).stats.pinned += 1;
                return self.release_parked(key, model, cost, version);
            }
        }
        drop(model);
        drop(superseded);
        let mut state = relock(&self.state);
        state.stats.evictions += 1;
        state.leased.remove(&key);
        self.released.notify_all();
    }

    /// Checks a leased model back in *live*: it stays parked in the
    /// resident tier for the next lease (the owned `localize` path and
    /// the server-shutdown path, so the handed-back catalog keeps warm
    /// models). A pending activation supersedes the returned model — the
    /// fresh generation parks, the stale one drops.
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

    /// Ends a lease whose model was lost to an unwinding worker. A pending
    /// activation parks in its place, so an activated model is never lost.
    pub(crate) fn abandon_lease(&self, key: ShardKey) {
        let mut state = relock(&self.state);
        if let Some(fresh) = state.pending.remove(&key) {
            state.parked.insert(key, fresh);
        }
        state.leased.remove(&key);
        self.released.notify_all();
    }

    // -----------------------------------------------------------------
    // Online refresh: versioned activation, rollback, batch-boundary
    // pickup. See ARCHITECTURE.md, "Online refresh".
    // -----------------------------------------------------------------

    /// The activated model version of `key`: `0` until the first
    /// [`ModelCatalog::activate`] (or after a rollback to the offline
    /// generation). Absent keys report `0`.
    ///
    /// Note the map is primed lazily: after a restart the authoritative
    /// version lives in the store's active slot and is learned on the
    /// first lease or activation of the key.
    pub(crate) fn active_version(&self, key: ShardKey) -> u64 {
        relock(&self.state).active.get(&key).copied().unwrap_or(0)
    }

    /// Archived (rollback-able) version numbers of `key`, ascending —
    /// a store passthrough.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub(crate) fn archived_versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.store.versions(key)
    }

    /// The swap epoch: bumped on every activation and rollback. Workers
    /// cache it and compare between batches; an unchanged epoch is one
    /// atomic load, so the serving fast path never touches the state
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
    pub(crate) fn activate<F>(&self, key: ShardKey, build: F) -> Result<u64, ServeError>
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
    /// [`ModelCatalog::activate`]. The restored model is bit-identical
    /// to the one that was archived (snapshot hydration is exact).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVersion`] when `version` was never archived
    /// for `key`; propagates store and hydration failures (serving is
    /// untouched on error).
    pub(crate) fn rollback(&self, key: ShardKey, version: u64) -> Result<(), ServeError> {
        self.begin_activation(key);
        let outcome = (|| {
            let snapshot = self
                .store
                .get_version(key, version)?
                .ok_or(ServeError::UnknownVersion { key, version })?;
            let model = hydrate(&snapshot)?;
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

    /// A worker's between-batches version check: given the version it is
    /// serving, returns the fresh `(model, cost, version)` to swap to at
    /// this batch boundary, or `None` to keep serving. Never blocks on
    /// training — the fresh model was built off-path and is waiting in
    /// the pending slot (the rare fallback rehydrates the store's active
    /// slot). On any store/hydration hiccup the worker keeps its current
    /// generation: refresh machinery must never degrade serving.
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
        let model = hydrate(&snapshot).ok()?;
        Some((model, snapshot.encoded_len(), snapshot.version()))
    }
}
