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
//! One fault path turns a key into a model: an *acquire* shares the
//! resident model if there is one, else hydrates the stored snapshot,
//! else retrains from the spec. One write-through moves a model's only
//! copy out of memory: it stores the model's snapshot stamped with the
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
//! acquires, serves, releases and trims in the caller's thread, and the
//! `&mut self` calls (inserts, trims, exports) reach the state without
//! locking. Handed to
//! [`crate::BatchServer::start`], it is shared by every shard worker:
//! inference only reads a model, so a resident model is one
//! `Arc<dyn Localizer>` that workers share, and each entry counts its
//! holders. A held entry is never evicted; the last holder of a
//! spinning-down shard writes the model through and frees it. Faulting —
//! store reads, hydration, retraining, write-through — runs *outside*
//! the state lock, so concurrently faulting shards overlap instead of
//! queueing behind one another; only activations of the same shard are
//! serialized.
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
//!     let model: Box<dyn Localizer> = Box::new(KnnFingerprint::fit(&campaign, k)?);
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
use std::panic::{catch_unwind, AssertUnwindSafe};
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

    /// Whether the resident models exceed the budget. A byte budget
    /// always admits one model, however large.
    fn exceeded_by(self, resident: &BTreeMap<ShardKey, Resident>) -> bool {
        match self {
            CatalogBudget::Unbounded => false,
            CatalogBudget::Count(n) => resident.len() > n,
            CatalogBudget::Bytes(n) => {
                resident.len() > 1 && resident.values().map(|r| r.cost).sum::<usize>() > n
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
/// the model cannot snapshot. A panic in the model's snapshot or in the
/// store is a failed write ([`ServeError::Internal`]), so the model stays
/// resident instead of being lost.
fn write_through(
    store: &dyn ModelStore,
    key: ShardKey,
    model: &dyn Localizer,
    version: u64,
) -> Result<Option<usize>, ServeError> {
    catch_unwind(AssertUnwindSafe(|| {
        let Some(snapshot) = model.try_snapshot() else {
            return Ok(None);
        };
        let snapshot = snapshot.with_version(version);
        store.put(key, &snapshot)?;
        Ok(Some(snapshot.encoded_len()))
    }))
    .unwrap_or_else(|_| {
        Err(ServeError::Internal(format!(
            "the write-through of shard {key} panicked"
        )))
    })
}

/// The state of an owned catalog, reached without locking.
fn unlocked(state: &mut Mutex<State>) -> &mut State {
    state.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// One resident model plus its LRU bookkeeping.
struct Resident {
    model: Arc<dyn Localizer>,
    /// Encoded-snapshot size, the [`CatalogBudget::Bytes`] unit; `0` when
    /// unknown (non-snapshotable models under a count budget).
    cost: usize,
    last_used: u64,
    /// Model version (online-refresh lineage; `0` is the offline-trained
    /// generation). Stamped onto the model's write-through, and lets a
    /// worker tell its generation from the active one.
    version: u64,
    /// Workers serving from this entry now; a held entry is never
    /// evicted.
    holders: usize,
}

impl Resident {
    fn served(&self) -> Served {
        Served {
            model: Arc::clone(&self.model),
            cost: self.cost,
            version: self.version,
        }
    }
}

/// A shared resident model as [`ModelCatalog::acquire`] hands it out.
pub(crate) struct Served {
    pub(crate) model: Arc<dyn Localizer>,
    /// Its budget cost: encoded snapshot bytes, `0` when unknown.
    pub(crate) cost: usize,
    pub(crate) version: u64,
}

/// Where a cold model faults in from.
enum FaultSource {
    Stored,
    Spec(Arc<TrainSpec>),
}

/// Catalog state that changes under the lock. The store and spec tiers
/// live *outside* it: they are `&self`-safe, so the expensive half of a
/// fault (store reads, hydration, retraining) never holds this lock.
#[derive(Default)]
struct State {
    /// Live models (the resident tier), each with its holder count.
    resident: BTreeMap<ShardKey, Resident>,
    /// Keys known to have a snapshot in the store tier (primed from
    /// `store.list()` at construction, maintained on every put).
    stored: BTreeSet<ShardKey>,
    /// Activated model version per key; absent means "whatever the
    /// store's active slot says" (primed on first fault-in), which is `0`
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
    /// Signals freed activation slots (same-shard activations wait here).
    slot_freed: Condvar,
    /// Bumped on every activation/rollback. Shard workers cache the value
    /// and re-check it between batches — one atomic load per batch — so
    /// a version bump is picked up at a batch boundary without ever
    /// taking the state lock on the fast path.
    epoch: AtomicU64,
}

/// A claimed per-key activation slot. Dropping it is the slot's one
/// exit: it frees the slot and wakes same-key waiters whether the
/// activation succeeded, failed or unwound.
struct ActivationSlot<'a> {
    catalog: &'a ModelCatalog,
    key: ShardKey,
}

impl Drop for ActivationSlot<'_> {
    fn drop(&mut self) {
        relock(&self.catalog.state).activating.remove(&self.key);
        self.catalog.slot_freed.notify_all();
    }
}

impl fmt::Debug for ModelCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = relock(&self.state);
        f.debug_struct("ModelCatalog")
            .field("budget", &self.budget)
            .field("resident", &state.resident.keys().collect::<Vec<_>>())
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
            slot_freed: Condvar::new(),
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
        state.resident.insert(
            key,
            Resident {
                model: Arc::from(localizer),
                cost: written.unwrap_or(0),
                last_used: state.clock,
                version: 0,
                holders: 0,
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

    /// Every key the catalog can serve (resident ∪ stored ∪ specs),
    /// sorted.
    pub fn keys(&self) -> Vec<ShardKey> {
        let state = relock(&self.state);
        let mut keys: BTreeSet<ShardKey> = state.resident.keys().copied().collect();
        keys.extend(state.stored.iter().copied());
        keys.extend(self.specs.keys().copied());
        keys.into_iter().collect()
    }

    /// Keys currently holding a live model, sorted.
    pub fn resident_keys(&self) -> Vec<ShardKey> {
        relock(&self.state).resident.keys().copied().collect()
    }

    /// Number of live models (what the budget bounds).
    pub fn resident_len(&self) -> usize {
        relock(&self.state).resident.len()
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
            .resident
            .iter()
            .map(|(key, r)| r.model.info().with_site(key.to_string()))
            .collect()
    }

    /// Routes a feature batch to its shard and localizes it: the model is
    /// acquired (faulting it in if cold) for the call, and the
    /// least-recently-used models past the budget are written through
    /// and evicted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] when no tier knows `key`; propagates
    /// hydration, training, model and write-through failures.
    pub fn localize(&mut self, key: ShardKey, features: &Matrix) -> Result<Vec<Point>, ServeError> {
        let points = self.acquire(key)?.model.localize_batch(features);
        self.release(key, false);
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
        let resident = &unlocked(&mut self.state).resident;
        for (key, r) in resident {
            write_through(store, *key, r.model.as_ref(), r.version)?
                .ok_or(ServeError::NotSnapshotable(*key))?;
        }
        Ok(resident.len())
    }

    /// Moves every tier out into a fresh catalog trimmed back under the
    /// budget: the server's shutdown hand-back, run once every worker
    /// has let go of its hold.
    pub(crate) fn take(&self) -> ModelCatalog {
        let state = std::mem::take(&mut *relock(&self.state));
        debug_assert!(
            state.resident.values().all(|r| r.holders == 0),
            "taking a catalog whose models are still held"
        );
        let mut catalog = ModelCatalog {
            budget: self.budget,
            store: Arc::clone(&self.store),
            specs: self.specs.clone(),
            state: Mutex::new(state),
            slot_freed: Condvar::new(),
            epoch: AtomicU64::new(0),
        };
        catalog.trim(None);
        catalog
    }

    /// Evicts least-recently-used resident models (never `protect`, the
    /// shard just served, nor a held one) until the budget holds or only
    /// pinned models remain. A victim the store does not hold yet is
    /// written through first; one that can neither be stored nor
    /// retrained stays resident, pinned.
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
        while budget.exceeded_by(&state.resident) {
            let victim = state
                .resident
                .iter()
                .filter(|(k, r)| protect != Some(**k) && r.holders == 0 && !pinned.contains(*k))
                .min_by_key(|(_, r)| r.last_used);
            let Some((&key, victim)) = victim else {
                // Everything left is pinned or held; staying over budget
                // beats losing a model.
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
            state.resident.remove(&key);
            state.stats.evictions += 1;
        }
    }

    /// Shares `key`'s model with one more holder, faulting it in
    /// (resident hit → store hydration → spec retrain) if cold — the only
    /// code that turns a key into a model. Every successful acquire is
    /// matched by one [`ModelCatalog::release`].
    ///
    /// A miss faults the model in outside the lock and marks nothing
    /// until the model is resident, so a failed or unwinding fault-in
    /// leaves no state behind. When an activation published the key
    /// while it faulted in, the published generation serves instead.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] when no tier knows `key`; propagates
    /// hydration, training and store failures.
    pub(crate) fn acquire(&self, key: ShardKey) -> Result<Served, ServeError> {
        let source = {
            let mut state = relock(&self.state);
            if let Some(resident) = state.resident.get_mut(&key) {
                resident.holders += 1;
                let served = resident.served();
                state.stats.hits += 1;
                return Ok(served);
            }
            state.stats.misses += 1;
            if state.stored.contains(&key) {
                FaultSource::Stored
            } else if let Some(spec) = self.specs.get(&key) {
                FaultSource::Spec(Arc::clone(spec))
            } else {
                return Err(ServeError::UnknownShard(key));
            }
        };
        // The expensive half — a store read + hydration, or a full
        // retrain — runs outside the state lock so concurrently faulting
        // shards overlap instead of queueing behind one another.
        let (model, cost, version, retrained) = match source {
            FaultSource::Stored => self
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
            FaultSource::Spec(spec) => spec.train(key).and_then(|model| {
                // Write through immediately: the next cold fault hydrates
                // instead of paying the retrain again.
                let cost = write_through(self.store.as_ref(), key, model.as_ref(), 0)?;
                Ok((model, cost.unwrap_or(0), 0, true))
            }),
        }?;
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
        state.clock += 1;
        let last_used = state.clock;
        let resident = state.resident.entry(key).or_insert_with(|| Resident {
            model: Arc::from(model),
            cost,
            last_used,
            version,
            holders: 0,
        });
        resident.holders += 1;
        Ok(resident.served())
    }

    /// Ends one holder's use of `key`'s model. With `cold` — a worker's
    /// spin-down — the last holder out retires the model: it is written
    /// through to the store unless the store already has it, then
    /// evicted. A model that can neither snapshot nor retrain, or that the
    /// store refused, stays resident instead — never lost — and the
    /// [`CatalogStats::pinned`] warning counter ticks.
    pub(crate) fn release(&self, key: ShardKey, cold: bool) {
        let mut state = relock(&self.state);
        state.clock += 1;
        let last_used = state.clock;
        let Some(resident) = state.resident.get_mut(&key) else {
            return;
        };
        resident.holders = resident.holders.saturating_sub(1);
        resident.last_used = last_used;
        if !cold || resident.holders > 0 {
            return;
        }
        let (model, version) = (Arc::clone(&resident.model), resident.version);
        if !state.stored.contains(&key) {
            // Serialization and the store write run outside the lock.
            drop(state);
            let written = write_through(self.store.as_ref(), key, model.as_ref(), version);
            if let Err(e) = &written {
                eprintln!(
                    "noble-serve: spin-down write-through for shard {key} failed ({e}); \
                     keeping the model resident"
                );
            }
            state = relock(&self.state);
            let retired = match written {
                Ok(Some(_)) => {
                    state.stored.insert(key);
                    true
                }
                // Unsnapshotable: dropping is safe only with a spec.
                Ok(None) => self.specs.contains_key(&key),
                Err(_) => false,
            };
            if !retired {
                // Dropping would lose the only copy: keep serving it from
                // memory, pinned.
                state.stats.pinned += 1;
                return;
            }
        }
        // Evict only the generation retired above, and only if no new
        // holder picked it up meanwhile; its memory is freed after the
        // lock.
        if state
            .resident
            .get(&key)
            .is_some_and(|r| r.holders == 0 && r.version == version)
        {
            let evicted = state.resident.remove(&key);
            state.stats.evictions += 1;
            drop(state);
            drop(evicted);
        }
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
    /// first fault-in or activation of the key.
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
    /// 4. the in-memory flip: the key's resident entry takes the new
    ///    model in place, held or not — its holders pick it up at their
    ///    next batch boundary, never mid-batch — and the swap epoch bumps.
    ///
    /// Activations and rollbacks of the same key are serialized against
    /// each other (concurrent calls for different keys overlap), and an
    /// error or a panic anywhere in them frees the key for the next one
    /// with nothing activated.
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
        let (_claim, current) = self.begin_activation(key);
        // Lineage recovery from the store: the active slot may be ahead
        // of the in-memory map (fresh process), and archived numbers must
        // never be reused (rollback rewinds `active` but not history).
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
        // Archive first, then publish the active slot: every version is
        // durably snapshotted before anything serves it.
        self.store.put_version(key, version, &snapshot)?;
        self.store.put(key, &snapshot)?;
        self.publish(key, version, model, snapshot.encoded_len());
        Ok(version)
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
        let _claim = self.begin_activation(key);
        let snapshot = self
            .store
            .get_version(key, version)?
            .ok_or(ServeError::UnknownVersion { key, version })?;
        let model = hydrate(&snapshot)?;
        // Republish the archived bytes as the active slot so a restart
        // rehydrates to the rolled-back version.
        self.store.put(key, &snapshot)?;
        self.publish(key, version, model, snapshot.encoded_len());
        Ok(())
    }

    /// Claims the per-key activation slot, waiting out an in-flight
    /// activation of the same key. Returns the claimed slot, which frees
    /// itself when dropped, and the current active version.
    fn begin_activation(&self, key: ShardKey) -> (ActivationSlot<'_>, u64) {
        let mut state = relock(&self.state);
        while state.activating.contains(&key) {
            state = rewait(&self.slot_freed, state);
        }
        state.activating.insert(key);
        let current = state.active.get(&key).copied().unwrap_or(0);
        (ActivationSlot { catalog: self, key }, current)
    }

    /// Publishes an activated generation: flips the active version,
    /// replaces the key's resident model in place (keeping its holders)
    /// and bumps the swap epoch.
    fn publish(&self, key: ShardKey, version: u64, model: Box<dyn Localizer>, cost: usize) {
        let mut state = relock(&self.state);
        state.clock += 1;
        let last_used = state.clock;
        state.stored.insert(key);
        state.active.insert(key, version);
        let holders = state.resident.get(&key).map_or(0, |r| r.holders);
        // The generation replaced here drops with its last holder's batch.
        let replaced = state.resident.insert(
            key,
            Resident {
                model: Arc::from(model),
                cost,
                last_used,
                version,
                holders,
            },
        );
        self.epoch.fetch_add(1, Ordering::Release);
        drop(state);
        drop(replaced);
    }

    /// A holder's between-batches version check: the resident generation
    /// of `key` when its version differs from the `serving` one, else
    /// `None`. It never blocks on training or the store: an activation
    /// replaced the entry in place, and the caller's hold keeps it
    /// resident.
    pub(crate) fn newer(&self, key: ShardKey, serving: u64) -> Option<Served> {
        relock(&self.state)
            .resident
            .get(&key)
            .filter(|r| r.version != serving)
            .map(Resident::served)
    }
}
