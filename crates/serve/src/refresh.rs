//! Online refresh: versioned live model updates for a running server.
//!
//! A [`Refresher`] rides next to a running [`crate::BatchServer`] and
//! closes the loop between serving and training:
//!
//! 1. **observe** — served fixes and ground-truth *corrections* stream
//!    into a bounded per-shard [`ObservationBuffer`]
//!    ([`Refresher::observe_fix`] / [`Refresher::observe_correction`]);
//! 2. **refresh** — [`Refresher::refresh`] retrains a *copy* of the
//!    shard's model off the serving path (the caller's thread; workers
//!    keep answering from the current generation throughout), on the
//!    spec campaign augmented with the buffered corrections;
//! 3. **activate** — the new model gets the next version number, is
//!    archived through the [`crate::ModelStore`] *before* activation,
//!    and is swapped in atomically: every worker picks up version `v+1`
//!    at a batch boundary, never mid-batch;
//! 4. **rollback** — [`Refresher::rollback`] republishes any archived
//!    version bit-identically (same snapshot bytes the version was
//!    frozen with).
//!
//! # Determinism contract
//!
//! Serving a pinned version is bit-stable: version `v`'s answers never
//! change, no matter how many refresh cycles run concurrently. A
//! refreshed model is itself a pure function of `(spec campaign,
//! buffered corrections, base seed, key, version)` — its seed is
//! `derive_seed(shard_seed(base, key), version)`, so replaying the same
//! observation stream reproduces every generation bit-for-bit. The
//! `refresh_determinism` integration suite pins all of this.

use crate::buffer::{BufferLimits, Observation, ObservationBuffer, ObservationKind, PushOutcome};
use crate::catalog::TrainSpec;
use crate::server::ServerCore;
use crate::sync::relock;
use crate::{shard_seed, ServeError, ShardKey};
use noble::wifi::WifiNoble;
use noble::Localizer;
use noble_datasets::WifiSample;
use noble_geo::Point;
use noble_nn::derive_seed;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Configuration for a [`Refresher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshConfig {
    /// Bounds applied to every per-shard observation buffer.
    pub limits: BufferLimits,
}

/// What one [`Refresher::refresh`] cycle did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// The version the refreshed model was activated as.
    pub version: u64,
    /// Ground-truth corrections the retrain consumed (and discarded
    /// from the buffer).
    pub corrections_used: usize,
    /// Served fixes that were buffered alongside them (drift context;
    /// not training signal).
    pub fixes_seen: usize,
}

/// A point-in-time view of one shard's observation buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferStats {
    /// Buffered observations of either kind.
    pub observations: usize,
    /// Buffered ground-truth corrections.
    pub corrections: usize,
    /// Summed buffered bytes.
    pub bytes: usize,
    /// Served fixes evicted (FIFO) since the buffer was created.
    pub evicted_fixes: u64,
    /// Corrections evicted since the buffer was created — nonzero means
    /// refresh evidence arrived faster than [`Refresher::refresh`]
    /// consumed it.
    pub evicted_corrections: u64,
}

/// The online-refresh companion of a [`crate::BatchServer`] (see the
/// module docs; obtain one via [`crate::BatchServer::refresher`]).
///
/// Clone-free sharing: the refresher holds the same state `Arc` the
/// server's workers do, so it stays valid for the server's lifetime and
/// multiple refreshers over one server see the same catalog (though the
/// per-shard activation lock serializes their refresh cycles anyway).
pub struct Refresher {
    core: Arc<ServerCore>,
    cfg: RefreshConfig,
    /// Per-shard evidence. Locked only for buffer bookkeeping — never
    /// held across training or catalog calls.
    buffers: Mutex<BTreeMap<ShardKey, ObservationBuffer>>,
}

impl std::fmt::Debug for Refresher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buffers = relock(&self.buffers);
        f.debug_struct("Refresher")
            .field("cfg", &self.cfg)
            .field("shards_buffered", &buffers.len())
            .finish_non_exhaustive()
    }
}

impl Refresher {
    pub(crate) fn new(core: Arc<ServerCore>, cfg: RefreshConfig) -> Self {
        Refresher {
            core,
            cfg,
            buffers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Buffers a fix the server answered (position estimate, no ground
    /// truth). Drift context only; never training signal.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] for unroutable keys,
    /// [`ServeError::FeatureDim`] when the fingerprint width does not
    /// match the shard's WiFi campaign.
    pub fn observe_fix(
        &self,
        key: ShardKey,
        rssi: Vec<f64>,
        position: Point,
    ) -> Result<PushOutcome, ServeError> {
        self.observe(key, ObservationKind::ServedFix, rssi, position)
    }

    /// Buffers a ground-truth correction — a fingerprint paired with its
    /// surveyed position. The next [`Refresher::refresh`] trains on it.
    ///
    /// # Errors
    ///
    /// Same as [`Refresher::observe_fix`].
    pub fn observe_correction(
        &self,
        key: ShardKey,
        rssi: Vec<f64>,
        position: Point,
    ) -> Result<PushOutcome, ServeError> {
        self.observe(key, ObservationKind::Correction, rssi, position)
    }

    fn observe(
        &self,
        key: ShardKey,
        kind: ObservationKind,
        rssi: Vec<f64>,
        position: Point,
    ) -> Result<PushOutcome, ServeError> {
        if !self.core.keys.contains(&key) {
            return Err(ServeError::UnknownShard(key));
        }
        // The spec tier is immutable after start, so width validation
        // never touches a lock.
        if let Some(spec) = self.core.catalog.spec_of(key) {
            if let TrainSpec::Wifi { campaign, .. } = spec.as_ref() {
                let expected = campaign.num_waps();
                if rssi.len() != expected {
                    return Err(ServeError::FeatureDim {
                        key,
                        expected,
                        found: rssi.len(),
                    });
                }
            }
        }
        let mut buffers = relock(&self.buffers);
        let buffer = buffers
            .entry(key)
            .or_insert_with(|| ObservationBuffer::new(self.cfg.limits));
        Ok(buffer.push(kind, rssi, position))
    }

    /// A point-in-time view of `key`'s buffer (zeroed if nothing was
    /// ever observed for the shard).
    pub fn buffer_stats(&self, key: ShardKey) -> BufferStats {
        let buffers = relock(&self.buffers);
        buffers.get(&key).map_or(BufferStats::default(), |b| {
            let (evicted_fixes, evicted_corrections) = b.evicted();
            BufferStats {
                observations: b.len(),
                corrections: b.corrections(),
                bytes: b.bytes(),
                evicted_fixes,
                evicted_corrections,
            }
        })
    }

    /// Retrains `key`'s model on its spec campaign plus every buffered
    /// correction, then activates the result as the next version (see
    /// the module docs for the swap and determinism contract). Consumed
    /// observations are discarded; corrections arriving *during* the
    /// retrain survive for the next cycle.
    ///
    /// Runs on the caller's thread — the serving path is untouched until
    /// the final atomic activation.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] for unroutable keys;
    /// [`ServeError::InvalidConfig`] when the shard has no training spec
    /// or is not a WiFi shard; propagates training and store failures
    /// (the current version keeps serving on any error).
    pub fn refresh(&self, key: ShardKey) -> Result<RefreshOutcome, ServeError> {
        if !self.core.keys.contains(&key) {
            return Err(ServeError::UnknownShard(key));
        }
        let spec = self.core.catalog.spec_of(key).ok_or_else(|| {
            ServeError::InvalidConfig(format!(
                "shard {key} has no registered training spec to refresh against"
            ))
        })?;
        let TrainSpec::Wifi { campaign, cfg } = spec.as_ref() else {
            return Err(ServeError::InvalidConfig(format!(
                "shard {key} is not a WiFi shard; online refresh retrains WiFi shards only"
            )));
        };
        let (corrections, fixes_seen, watermark) = {
            let buffers = relock(&self.buffers);
            buffers.get(&key).map_or((Vec::new(), 0, 0), |b| {
                let corrections: Vec<Observation> = b
                    .iter()
                    .filter(|o| o.kind == ObservationKind::Correction)
                    .cloned()
                    .collect();
                (corrections, b.len() - b.corrections(), b.logical_time())
            })
        };
        // Fine-tune = retrain a copy: the spec campaign (already shard-
        // partitioned) augmented with the corrections as fresh surveyed
        // training samples.
        let mut campaign = campaign.clone();
        for obs in &corrections {
            campaign.train.push(WifiSample {
                rssi: obs.rssi.clone(),
                building: key.building,
                floor: key.floor.unwrap_or(0),
                position: obs.position,
            });
        }
        let base = cfg.clone();
        let version = self.core.catalog.activate(key, |version| {
            let mut shard_cfg = base.clone();
            // Version joins the seed derivation chain so every
            // generation is replayable from (base, key, version) alone.
            shard_cfg.seed = derive_seed(shard_seed(base.seed, key), version);
            let model: Box<dyn Localizer> = Box::new(WifiNoble::train(&campaign, &shard_cfg)?);
            Ok(model)
        })?;
        {
            let mut buffers = relock(&self.buffers);
            if let Some(buffer) = buffers.get_mut(&key) {
                buffer.discard_up_to(watermark);
            }
        }
        Ok(RefreshOutcome {
            version,
            corrections_used: corrections.len(),
            fixes_seen,
        })
    }

    /// Restores an archived version bit-identically: its archived bytes
    /// are rehydrated and republished as the store's active slot.
    /// Workers pick the restored model up at their next batch boundary,
    /// exactly like a refresh.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownVersion`] when `version` was never archived
    /// for `key`; propagates store and hydration failures.
    pub fn rollback(&self, key: ShardKey, version: u64) -> Result<(), ServeError> {
        self.core.catalog.rollback(key, version)
    }

    /// The version `key` currently serves (`0` = the offline
    /// generation).
    pub fn active_version(&self, key: ShardKey) -> u64 {
        self.core.catalog.active_version(key)
    }

    /// Every archived version for `key`, ascending.
    ///
    /// # Errors
    ///
    /// Propagates store failures.
    pub fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.core.catalog.archived_versions(key)
    }
}
