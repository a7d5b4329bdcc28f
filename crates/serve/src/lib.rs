//! # noble-serve — sharded multi-site serving engine
//!
//! NObLe's pitch is localization *as a service*: WiFi fixes and IMU
//! tracks arriving continuously from many devices across many buildings.
//! This crate is the serving seam between the trained models (anything
//! implementing [`noble::Localizer`]) and that traffic:
//!
//! - [`ModelCatalog`] is the model-lifecycle tier and the only catalog
//!   type: a capacity-bounded (count or byte [`CatalogBudget`]) LRU of
//!   resident models over a pluggable [`ModelStore`] ([`MemStore`] /
//!   checksummed atomic-file [`FsStore`]). Cold shards hydrate from
//!   stored snapshots ([`noble::hydrate`], bit-identical) or retrain on
//!   demand from a registered [`TrainSpec`]; eviction, spin-down and
//!   export write through to the store, stamped with the model's
//!   version, so a model is never lost. The same catalog serves a
//!   caller's thread directly or every worker of a server.
//! - [`ShardedRegistry`] is the eager-training hand-off: it partitions a
//!   campaign by building/floor [`ShardKey`] and trains (or accepts) one
//!   model per shard with order-free derived seeds and bounded per-shard
//!   memory, then converts into an unbounded [`ModelCatalog`] of parked
//!   models. The catalog is the single source of truth for routing,
//!   persistence and model version lineage.
//! - [`BatchServer`] is the one serving engine. [`BatchServer::start`]
//!   takes anything that converts into a [`ModelCatalog`] and
//!   **demand-pages shards over it**: a shard's first request spawns its
//!   worker, which leases the model (a parked model as-is, else a
//!   hydrate or retrain) and micro-batches concurrently arriving fixes
//!   under a configurable latency budget / max batch size
//!   ([`BatchConfig`]) into one stacked `localize_batch` call;
//!   per-request completions carry results back. Workers spin down
//!   when idle or when a colder shard needs their budget slot, so one
//!   process serves strictly more shards than fit under the
//!   [`CatalogBudget`] — and over an unbounded catalog (a trained
//!   registry) every worker simply stays hot, i.e. fully resident.
//!   [`BatchServer::shutdown`] drains gracefully,
//!   [`BatchServer::shutdown_with_catalog`] hands every tier back for a
//!   restart, [`BatchServer::stats`] reports per-shard
//!   throughput/latency and [`BatchServer::paged_stats`] counts faults,
//!   spin-downs and drains. A catalog over an existing [`FsStore`]
//!   ([`ModelCatalog::with_store`]) warm-restarts straight from
//!   persisted snapshots, skipping retraining entirely.
//! - [`Refresher`] ([`BatchServer::refresher`]) is the online-learning
//!   tier: served fixes and ground-truth corrections accumulate in a
//!   bounded per-shard [`ObservationBuffer`] ([`BufferLimits`]), and
//!   [`Refresher::refresh`] retrains a copy of the shard model off the
//!   serving path, archives it through the [`ModelStore`] as the next
//!   version, and atomically activates it at a batch boundary — never
//!   mid-batch. Every version is archived before it serves, so
//!   [`Refresher::rollback`] restores any prior version bit-identically,
//!   and answers within a pinned version are bit-stable (pinned by the
//!   `refresh_determinism` suite). Refresh retrains from a shard's
//!   registered [`TrainSpec`].
//! - [`TrackingServer`] adds the stateful per-device layer: a
//!   [`SessionTable`] of independently locked shards holds one session
//!   per device (trajectory smoother, bounded track buffer, zone
//!   hysteresis detector), so [`TrackingClient::submit`] turns a raw fix
//!   into a smoothed [`TrackedFix`] plus committed [`ZoneEvent`]s, with
//!   away-timeout sweeps retiring silent devices off the serving path.
//!   Same observation interleaving ⇒ bit-identical tracks and identical
//!   event sequences at any shard/thread count (pinned by the
//!   `tracking_sessions` suite).
//!
//! Neither batching nor paging changes answers: the linalg substrate
//! picks its matmul kernel per output row, and snapshot round-trips /
//! key-derived retrains are exact, so served results are
//! **bit-identical** to direct `localize_batch` calls under any
//! coalescing, any thread count, and any eviction schedule (pinned by
//! this crate's `serving_parity` integration test).
//!
//! ```no_run
//! use noble_serve::{BatchConfig, BatchServer, RegistryConfig, ShardedRegistry, ShardKey};
//! use noble::wifi::WifiNobleConfig;
//! use noble_datasets::{uji_campaign, UjiConfig};
//!
//! let campaign = uji_campaign(&UjiConfig::small()).unwrap();
//! let registry = ShardedRegistry::train_wifi(
//!     &campaign,
//!     &WifiNobleConfig::small(),
//!     &RegistryConfig::default(),
//! )
//! .unwrap();
//! let server = BatchServer::start(registry, BatchConfig::default()).unwrap();
//! let client = server.client();
//! let fix = client
//!     .localize(ShardKey::building(0), vec![0.0; campaign.num_waps()])
//!     .unwrap();
//! println!("device at {fix}");
//! for (key, stats) in server.shutdown() {
//!     println!("{key}: {} fixes in {} batches", stats.requests, stats.batches);
//! }
//! ```

mod buffer;
mod catalog;
mod error;
mod lifecycle;
mod refresh;
mod registry;
mod server;
mod session;
mod store;
mod sync;

pub use buffer::{BufferLimits, Observation, ObservationBuffer, ObservationKind, PushOutcome};
pub use catalog::{CatalogBudget, CatalogStats, ModelCatalog, TrainSpec};
pub use error::ServeError;
pub use refresh::{BufferStats, RefreshConfig, RefreshOutcome, Refresher};
pub use registry::{
    partition_campaign, shard_seed, RegistryConfig, ShardKey, ShardPolicy, ShardedRegistry,
};
pub use server::{
    BatchConfig, BatchServer, PagedStats, PendingFix, ServeClient, ServerStats, ShardStats,
};
pub use session::{
    DeviceId, SessionStats, SessionTable, TrackedFix, TrackingClient, TrackingServer, ZoneEvent,
    ZoneEventKind,
};
pub use store::{FsStore, MemStore, ModelStore};
