//! The micro-batching request pipeline: one demand-paged serving engine.
//!
//! [`BatchServer::start`] serves every shard of a [`crate::ModelCatalog`]
//! — resident, stored, or merely spec-registered — while keeping only
//! the catalog's [`crate::CatalogBudget`] worth of models (and worker
//! threads) alive. Clients submit fingerprints tagged with a
//! [`ShardKey`]; the shard's worker coalesces whatever arrives within a
//! **latency budget** (or up to a **max batch size**) into one stacked
//! [`Localizer::localize_batch`] call and hands each result to its
//! request's completion, on the worker thread: a [`PendingFix`] to block
//! on ([`ServeClient::submit`]) or the caller's own callback
//! ([`ServeClient::submit_then`]).
//!
//! A fully-resident server is the same engine over an unbounded catalog
//! whose models are already parked — which is what a trained
//! [`crate::ShardedRegistry`] converts into. Start is lazy for every
//! shard: a resident shard's first request spawns its worker and leases
//! the parked model (no hydration), and without budget pressure or an
//! idle TTL the worker then stays hot for the server's lifetime. Each
//! shard walks a four-state lifecycle:
//!
//! ```text
//!          submit() to a cold shard              lease() done
//!   COLD ───────────────────────────► WARMING ───────────────► HOT
//!    ▲         (worker spawned;        (model faulting in:      │
//!    │          requests park in        store hydration or      │ Drain /
//!    │          its queue)              spec retrain)           │ idle TTL
//!    │                                                          ▼
//!    └───────────────────────────────────────────────────── DRAINING
//!              (serves its parked backlog, writes the model
//!               back through the store, worker thread exits)
//! ```
//!
//! - **COLD → WARMING**: the first request to a cold shard spawns its
//!   worker and *parks* in the worker's queue; the worker leases the
//!   model from the server's [`crate::ModelCatalog`] (a parked model
//!   as-is, else a hydrate or retrain outside any global lock, so
//!   concurrently warming shards overlap).
//! - **HOT → DRAINING**: a worker retires when it has been idle for
//!   [`BatchConfig::idle_ttl`], or when a *colder* shard needs its
//!   budget slot (the least-recently-active hot worker is drained — the
//!   LRU spin-down policy). Draining writes the model back through the
//!   store first, so nothing is ever lost and a later re-fault hydrates
//!   the identical bits.
//! - Requests racing a spin-down are never dropped: the retiring worker
//!   serves everything already queued, and anything newer re-warms the
//!   shard through a fresh worker.
//!
//! Because model snapshot round-trips and key-derived retrains are
//! bit-identical (pinned by the `snapshot_roundtrip` and `model_store`
//! suites), an oversubscribed server returns the **exact bits** a
//! fully-resident one returns — oversubscription buys memory, never
//! changes answers (pinned by `serving_parity`).
//!
//! The container targets offline std-only builds, so there is no async
//! runtime: blocking `mpsc` channels plus `recv_timeout` implement the
//! budgeted coalescing loop. Each shard worker owns its core: it runs
//! under [`noble_linalg::as_worker`], so the kernels beneath it run
//! serial and a batch never spawns matmul threads of its own (the
//! per-row dispatch invariant keeps the answers bit-identical either
//! way).
//!
//! # Examples
//!
//! Serve six shards with at most two models resident — the catalog
//! budget is the *memory* bound, not the *serving* bound:
//!
//! ```
//! use noble::wifi::KnnFingerprint;
//! use noble_datasets::{uji_campaign, UjiConfig};
//! use noble_serve::{BatchConfig, BatchServer, CatalogBudget, ModelCatalog, ShardKey};
//! use std::time::Duration;
//!
//! let campaign = uji_campaign(&UjiConfig::small())?;
//! let mut catalog = ModelCatalog::new(CatalogBudget::Count(2))?;
//! for i in 0..6 {
//!     let model = KnnFingerprint::fit(&campaign, i + 1)?;
//!     catalog.insert(ShardKey::building(i), Box::new(model))?;
//! }
//!
//! let server = BatchServer::start(
//!     catalog,
//!     BatchConfig {
//!         idle_ttl: Some(Duration::from_millis(50)),
//!         ..BatchConfig::default()
//!     },
//! )?;
//! let client = server.client();
//! // Every shard answers, faulting its model in on first touch.
//! for i in 0..6 {
//!     let fix = client.localize(ShardKey::building(i), vec![0.0; campaign.num_waps()])?;
//!     println!("b{i}: {fix}");
//! }
//! let paged = server.paged_stats().expect("every server is paged");
//! assert!(paged.faults >= 6);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::refresh::{RefreshConfig, Refresher};
use crate::sync::{relock, rewait, rewait_timeout};
use crate::{CatalogBudget, CatalogStats, ModelCatalog, ServeError, ShardKey};
use noble::{InferencePrecision, Localizer};
use noble_geo::Point;
use noble_linalg::Matrix;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching and lifecycle knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest batch one shard inference call may carry.
    pub max_batch: usize,
    /// How long a shard worker holds an open batch waiting for riders
    /// after the first request arrives. `ZERO` disables coalescing
    /// waits (each batch is whatever is already queued).
    pub latency_budget: Duration,
    /// How long a hot shard worker sits with an empty queue before
    /// spinning itself down (writing its model back through the store
    /// and exiting). `None` — the default — means idle shards stay hot
    /// and spin down only under budget pressure (the LRU drain policy),
    /// so under an unbounded catalog they never spin down.
    pub idle_ttl: Option<Duration>,
    /// Tracking-session servers only ([`crate::TrackingServer`]): number
    /// of independently locked shards the per-device session table is
    /// split across. Plain [`BatchServer`]s ignore it.
    pub session_shards: usize,
    /// Tracking-session servers only: how many *consecutive* fixes must
    /// agree on a device's new zone before the session commits the
    /// transition and emits entered/left events (the zone-stability
    /// hysteresis window). Plain [`BatchServer`]s ignore it.
    pub stability_k: u32,
    /// Tracking-session servers only: logical-time units (the `at`
    /// stamps callers submit with) a session may sit without an
    /// observation before a sweep marks it away (emitting `Left` if it
    /// was in a zone) and a later sweep evicts it. `None` — the default
    /// — keeps silent sessions forever. Plain [`BatchServer`]s ignore
    /// it.
    pub away_timeout: Option<u64>,
    /// Inference tier shards serve in. `Exact` — the default — serves
    /// the f64 models untouched (bit-identical to every earlier
    /// release). `F32` / `Int8` lower each model once, off the hot path
    /// (right after its worker leases it), via
    /// [`Localizer::try_lower`]; models that cannot lower (e.g. the kNN
    /// radio map) keep serving exact. Lowered shards stay within the
    /// tier's accuracy gate, and persistence write-through always
    /// carries the exact f64 snapshot.
    pub precision: InferencePrecision,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 128,
            latency_budget: Duration::from_micros(500),
            idle_ttl: None,
            session_shards: 16,
            stability_k: 3,
            away_timeout: None,
            precision: InferencePrecision::Exact,
        }
    }
}

/// Lowers a leased model into `precision` when requested and possible,
/// *discarding* the exact progenitor; models that cannot lower (or an
/// `Exact` config) serve unchanged. Workers use this right after the
/// lease — dropping the f64 model is the point (only the lowered twin
/// stays resident), and persistence is safe because the twin's snapshot
/// is the progenitor's exact state.
fn lower_for_serving(
    model: Box<dyn Localizer>,
    precision: InferencePrecision,
) -> Box<dyn Localizer> {
    if precision == InferencePrecision::Exact {
        return model;
    }
    match model.try_lower(precision) {
        Some(lowered) => lowered,
        None => model,
    }
}

/// Live per-shard queue gauges, shared between the submit paths and the
/// shard worker. Unlike the cumulative [`ShardStats`] counters these go
/// *down* again — they are the admission-control watermark inputs the
/// network front end (`noble-net`) reads on its shedding path, so they
/// are plain atomics rather than another mutex.
#[derive(Debug, Default)]
struct ShardGauges {
    /// Requests submitted but not yet picked into an inference batch.
    queued: AtomicU64,
    /// Requests submitted but not yet replied to (queued + in service).
    in_flight: AtomicU64,
}

impl ShardGauges {
    /// Balanced decrement: every submit's increment is matched by exactly
    /// one decrement on the dequeue/reply path, but a server tearing down
    /// mid-submit can retire a job the worker never saw — saturate rather
    /// than wrap so a shutdown race can only under-report, never poison
    /// the gauge.
    fn dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
    }
}

/// Whole-server queue gauge snapshot ([`BatchServer::server_stats`] /
/// [`ServeClient::server_stats`]): the load picture an admission layer
/// needs — how much work is waiting and how much is in flight right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests submitted but not yet picked into an inference batch,
    /// summed over every shard.
    pub queue_depth: u64,
    /// Requests submitted but not yet replied to, summed over every
    /// shard.
    pub in_flight: u64,
    /// Shards being served.
    pub shards: usize,
}

/// Per-shard serving counters, readable live via [`BatchServer::stats`]
/// and returned at [`BatchServer::shutdown`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Fixes served (successfully or with a per-request error reply).
    pub requests: u64,
    /// Inference calls issued.
    pub batches: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Largest coalesced batch.
    pub max_batch: usize,
    /// Total request latency (enqueue to reply) in microseconds.
    pub total_latency_us: u128,
    /// Worst single-request latency in microseconds.
    pub max_latency_us: u128,
    /// Time spent inside the model's `localize_batch` in microseconds.
    pub busy_us: u128,
    /// Gauge snapshot: requests queued (submitted, not yet batched) at
    /// the moment the stats were read. Always `0` in the final stats a
    /// graceful shutdown returns.
    pub queue_depth: u64,
    /// Gauge snapshot: requests in flight (submitted, not yet replied)
    /// at the moment the stats were read.
    pub in_flight: u64,
}

impl ShardStats {
    /// Mean coalesced batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Mean request latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / self.requests as f64
        }
    }
}

/// Demand-paging lifecycle counters ([`BatchServer::paged_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedStats {
    /// Worker spin-ups: a request found its shard cold and faulted it in.
    pub faults: u64,
    /// Workers that retired after [`BatchConfig::idle_ttl`] with an
    /// empty queue.
    pub idle_spin_downs: u64,
    /// Workers drained under budget pressure (LRU victim retired so a
    /// colder shard could warm).
    pub drains: u64,
    /// Requests that arrived while their shard was cold or still warming
    /// and parked in the worker's queue until the model was resident.
    pub parked_requests: u64,
    /// Workers currently holding (or faulting in) a model — never more
    /// than a [`CatalogBudget::Count`] allows.
    pub hot_shards: usize,
    /// Model-version swaps picked up by hot workers at a batch boundary
    /// (an activation or rollback landed while the shard was serving).
    pub refresh_swaps: u64,
    /// The catalog's lifecycle counters (hits / hydrations /
    /// retrains / evictions / pinned).
    pub catalog: CatalogStats,
}

/// One queued request or lifecycle marker.
enum Job {
    Fix {
        fingerprint: Vec<f64>,
        enqueued: Instant,
        reply: Completion,
    },
    /// Retire after serving everything queued ahead of this marker;
    /// write the model back through the store and free it.
    Drain,
    /// Retire after serving the backlog and park the model in the shared
    /// catalog.
    Shutdown,
}

/// The caller's reply callback: the fix's outcome plus its cold flag
/// (see [`PendingFix::cold`]).
type Done = Box<dyn FnOnce(Result<Point, ServeError>, bool) + Send>;

/// A queued fix's reply. The worker calls it once with the outcome; if it
/// is dropped uncalled instead — a worker that unwinds drops its batch
/// and its queue — the drop answers [`ServeError::ShuttingDown`], so every
/// accepted fix gets exactly one reply.
struct Completion {
    done: Option<Done>,
    cold: bool,
}

impl Completion {
    fn new(done: Done, cold: bool) -> Self {
        Completion {
            done: Some(done),
            cold,
        }
    }

    fn complete(mut self, outcome: Result<Point, ServeError>) {
        if let Some(done) = self.done.take() {
            done(outcome, self.cold);
        }
    }

    /// Drops the callback uncalled: the submit that built it failed
    /// synchronously and reports the error to its caller instead.
    fn disarm(mut self) {
        self.done = None;
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(ServeError::ShuttingDown), self.cold);
        }
    }
}

/// A one-shot reply slot: the blocking side of a completion.
#[derive(Debug)]
pub(crate) struct OneShot<T> {
    value: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> OneShot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(OneShot {
            value: Mutex::new(None),
            filled: Condvar::new(),
        })
    }

    pub(crate) fn put(&self, value: T) {
        *relock(&self.value) = Some(value);
        self.filled.notify_one();
    }

    /// Blocks until [`OneShot::put`] has run, then takes the value.
    pub(crate) fn take(&self) -> T {
        let mut value = relock(&self.value);
        loop {
            if let Some(v) = value.take() {
                return v;
            }
            value = rewait(&self.filled, value);
        }
    }
}

/// The slot a [`PendingFix`] waits on, and the completion callback that
/// fills it.
fn reply_slot() -> (Arc<OneShot<Result<Point, ServeError>>>, Done) {
    let slot = OneShot::new();
    let filled = Arc::clone(&slot);
    (slot, Box::new(move |outcome, _| filled.put(outcome)))
}

/// An in-flight fix: redeem with [`PendingFix::wait`].
#[derive(Debug)]
pub struct PendingFix {
    slot: Arc<OneShot<Result<Point, ServeError>>>,
    cold: bool,
}

impl PendingFix {
    /// Blocks until the shard worker replies.
    ///
    /// # Errors
    ///
    /// The serving error the worker sent, or [`ServeError::ShuttingDown`]
    /// when the worker exited without replying.
    pub fn wait(self) -> Result<Point, ServeError> {
        self.slot.take()
    }

    /// Whether this fix found its shard cold (or still warming) and had
    /// to park while the model faulted in. Start is lazy, so on a
    /// fully-resident server this is `true` only for the fixes that
    /// reach a shard before its worker's first lease. Latency-sensitive
    /// callers use this to split cold-start tails from steady-state
    /// percentiles.
    pub fn cold(&self) -> bool {
        self.cold
    }
}

/// A cloneable submission handle onto a running [`BatchServer`].
#[derive(Clone)]
pub struct ServeClient {
    core: Arc<ServerCore>,
}

impl ServeClient {
    /// Enqueues one fingerprint for `key`'s shard and returns the pending
    /// reply without blocking (clients pipeline by submitting many fixes
    /// before waiting — that depth is what the worker coalesces). A
    /// submit to a cold shard spins its worker up and parks the request
    /// while the model faults in.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownShard`] for an unroutable key,
    /// [`ServeError::ShuttingDown`] when the server is stopping.
    pub fn submit(&self, key: ShardKey, fingerprint: Vec<f64>) -> Result<PendingFix, ServeError> {
        let (slot, done) = reply_slot();
        let cold = self.core.submit(key, fingerprint, done)?;
        Ok(PendingFix { slot, cold })
    }

    /// Enqueues one fingerprint like [`ServeClient::submit`], but hands
    /// the reply to `done` instead of a [`PendingFix`]: the shard worker
    /// calls it with the outcome and the cold flag (see
    /// [`PendingFix::cold`]) right after the fix's batch, never under a
    /// server lock. On `Ok`, `done` runs exactly once — if the worker
    /// unwinds before replying, it runs with
    /// [`ServeError::ShuttingDown`] on the thread that drops the fix. On
    /// `Err`, it never runs. Keep it short: later riders of the batch
    /// wait for it.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::submit`].
    pub fn submit_then(
        &self,
        key: ShardKey,
        fingerprint: Vec<f64>,
        done: impl FnOnce(Result<Point, ServeError>, bool) + Send + 'static,
    ) -> Result<(), ServeError> {
        self.core
            .submit(key, fingerprint, Box::new(done))
            .map(|_| ())
    }

    /// Submits and blocks for the result (the per-fix convenience path).
    ///
    /// # Errors
    ///
    /// As [`ServeClient::submit`] plus whatever the worker replies.
    pub fn localize(&self, key: ShardKey, fingerprint: Vec<f64>) -> Result<Point, ServeError> {
        self.submit(key, fingerprint)?.wait()
    }

    /// Keys this client can route to.
    pub fn keys(&self) -> Vec<ShardKey> {
        self.core.keys.iter().copied().collect()
    }

    /// Whole-server queue gauge snapshot (see
    /// [`BatchServer::server_stats`]). Exposed on the client handle so an
    /// admission layer holding only a [`ServeClient`] can read its
    /// watermarks without a reference to the server.
    pub fn server_stats(&self) -> ServerStats {
        self.core.server_stats()
    }
}

/// A shard's routing slot. Absent from the map = COLD (no worker).
enum Slot {
    /// Worker spawned, model still faulting in; requests park in `tx`.
    Warming { tx: Sender<Job> },
    /// Worker serving; `last_active` orders LRU drain victims, `cost`
    /// is the model's budget cost (for drain-in-flight accounting).
    Hot {
        tx: Sender<Job>,
        last_active: u64,
        cost: usize,
    },
}

/// Slot map plus occupancy accounting (all under one short-held lock;
/// lock order where both are taken: `slots` before `paged`).
struct Slots {
    map: BTreeMap<ShardKey, Slot>,
    /// Workers currently holding (or faulting in) a model.
    occupancy: usize,
    /// Budget cost (encoded-snapshot bytes) of those models.
    occupied_bytes: usize,
    /// Drain markers sent whose workers have not yet released their
    /// occupancy — counted so budget decisions see the room already on
    /// its way instead of cascading drains while a victim is still
    /// writing its model back.
    draining: usize,
    /// Budget cost of those draining models.
    draining_bytes: usize,
    /// Logical activity clock for LRU victim selection.
    clock: u64,
    /// Handles of live (and recently finished) workers; reaped on spawn,
    /// joined at shutdown.
    workers: Vec<JoinHandle<()>>,
}

/// Shared state of a running server: its catalog, routing slots and
/// counters, held by the server, every client and every shard worker.
pub(crate) struct ServerCore {
    pub(crate) catalog: ModelCatalog,
    cfg: BatchConfig,
    /// Routable keys, fixed at start (the catalog's keys).
    pub(crate) keys: BTreeSet<ShardKey>,
    /// Max workers holding a model at once ([`CatalogBudget::Count`]).
    max_hot: usize,
    /// Byte bound on held models ([`CatalogBudget::Bytes`]).
    byte_budget: Option<usize>,
    slots: Mutex<Slots>,
    /// Signals occupancy releases to warming workers waiting for room.
    room: Condvar,
    shutting_down: AtomicBool,
    stats: BTreeMap<ShardKey, Arc<Mutex<ShardStats>>>,
    gauges: BTreeMap<ShardKey, Arc<ShardGauges>>,
    paged: Mutex<PagedStats>,
}

impl ServerCore {
    /// Sums the per-shard gauges into a [`ServerStats`] snapshot.
    fn server_stats(&self) -> ServerStats {
        let mut out = ServerStats::default();
        for g in self.gauges.values() {
            out.queue_depth += g.queued.load(Ordering::Acquire);
            out.in_flight += g.in_flight.load(Ordering::Acquire);
            out.shards += 1;
        }
        out
    }

    /// Enqueues one fix whose reply goes to `done`; returns whether it
    /// found its shard cold. On `Err`, `done` is dropped uncalled.
    fn submit(
        self: &Arc<Self>,
        key: ShardKey,
        fingerprint: Vec<f64>,
        done: Done,
    ) -> Result<bool, ServeError> {
        if !self.keys.contains(&key) {
            return Err(ServeError::UnknownShard(key));
        }
        let mut slots = relock(&self.slots);
        // Checked under the lock: shutdown sets the flag and sweeps the
        // slot map while holding it, so a submit that sees the flag clear
        // here cannot enqueue onto a swept shard.
        if self.shutting_down.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        slots.clock += 1;
        let now = slots.clock;
        let (tx, cold) = match slots.map.get_mut(&key) {
            Some(Slot::Hot {
                tx, last_active, ..
            }) => {
                *last_active = now;
                (tx.clone(), false)
            }
            Some(Slot::Warming { tx }) => (tx.clone(), true),
            None => {
                let tx = self.spawn_worker(&mut slots, key)?;
                (tx, true)
            }
        };
        let gauges = &self.gauges[&key];
        gauges.queued.fetch_add(1, Ordering::AcqRel);
        gauges.in_flight.fetch_add(1, Ordering::AcqRel);
        // Sending under the lock orders every fix against the lifecycle
        // markers (Drain/Shutdown are also sent under it): a fix is
        // either ahead of the marker — served by the retiring worker —
        // or routed to a fresh successor. Never dropped.
        // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks, and sending under the slots lock is the fix-vs-marker ordering argument above")
        tx.send(Job::Fix {
            fingerprint,
            // noble-lint: allow(wall-clock, "enqueue stamp feeds latency metrics only; results never read it")
            enqueued: Instant::now(),
            reply: Completion::new(done, cold),
        })
        .map_err(|mpsc::SendError(job)| {
            // The caller answers this error itself: the fix's reply must
            // not also run.
            if let Job::Fix { reply, .. } = job {
                reply.disarm();
            }
            ShardGauges::dec(&gauges.queued);
            ShardGauges::dec(&gauges.in_flight);
            ServeError::ShuttingDown
        })?;
        if cold {
            relock(&self.paged).parked_requests += 1;
        }
        Ok(cold)
    }

    /// Spawns a shard worker in the WARMING state and returns its sender.
    /// Caller holds the slots lock.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the OS refuses the thread — the slot
    /// map is untouched on failure, so a later submit simply retries.
    fn spawn_worker(
        self: &Arc<Self>,
        slots: &mut Slots,
        key: ShardKey,
    ) -> Result<Sender<Job>, ServeError> {
        // Reap handles of workers that already spun down so a long-lived
        // server does not accumulate one handle per spin cycle.
        let mut i = 0;
        while i < slots.workers.len() {
            if slots.workers[i].is_finished() {
                let _ = slots.workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let core = Arc::clone(self);
        let shard_stats = Arc::clone(&self.stats[&key]);
        let shard_gauges = Arc::clone(&self.gauges[&key]);
        // Spawn before publishing the slot: a spawn failure must not
        // leave a WARMING entry whose worker never existed.
        let handle = std::thread::Builder::new()
            .name(format!("noble-page-{key}"))
            .spawn(move || {
                noble_linalg::as_worker(|| paged_worker(core, key, rx, shard_stats, shard_gauges))
            })
            .map_err(|e| {
                ServeError::Internal(format!("cannot spawn worker for shard {key}: {e}"))
            })?;
        slots.map.insert(key, Slot::Warming { tx: tx.clone() });
        slots.workers.push(handle);
        relock(&self.paged).faults += 1;
        Ok(tx)
    }

    /// Whether a warming worker may claim an occupancy slot now.
    fn admit(&self, slots: &Slots) -> bool {
        if slots.occupancy == 0 {
            // A single model always serves, however large (mirrors the
            // catalog's byte-budget semantics).
            return true;
        }
        if slots.occupancy >= self.max_hot {
            return false;
        }
        match self.byte_budget {
            Some(bound) => slots.occupied_bytes < bound,
            None => true,
        }
    }

    /// Asks the least-recently-active HOT worker (never `except`) to
    /// drain: its slot goes cold immediately — newer requests re-warm
    /// through a successor — while the retiring worker serves everything
    /// already queued, writes its model back, and releases its occupancy
    /// slot. Returns whether a victim was found. Caller holds the slots
    /// lock.
    fn request_drain(&self, slots: &mut Slots, except: ShardKey) -> bool {
        let victim = slots
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Hot { last_active, .. } if *k != except => Some((*last_active, *k)),
                _ => None,
            })
            .min()
            .map(|(_, k)| k);
        let Some(victim) = victim else { return false };
        if let Some(Slot::Hot { tx, cost, .. }) = slots.map.remove(&victim) {
            let _ = tx.send(Job::Drain);
            slots.draining += 1;
            slots.draining_bytes += cost;
            relock(&self.paged).drains += 1;
            true
        } else {
            false
        }
    }

    /// Whether the budget will hold once the drains already in flight
    /// release — if so, a waiting warming worker should *not* request
    /// another victim (one cold fault must not cascade into retiring
    /// every hot shard while the first victim is still writing its model
    /// back through the store).
    fn room_already_coming(&self, slots: &Slots) -> bool {
        let occupancy = slots.occupancy.saturating_sub(slots.draining);
        if occupancy == 0 {
            return true;
        }
        if occupancy >= self.max_hot {
            return false;
        }
        match self.byte_budget {
            Some(bound) => slots.occupied_bytes.saturating_sub(slots.draining_bytes) < bound,
            None => true,
        }
    }
}

/// How a shard worker retires.
enum Retire {
    /// Write the model back through the store and free it. `requested`
    /// distinguishes a budget-pressure drain (counted in
    /// `Slots::draining` until the release lands) from an idle-TTL or
    /// vanished-slot spin-down.
    Cold { requested: bool },
    /// Park the model live in the catalog (server shutdown).
    Park,
}

/// A shard worker: claim a budget slot (draining an LRU
/// victim if the server is at capacity), lease the model, serve batches,
/// retire. See the module docs for the state diagram.
fn paged_worker(
    core: Arc<ServerCore>,
    key: ShardKey,
    rx: Receiver<Job>,
    stats: Arc<Mutex<ShardStats>>,
    gauges: Arc<ShardGauges>,
) {
    // ---- WARMING: claim an occupancy slot under the budget. ----
    {
        let mut slots = relock(&core.slots);
        // Fixes parked before shutdown began are a backlog like any
        // other: a worker the budget admits straight away (always, under
        // an unbounded catalog) serves them before it parks. Only a
        // worker that has to wait for budget room gives up on shutdown.
        while !core.admit(&slots) {
            // Ask for one victim at a time: while a drain is already in
            // flight (its worker is writing the model back), re-polls
            // must not keep retiring further hot shards.
            if !core.room_already_coming(&slots) {
                core.request_drain(&mut slots, key);
            }
            // Re-poll on a short timeout: the victim this round may still
            // be WARMING (undrainable) — once it turns HOT a later pass
            // drains it, so waiting must not be notification-only.
            let (guard, _) = rewait_timeout(&core.room, slots, Duration::from_millis(5));
            slots = guard;
            // A shutdown that lands while this worker is still waiting
            // for budget room must not fault a model in just to serve
            // the stragglers (a spec-only shard would *retrain* on the
            // shutdown path): reject everything parked behind the fault
            // with the typed error instead. The slot was already swept,
            // so nothing new can join the queue.
            if core.shutting_down.load(Ordering::Acquire) {
                drop(slots);
                reject_parked(&rx, ServeError::ShuttingDown, &stats, &gauges);
                return;
            }
        }
        slots.occupancy += 1;
    }

    // ---- WARMING: fault the model in (no server lock held). ----
    let (model, cost, mut version) = match core.catalog.lease(key) {
        Ok(leased) => leased,
        Err(e) => {
            fail_cold(&core, key, &rx, e, &stats, &gauges);
            return;
        }
    };
    // Lowering happens here, once per fault, still off the hot path. The
    // lowered twin's snapshot is the progenitor's exact f64 state, so
    // drain write-through and shutdown parking stay full-precision.
    let mut model = lower_for_serving(model, core.cfg.precision);
    // Budget accounting is pinned to the lease-time cost for the whole
    // worker lifetime (a mid-flight version swap of the same
    // architecture moves the estimate negligibly, and a stable figure
    // keeps the slots/draining books exact).
    let lease_cost = cost;
    let mut cost = cost;
    // The swap epoch this worker has observed; re-checked between
    // batches (one atomic load) so a version bump lands at a batch
    // boundary, never mid-batch.
    let mut epoch = core.catalog.epoch();
    {
        let mut slots = relock(&core.slots);
        slots.occupied_bytes += cost;
        slots.clock += 1;
        let now = slots.clock;
        if let Some(slot) = slots.map.get_mut(&key) {
            if let Slot::Warming { tx } = slot {
                let tx = tx.clone();
                *slot = Slot::Hot {
                    tx,
                    last_active: now,
                    cost,
                };
            }
        }
        // Byte budgets learn a model's cost only after the lease; shed
        // least-recently-active peers if this one pushed past the bound —
        // counting the bytes already draining, so one oversized lease
        // retires only as many victims as the overshoot needs.
        if let Some(bound) = core.byte_budget {
            while slots.occupied_bytes.saturating_sub(slots.draining_bytes) > bound
                && core.request_drain(&mut slots, key)
            {}
        }
    }

    // ---- HOT: the serve loop. ----
    let mut feature_dim = model.info().feature_dim;
    let retire = 'serve: loop {
        // First job of a batch, honoring the idle TTL.
        let job = match core.cfg.idle_ttl {
            Some(ttl) => match rx.recv_timeout(ttl) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle: go cold — unless a submit raced the timeout.
                    // Submits send while holding the slots lock, so the
                    // emptiness check below is atomic with removing the
                    // slot.
                    let mut slots = relock(&core.slots);
                    // noble-lint: allow(lock-discipline, "non-blocking try_recv, deliberately under the slots lock: the emptiness check must be atomic with removing the slot or a racing submit is dropped")
                    match rx.try_recv() {
                        Ok(job) => job,
                        Err(_) => {
                            slots.map.remove(&key);
                            drop(slots);
                            relock(&core.paged).idle_spin_downs += 1;
                            break 'serve Retire::Cold { requested: false };
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    break 'serve Retire::Cold { requested: false }
                }
            },
            None => match rx.recv() {
                Ok(job) => job,
                Err(_) => break 'serve Retire::Cold { requested: false },
            },
        };
        let first = match job {
            Job::Fix {
                fingerprint,
                enqueued,
                reply,
            } => {
                ShardGauges::dec(&gauges.queued);
                (fingerprint, enqueued, reply)
            }
            Job::Drain => break 'serve Retire::Cold { requested: true },
            Job::Shutdown => break 'serve Retire::Park,
        };
        // Version check at the batch boundary: an activation or rollback
        // since the last batch swaps the model *here*, before anything of
        // this batch is served — every batch runs against exactly one
        // generation, and answers within a pinned version stay
        // bit-stable. An unchanged epoch is one atomic load.
        let now_epoch = core.catalog.epoch();
        if now_epoch != epoch {
            epoch = now_epoch;
            if let Some((fresh, fresh_cost, fresh_version)) =
                core.catalog.refresh_lease(key, version)
            {
                model = lower_for_serving(fresh, core.cfg.precision);
                feature_dim = model.info().feature_dim;
                cost = fresh_cost;
                version = fresh_version;
                relock(&core.paged).refresh_swaps += 1;
            }
        }
        let mut batch = vec![first];
        let mut retire_after = None;
        if core.cfg.max_batch > 1 {
            // noble-lint: allow(wall-clock, "batching deadline only: batch boundaries never change answers (shape-invariant kernels)")
            let deadline = Instant::now() + core.cfg.latency_budget;
            while batch.len() < core.cfg.max_batch {
                // noble-lint: allow(wall-clock, "remaining-budget poll for the coalescing wait; never feeds a result")
                let wait = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(Job::Fix {
                        fingerprint,
                        enqueued,
                        reply,
                    }) => {
                        ShardGauges::dec(&gauges.queued);
                        batch.push((fingerprint, enqueued, reply));
                    }
                    Ok(Job::Drain) => {
                        retire_after = Some(Retire::Cold { requested: true });
                        break;
                    }
                    Ok(Job::Shutdown) => {
                        retire_after = Some(Retire::Park);
                        break;
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        retire_after = Some(Retire::Cold { requested: false });
                        break;
                    }
                }
            }
        }
        serve_batch(model.as_mut(), key, feature_dim, batch, &stats, &gauges);
        if let Some(retire) = retire_after {
            break 'serve retire;
        }
    };

    // ---- DRAINING: hand the model back, release the budget slot. ----
    match retire {
        Retire::Cold { .. } => core.catalog.release_cold(key, model, cost, version),
        // A lowered twin never parks: parking would leave reduced-precision
        // state in the catalog's resident tier. Write it back through the
        // store instead (its snapshot is the progenitor's exact f64 state),
        // so the catalog only ever holds exact models.
        Retire::Park if core.cfg.precision != InferencePrecision::Exact => {
            core.catalog.release_cold(key, model, cost, version)
        }
        Retire::Park => core.catalog.release_parked(key, model, cost, version),
    }
    let mut slots = relock(&core.slots);
    slots.occupancy -= 1;
    slots.occupied_bytes -= lease_cost;
    if let Retire::Cold { requested: true } = retire {
        slots.draining = slots.draining.saturating_sub(1);
        slots.draining_bytes = slots.draining_bytes.saturating_sub(lease_cost);
    }
    core.room.notify_all();
}

/// A warming worker whose lease failed: go cold and fail every request
/// parked behind the fault with the lease error.
fn fail_cold(
    core: &Arc<ServerCore>,
    key: ShardKey,
    rx: &Receiver<Job>,
    err: ServeError,
    stats: &Mutex<ShardStats>,
    gauges: &ShardGauges,
) {
    {
        let mut slots = relock(&core.slots);
        slots.map.remove(&key);
        slots.occupancy -= 1;
        core.room.notify_all();
    }
    // Everything parked before the slot was removed is in the queue;
    // nothing new can arrive (the sender in the map was the last route).
    reject_parked(rx, err, stats, gauges);
}

/// Replies to every request still parked in `rx` with the typed error —
/// a retiring worker must never just drop replies — tallying the
/// failures and settling the queue gauges. Lifecycle markers in the
/// queue are ignored. Drains and replies lock-free, then folds the
/// tallies in at the end.
fn reject_parked(
    rx: &Receiver<Job>,
    err: ServeError,
    stats: &Mutex<ShardStats>,
    gauges: &ShardGauges,
) {
    let mut failed: Vec<u128> = Vec::new();
    while let Ok(job) = rx.try_recv() {
        if let Job::Fix {
            enqueued, reply, ..
        } = job
        {
            ShardGauges::dec(&gauges.queued);
            // Gauge before reply, same as the served path: the reply
            // must never be observable while the gauges still count it.
            ShardGauges::dec(&gauges.in_flight);
            reply.complete(Err(err.clone()));
            failed.push(enqueued.elapsed().as_micros());
        }
    }
    let mut tally = relock(stats);
    for waited in failed {
        tally.requests += 1;
        tally.errors += 1;
        tally.total_latency_us += waited;
        tally.max_latency_us = tally.max_latency_us.max(waited);
    }
}

/// The running micro-batching server (see the module docs).
pub struct BatchServer {
    core: Arc<ServerCore>,
}

impl BatchServer {
    /// Starts serving every shard the catalog can serve — resident
    /// models, stored snapshots, and registered [`crate::TrainSpec`]s
    /// alike. A trained [`crate::ShardedRegistry`] converts into an
    /// unbounded catalog of parked models, so `start(registry, cfg)`
    /// serves it fully resident. Workers fault models in through the
    /// shared catalog on a shard's first request and spin down under the
    /// idle TTL or budget pressure (see the module docs), so one process
    /// serves strictly more shards than the catalog's
    /// [`crate::CatalogBudget`] allows resident, with answers
    /// bit-identical to a fully-resident server.
    ///
    /// Start is lazy: a corrupt stored snapshot surfaces as a typed
    /// [`ServeError::BadSnapshot`] reply to the fixes that fault it in,
    /// not here.
    ///
    /// Starting returns the heap set-up has freed to the OS, so the
    /// resident set is the live models, not allocator leftovers.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoShards`] for an empty catalog,
    /// [`ServeError::InvalidConfig`] for a zero `max_batch`.
    pub fn start(catalog: impl Into<ModelCatalog>, cfg: BatchConfig) -> Result<Self, ServeError> {
        let catalog = catalog.into();
        if catalog.is_empty() {
            return Err(ServeError::NoShards);
        }
        if cfg.max_batch == 0 {
            return Err(ServeError::InvalidConfig("max_batch must be >= 1".into()));
        }
        release_free_heap();
        let (max_hot, byte_budget) = match catalog.budget() {
            CatalogBudget::Unbounded => (usize::MAX, None),
            CatalogBudget::Count(n) => (n, None),
            CatalogBudget::Bytes(b) => (usize::MAX, Some(b)),
        };
        let keys: BTreeSet<ShardKey> = catalog.keys().into_iter().collect();
        let stats = keys
            .iter()
            .map(|k| (*k, Arc::new(Mutex::new(ShardStats::default()))))
            .collect();
        let gauges = keys
            .iter()
            .map(|k| (*k, Arc::new(ShardGauges::default())))
            .collect();
        Ok(BatchServer {
            core: Arc::new(ServerCore {
                catalog,
                cfg,
                keys,
                max_hot,
                byte_budget,
                slots: Mutex::new(Slots {
                    map: BTreeMap::new(),
                    occupancy: 0,
                    occupied_bytes: 0,
                    draining: 0,
                    draining_bytes: 0,
                    clock: 0,
                    workers: Vec::new(),
                }),
                room: Condvar::new(),
                shutting_down: AtomicBool::new(false),
                stats,
                gauges,
                paged: Mutex::new(PagedStats::default()),
            }),
        })
    }

    /// The same as [`BatchServer::start`], kept so callers written
    /// against the former demand-paged constructor compile unchanged.
    ///
    /// # Errors
    ///
    /// As [`BatchServer::start`].
    pub fn start_paged(catalog: ModelCatalog, cfg: BatchConfig) -> Result<Self, ServeError> {
        Self::start(catalog, cfg)
    }

    /// A new submission handle (cheap to clone per client thread).
    pub fn client(&self) -> ServeClient {
        ServeClient {
            core: Arc::clone(&self.core),
        }
    }

    /// Shard keys being served.
    pub fn keys(&self) -> Vec<ShardKey> {
        self.core.keys.iter().copied().collect()
    }

    /// Live per-shard statistics snapshot, in key order, with the queue
    /// gauges overlaid as of the read.
    pub fn stats(&self) -> Vec<(ShardKey, ShardStats)> {
        self.core
            .stats
            .iter()
            .map(|(k, s)| {
                let g = &self.core.gauges[k];
                let mut snap = relock(s).clone();
                snap.queue_depth = g.queued.load(Ordering::Acquire);
                snap.in_flight = g.in_flight.load(Ordering::Acquire);
                (*k, snap)
            })
            .collect()
    }

    /// Whole-server queue gauge snapshot: how much work is waiting and in
    /// flight right now, summed over every shard. This (via
    /// [`ServeClient::server_stats`]) is what the `noble-net` admission
    /// layer reads for its shedding watermarks.
    pub fn server_stats(&self) -> ServerStats {
        self.core.server_stats()
    }

    /// Builds the online-refresh companion of this server: a
    /// [`Refresher`] sharing its catalog, through which buffered
    /// corrections become new model versions that workers pick up at
    /// batch boundaries (see [`Refresher`]'s docs).
    ///
    /// # Errors
    ///
    /// None: every server runs over the versioned catalog, so this
    /// succeeds on every server (the `Result` keeps existing `?` callers
    /// compiling). Refreshing a shard that has no registered
    /// [`crate::TrainSpec`] — e.g. one served from a trained registry —
    /// is the typed [`ServeError::InvalidConfig`] of
    /// [`Refresher::refresh`].
    pub fn refresher(&self, cfg: RefreshConfig) -> Result<Refresher, ServeError> {
        Ok(Refresher::new(Arc::clone(&self.core), cfg))
    }

    /// Demand-paging lifecycle counters: faults, spin-downs, drains,
    /// parked requests, hot workers and the catalog's counters. Always
    /// `Some` — every server runs the paged engine (the `Option` keeps
    /// existing `expect` / `ok_or` callers compiling).
    pub fn paged_stats(&self) -> Option<PagedStats> {
        // Declared lock order: slots strictly before paged.
        let hot_shards = {
            let slots = relock(&self.core.slots);
            slots.occupancy
        };
        let mut paged = {
            let counters = relock(&self.core.paged);
            *counters
        };
        paged.hot_shards = hot_shards;
        paged.catalog = self.core.catalog.stats();
        Some(paged)
    }

    /// Graceful shutdown: each worker finishes every request already
    /// queued ahead of the shutdown marker, then exits. Returns the final
    /// per-shard statistics.
    ///
    /// Clients still holding a [`ServeClient`] get
    /// [`ServeError::ShuttingDown`] on later submits.
    pub fn shutdown(self) -> Vec<(ShardKey, ShardStats)> {
        self.stop();
        self.stats()
    }

    /// Shuts down and hands the whole model catalog back — resident
    /// models parked live, stored snapshots and train specs intact — so
    /// the caller can pass it back to [`BatchServer::start`] (under
    /// different batching knobs, say) without retraining or losing a
    /// single tier. Models that served a lowered precision tier come
    /// back through the store as their exact f64 snapshots. Trimming the
    /// resident tier back under the catalog budget never drops a model
    /// the store refuses: it stays resident (see
    /// [`crate::CatalogStats::pinned`]).
    pub fn shutdown_with_catalog(self) -> (Vec<(ShardKey, ShardStats)>, ModelCatalog) {
        self.stop();
        let stats = self.stats();
        let catalog = self.core.catalog.take();
        (stats, catalog)
    }

    /// Sends the shutdown marker to every worker and joins them; workers
    /// park their models in the shared catalog on the way out.
    fn stop(&self) {
        let core = &self.core;
        core.shutting_down.store(true, Ordering::Release);
        let handles = {
            let mut slots = relock(&core.slots);
            let keys: Vec<ShardKey> = slots.map.keys().copied().collect();
            for key in keys {
                if let Some(slot) = slots.map.remove(&key) {
                    let tx = match slot {
                        Slot::Warming { tx } | Slot::Hot { tx, .. } => tx,
                    };
                    // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks; sweeping the map and sending markers under one lock guarantees no fix lands behind a shutdown marker")
                    let _ = tx.send(Job::Shutdown);
                }
            }
            std::mem::take(&mut slots.workers)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Hands freed heap pages back to the OS (glibc's `malloc_trim`): how
/// much set-up scratch glibc keeps depends on which arena each set-up
/// thread used, so without this a server's resident set varied by
/// ~20 MB from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: releases only memory the allocator holds free.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.stop();
    }
}

type QueuedFix = (Vec<f64>, Instant, Completion);

/// Runs one coalesced batch through the shard's model and replies to every
/// rider. Width-mismatched fingerprints are rejected individually; the
/// rest still ride the stacked call (row independence makes the mixture
/// safe). The model call is supervised: a panic inside `localize_batch`
/// answers every rider of the batch with [`ServeError::Internal`], and the
/// worker carries on with its slot, lease and occupancy, so its gauges
/// settle and a later drain still reaches it.
/// The text of a panic payload, when it carries one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

fn serve_batch(
    localizer: &mut dyn Localizer,
    key: ShardKey,
    feature_dim: usize,
    batch: Vec<QueuedFix>,
    stats: &Mutex<ShardStats>,
    gauges: &ShardGauges,
) {
    let mut valid: Vec<usize> = Vec::with_capacity(batch.len());
    let mut replies: Vec<Option<Result<Point, ServeError>>> = Vec::with_capacity(batch.len());
    for (i, (fingerprint, _, _)) in batch.iter().enumerate() {
        if fingerprint.len() == feature_dim {
            valid.push(i);
            replies.push(None);
        } else {
            replies.push(Some(Err(ServeError::FeatureDim {
                key,
                expected: feature_dim,
                found: fingerprint.len(),
            })));
        }
    }

    let mut busy = Duration::ZERO;
    if !valid.is_empty() {
        let mut data = Vec::with_capacity(valid.len() * feature_dim);
        for &i in &valid {
            data.extend_from_slice(&batch[i].0);
        }
        // Every width was checked above, so a length mismatch here (or a
        // model answering with the wrong row count below) is an internal
        // invariant failure — fail the riders, not the worker.
        let result = Matrix::from_vec(valid.len(), feature_dim, data)
            .map_err(|e| ServeError::from(noble::NobleError::from(e)))
            .and_then(|features| {
                let started = Instant::now(); // noble-lint: allow(wall-clock, "busy-time metric only; never feeds a result")
                let result =
                    match catch_unwind(AssertUnwindSafe(|| localizer.localize_batch(&features))) {
                        Ok(answer) => answer.map_err(ServeError::from),
                        Err(payload) => Err(ServeError::Internal(format!(
                            "shard {key}: the model panicked in localize_batch: {}",
                            panic_message(payload.as_ref())
                        ))),
                    };
                busy = started.elapsed();
                result
            });
        match result {
            Ok(points) => {
                for (&i, point) in valid.iter().zip(points) {
                    replies[i] = Some(Ok(point));
                }
            }
            Err(e) => {
                for &i in &valid {
                    replies[i] = Some(Err(e.clone()));
                }
            }
        }
    }

    // Reply first, without the stats lock: a completion may take locks
    // of its own and must never extend a critical section that stats
    // readers also take.
    let batch_len = batch.len();
    let mut requests: u64 = 0;
    let mut errors: u64 = 0;
    let mut total_latency_us: u128 = 0;
    let mut max_latency_us: u128 = 0;
    for ((_, enqueued, reply), outcome) in batch.into_iter().zip(replies) {
        let outcome = outcome.unwrap_or_else(|| {
            Err(ServeError::Internal(format!(
                "shard {key} answered with too few predictions for its batch"
            )))
        });
        requests += 1;
        if outcome.is_err() {
            errors += 1;
        }
        // Release the gauge *before* the reply: whoever observes the
        // reply must observe the in-flight contribution already gone
        // (briefly undercounting is fine for the admission watermark;
        // lingering after the reply would make settled gauges racy).
        ShardGauges::dec(&gauges.in_flight);
        reply.complete(outcome);
        let waited = enqueued.elapsed().as_micros();
        total_latency_us += waited;
        max_latency_us = max_latency_us.max(waited);
    }
    let mut tally = relock(stats);
    tally.batches += 1;
    tally.max_batch = tally.max_batch.max(batch_len);
    tally.busy_us += busy.as_micros();
    tally.requests += requests;
    tally.errors += errors;
    tally.total_latency_us += total_latency_us;
    tally.max_latency_us = tally.max_latency_us.max(max_latency_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(cold: bool) -> (PendingFix, Completion) {
        let (slot, done) = reply_slot();
        (PendingFix { slot, cold }, Completion::new(done, cold))
    }

    #[test]
    fn pending_fix_returns_the_worker_answer_once() {
        let (pending, completion) = pending(true);
        let point = Point::new(1.5, -2.25);
        let worker = std::thread::spawn(move || completion.complete(Ok(point)));
        assert!(pending.cold());
        assert_eq!(pending.wait(), Ok(point));
        worker.join().unwrap();
    }

    #[test]
    fn pending_fix_answers_shutting_down_when_the_completion_is_dropped() {
        let (pending, completion) = pending(false);
        drop(completion);
        assert_eq!(pending.wait(), Err(ServeError::ShuttingDown));
    }

    /// A completed, a dropped and a disarmed completion: the callback
    /// runs exactly once for the first two, never for the third.
    #[test]
    fn completion_calls_back_exactly_once_or_not_at_all_when_disarmed() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let recorder = |calls: &Arc<Mutex<Vec<_>>>| -> Done {
            let calls = Arc::clone(calls);
            Box::new(move |outcome, cold| relock(&calls).push((outcome, cold)))
        };
        let point = Point::new(3.0, 4.0);
        Completion::new(recorder(&calls), false).complete(Ok(point));
        drop(Completion::new(recorder(&calls), true));
        Completion::new(recorder(&calls), false).disarm();
        assert_eq!(
            *relock(&calls),
            vec![(Ok(point), false), (Err(ServeError::ShuttingDown), true)]
        );
    }
}
