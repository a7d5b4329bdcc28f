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
//! whose models are already resident — which is what a trained
//! [`crate::ShardedRegistry`] converts into. Start is lazy for every
//! shard: a resident shard's first request spawns its worker, which
//! shares the resident model (no hydration), and without budget pressure
//! or an idle TTL the worker then stays hot for the server's lifetime.
//!
//! Each shard walks a COLD → WARMING → HOT → DRAINING lifecycle, decided
//! by the pure type in `lifecycle.rs` (the state table is there); this
//! module drives it with threads, channels, catalog calls and batching.
//! A worker faults its model in outside any server lock, so warming
//! shards overlap, and writes it back through the store before its slot
//! is released, so a later re-fault hydrates the identical bits.
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

use crate::lifecycle::{Lifecycle, Room, Submit, WorkerId};
use crate::refresh::{RefreshConfig, Refresher};
use crate::sync::{relock, rewait, rewait_timeout};
use crate::{CatalogStats, ModelCatalog, ServeError, ShardKey};
use noble::Localizer;
use noble_geo::Point;
use noble_linalg::Matrix;
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching and lifecycle knobs.
///
/// None of them changes an answer: every shard serves its catalog model's
/// exact f64 pass, whatever the batch shape, budget or spin-down timing.
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
        }
    }
}

/// One shard's counters and live queue gauges. Unlike the cumulative
/// [`ShardStats`], the gauges go *down* again: they are the admission
/// watermarks `noble-net` reads on its shedding path, so they are plain
/// atomics rather than another mutex.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    stats: Mutex<ShardStats>,
    /// Requests submitted but not yet picked into an inference batch.
    queued: AtomicU64,
    /// Requests submitted but not yet replied to (queued + in service).
    in_flight: AtomicU64,
}

impl Shard {
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
    /// than a [`crate::CatalogBudget::Count`] allows.
    pub hot_shards: usize,
    /// Model-version swaps picked up by hot workers at a batch boundary
    /// (an activation or rollback landed while the shard was serving).
    pub refresh_swaps: u64,
    /// The catalog's lifecycle counters (hits / hydrations /
    /// retrains / evictions / pinned).
    pub catalog: CatalogStats,
}

/// A queued fix: its fingerprint, its enqueue stamp and its reply.
type QueuedFix = (Vec<f64>, Instant, Completion);

/// One queued request or lifecycle marker.
enum Job {
    Fix(QueuedFix),
    /// Retire after serving everything queued ahead of this marker;
    /// write the model back through the store and free it.
    Drain,
    /// Retire after serving the backlog and leave the model resident in
    /// the shared catalog.
    Shutdown,
}

impl Job {
    /// A fix, taken off the queue gauge, or the marker to retire by.
    fn into_fix(self, shard: &Shard) -> Result<QueuedFix, Job> {
        match self {
            Job::Fix(fix) => {
                Shard::dec(&shard.queued);
                Ok(fix)
            }
            marker => Err(marker),
        }
    }
}

/// The caller's reply callback: the fix's outcome plus its cold flag
/// (see [`PendingFix::cold`]).
type Done = Box<dyn FnOnce(Result<Point, ServeError>, bool) + Send>;

/// A queued fix's reply. The worker calls it once with the outcome; if it
/// is dropped uncalled instead, the drop answers
/// [`ServeError::ShuttingDown`] — or [`ServeError::Internal`] when a
/// worker unwinds with the fix in hand — so every accepted fix gets
/// exactly one reply. Spending the callback, either way, first releases
/// the fix's in-flight gauge.
struct Completion {
    done: Option<Done>,
    cold: bool,
    shard: Arc<Shard>,
}

impl Completion {
    fn new(done: Done, cold: bool, shard: Arc<Shard>) -> Self {
        Completion {
            done: Some(done),
            cold,
            shard,
        }
    }

    /// Spends the callback, once: releases the in-flight gauge *before*
    /// replying, so whoever observes the reply observes the gauge settled.
    /// `None` drops the callback uncalled (a failed submit reports the
    /// error to its caller instead).
    fn spend(&mut self, outcome: Option<Result<Point, ServeError>>) {
        if let Some(done) = self.done.take() {
            Shard::dec(&self.shard.in_flight);
            if let Some(outcome) = outcome {
                done(outcome, self.cold);
            }
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.done.is_some() {
            let err = if std::thread::panicking() {
                ServeError::Internal("the shard worker panicked before replying".into())
            } else {
                ServeError::ShuttingDown
            };
            self.spend(Some(Err(err)));
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
    /// reach a shard before its worker first acquires it. Latency-sensitive
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
    /// unwinds before replying, it runs with [`ServeError::Internal`] on
    /// the unwinding thread. On `Err`, it never runs. Keep it short: later
    /// riders of the batch wait for it.
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
        self.core.shards.keys().copied().collect()
    }

    /// Whole-server queue gauge snapshot (see
    /// [`BatchServer::server_stats`]). Exposed on the client handle so an
    /// admission layer holding only a [`ServeClient`] can read its
    /// watermarks without a reference to the server.
    pub fn server_stats(&self) -> ServerStats {
        self.core.server_stats()
    }
}

/// How often a warming worker with no room re-polls the budget: the
/// victim it needs may still be warming (undrainable) and turn hot
/// without a release to signal, so waiting must not be notification-only.
const ROOM_POLL: Duration = Duration::from_millis(5);

/// The lifecycle plus the worker handles, under one short-held lock.
struct Slots {
    lifecycle: Lifecycle<Sender<Job>>,
    /// Handles of live (and recently finished) workers; reaped on spawn,
    /// joined at shutdown.
    workers: Vec<JoinHandle<()>>,
}

/// Shared state of a running server: its catalog, the lifecycle and the
/// counters, held by the server, every client and every shard worker.
pub(crate) struct ServerCore {
    pub(crate) catalog: ModelCatalog,
    cfg: BatchConfig,
    slots: Mutex<Slots>,
    /// Signals slot releases to warming workers waiting for room.
    room: Condvar,
    /// Every routable shard, fixed at start (the catalog's keys).
    pub(crate) shards: BTreeMap<ShardKey, Arc<Shard>>,
}

impl ServerCore {
    /// Sums the per-shard gauges into a [`ServerStats`] snapshot.
    fn server_stats(&self) -> ServerStats {
        let mut out = ServerStats::default();
        for g in self.shards.values() {
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
        let shard = self.shards.get(&key).ok_or(ServeError::UnknownShard(key))?;
        let mut slots = relock(&self.slots);
        let (tx, cold) = match slots.lifecycle.submit(key)? {
            Submit::Send { route, cold } => (route, cold),
            Submit::Spawn(id) => {
                let tx = self.spawn_worker(&mut slots.workers, id, key)?;
                slots.lifecycle.spawned(id, key, tx.clone());
                (tx, true)
            }
        };
        shard.queued.fetch_add(1, Ordering::AcqRel);
        shard.in_flight.fetch_add(1, Ordering::AcqRel);
        // noble-lint: allow(wall-clock, "enqueue stamp feeds latency metrics only; results never read it")
        let enqueued = Instant::now();
        let fix = Job::Fix((
            fingerprint,
            enqueued,
            Completion::new(done, cold, Arc::clone(shard)),
        ));
        // Sending under the lock orders every fix against the lifecycle
        // markers: a route is removed, and its marker sent, under the
        // same lock, so a fix is either ahead of the marker — served by
        // the retiring worker — or routed to a fresh successor. Never
        // dropped.
        // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks, and sending under the slots lock is the fix-vs-marker ordering argument above")
        tx.send(fix).map_err(|mpsc::SendError(job)| {
            if let Job::Fix((_, _, mut reply)) = job {
                reply.spend(None);
            }
            Shard::dec(&shard.queued);
            ServeError::ShuttingDown
        })?;
        Ok(cold)
    }

    /// Spawns worker `id` for `key` and returns its sender, or
    /// [`ServeError::Internal`] when the OS refuses the thread (nothing is
    /// registered then, so a later submit simply retries).
    fn spawn_worker(
        self: &Arc<Self>,
        workers: &mut Vec<JoinHandle<()>>,
        id: WorkerId,
        key: ShardKey,
    ) -> Result<Sender<Job>, ServeError> {
        // Reap handles of workers that already spun down so a long-lived
        // server does not accumulate one handle per spin cycle.
        let (done, live) = std::mem::take(workers)
            .into_iter()
            .partition(JoinHandle::is_finished);
        *workers = live;
        for handle in done {
            let _ = handle.join();
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let core = Arc::clone(self);
        let shard = Arc::clone(&self.shards[&key]);
        let handle = std::thread::Builder::new()
            .name(format!("noble-page-{key}"))
            .spawn(move || {
                // Built first, so its drop is the exit of every path.
                let worker = ShardWorker {
                    core,
                    id,
                    key,
                    rx,
                    shard,
                    hold: Hold::Nothing,
                    exit_error: ServeError::ShuttingDown,
                };
                noble_linalg::as_worker(|| worker.run())
            })
            .map_err(|e| {
                ServeError::Internal(format!("cannot spawn worker for shard {key}: {e}"))
            })?;
        workers.push(handle);
        Ok(tx)
    }
}

/// What a worker's exit does with its catalog hold on its key.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// It holds nothing: it never acquired the model, or the acquire
    /// failed.
    Nothing,
    /// It leaves the model resident: shutdown, or an unwind (no model
    /// code runs in a drop that is already unwinding).
    Keep,
    /// It retires the model cold: a drain or an idle spin-down.
    Retire,
}

/// One shard worker: claims a budget slot, acquires the model, serves
/// batches and releases it (the state table is in `lifecycle.rs`).
/// Dropping it is its one exit, on return or unwind.
struct ShardWorker {
    core: Arc<ServerCore>,
    id: WorkerId,
    key: ShardKey,
    rx: Receiver<Job>,
    shard: Arc<Shard>,
    /// Its catalog hold, which its drop releases.
    hold: Hold,
    /// The answer for fixes still queued when it exits.
    exit_error: ServeError,
}

impl ShardWorker {
    fn run(mut self) {
        let core = Arc::clone(&self.core);
        let mut slots = relock(&core.slots);
        loop {
            match slots.lifecycle.claim_room(self.id) {
                Room::Claimed => break,
                // Shutdown landed while this worker waited for room: it
                // must not fault a model in (a spec-only shard would
                // *retrain*) just to serve the stragglers.
                Room::GiveUp => return,
                Room::Wait(victim) => {
                    if let Some(victim) = victim {
                        // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks; a marker is sent under the lock that removed its route, so no fix lands behind it")
                        let _ = victim.send(Job::Drain);
                    }
                    slots = rewait_timeout(&core.room, slots, ROOM_POLL).0;
                }
            }
        }
        drop(slots);
        // The swap epoch this worker has observed, re-checked per batch;
        // read before the fault-in, so an activation that lands during it
        // is picked up at the first batch boundary.
        let mut epoch = core.catalog.epoch();
        let served = match core.catalog.acquire(self.key) {
            Ok(served) => served,
            Err(e) => {
                self.exit_error = e;
                return;
            }
        };
        self.hold = Hold::Keep;
        let mut version = served.version;
        let mut model = served.model;
        {
            let mut slots = relock(&core.slots);
            for victim in slots.lifecycle.leased(self.id, served.cost) {
                // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks; a marker is sent under the lock that removed its route, so no fix lands behind it")
                let _ = victim.send(Job::Drain);
            }
        }

        // Serve until a marker; idle or orphaned, retire as if drained.
        let mut feature_dim = model.info().feature_dim;
        let marker = loop {
            // Without an idle TTL this waits for good (a timeout too large
            // for the clock is a plain `recv`).
            let job = match self
                .rx
                .recv_timeout(core.cfg.idle_ttl.unwrap_or(Duration::MAX))
            {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle: go cold — unless a submit raced the timeout.
                    // Submits send while holding the slots lock, so the
                    // emptiness check below is atomic with removing the
                    // route.
                    let mut slots = relock(&core.slots);
                    // noble-lint: allow(lock-discipline, "non-blocking try_recv, deliberately under the slots lock: the emptiness check must be atomic with removing the route or a racing submit is dropped")
                    match self.rx.try_recv() {
                        Ok(job) => job,
                        Err(_) => {
                            slots.lifecycle.idle(self.id);
                            break Job::Drain;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break Job::Drain,
            };
            let first = match job.into_fix(&self.shard) {
                Ok(fix) => fix,
                Err(marker) => break marker,
            };
            // Version check at the batch boundary: an activation or
            // rollback since the last batch swaps the model *here*, before
            // anything of this batch is served — every batch runs against
            // exactly one generation, and answers within a pinned version
            // stay bit-stable. An unchanged epoch is one atomic load.
            let now_epoch = core.catalog.epoch();
            if now_epoch != epoch {
                epoch = now_epoch;
                if let Some(fresh) = core.catalog.newer(self.key, version) {
                    model = fresh.model;
                    feature_dim = model.info().feature_dim;
                    version = fresh.version;
                    relock(&core.slots).lifecycle.swapped();
                }
            }
            let mut batch = vec![first];
            let mut retire_after = None;
            // noble-lint: allow(wall-clock, "batching deadline only: batch boundaries never change answers (shape-invariant kernels)")
            let deadline = Instant::now() + core.cfg.latency_budget;
            while batch.len() < core.cfg.max_batch && retire_after.is_none() {
                // noble-lint: allow(wall-clock, "remaining-budget poll for the coalescing wait; never feeds a result")
                let wait = deadline.saturating_duration_since(Instant::now());
                match self
                    .rx
                    .recv_timeout(wait)
                    .map(|job| job.into_fix(&self.shard))
                {
                    Ok(Ok(fix)) => batch.push(fix),
                    Ok(Err(marker)) => retire_after = Some(marker),
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => retire_after = Some(Job::Drain),
                }
            }
            serve_batch(model.as_ref(), self.key, feature_dim, batch, &self.shard);
            if let Some(marker) = retire_after {
                break marker;
            }
        };

        // Shutdown leaves the model resident for the handed-back catalog;
        // a drain or an idle spin-down retires it.
        if !matches!(marker, Job::Shutdown) {
            self.hold = Hold::Retire;
        }
    }
}

impl Drop for ShardWorker {
    /// The one exit: release the catalog hold (a retiring worker writes
    /// its model through before its slot frees), release the slot
    /// (waking workers that wait for room), and answer every fix still
    /// queued (none on a normal retirement).
    fn drop(&mut self) {
        if self.hold != Hold::Nothing {
            self.core
                .catalog
                .release(self.key, self.hold == Hold::Retire);
        }
        relock(&self.core.slots).lifecycle.exited(self.id);
        self.core.room.notify_all();
        let err = if std::thread::panicking() {
            ServeError::Internal(format!("shard {}: the worker panicked", self.key))
        } else {
            self.exit_error.clone()
        };
        let shard = &self.shard;
        let queued = self
            .rx
            .try_iter()
            .filter_map(|job| job.into_fix(shard).ok());
        answer(queued.map(|fix| (fix, Err(err.clone()))), None, shard);
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
    /// unbounded catalog of resident models, so `start(registry, cfg)`
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
        let shards = catalog
            .keys()
            .into_iter()
            .map(|k| (k, Arc::default()))
            .collect();
        let lifecycle = Lifecycle::new(catalog.budget());
        Ok(BatchServer {
            core: Arc::new(ServerCore {
                catalog,
                cfg,
                slots: Mutex::new(Slots {
                    lifecycle,
                    workers: Vec::new(),
                }),
                room: Condvar::new(),
                shards,
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
        self.core.shards.keys().copied().collect()
    }

    /// Live per-shard statistics snapshot, in key order, with the queue
    /// gauges overlaid as of the read.
    pub fn stats(&self) -> Vec<(ShardKey, ShardStats)> {
        self.core
            .shards
            .iter()
            .map(|(k, shard)| {
                let mut snap = relock(&shard.stats).clone();
                snap.queue_depth = shard.queued.load(Ordering::Acquire);
                snap.in_flight = shard.in_flight.load(Ordering::Acquire);
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
        let mut paged = relock(&self.core.slots).lifecycle.stats();
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
    /// models resident, stored snapshots and train specs intact — so
    /// the caller can pass it back to [`BatchServer::start`] (under
    /// different batching knobs, say) without retraining or losing a
    /// single tier. Trimming the resident tier back under the catalog
    /// budget never drops a model the store refuses: it stays resident
    /// (see [`crate::CatalogStats::pinned`]).
    pub fn shutdown_with_catalog(self) -> (Vec<(ShardKey, ShardStats)>, ModelCatalog) {
        self.stop();
        let stats = self.stats();
        let catalog = self.core.catalog.take();
        (stats, catalog)
    }

    /// Sends the shutdown marker to every worker and joins them; workers
    /// leave their models resident in the shared catalog on the way out.
    fn stop(&self) {
        let handles = {
            let mut slots = relock(&self.core.slots);
            for route in slots.lifecycle.shutdown() {
                // noble-lint: allow(lock-discipline, "unbounded channel: send never blocks; removing every route and sending the markers under one lock guarantees no fix lands behind a shutdown marker")
                let _ = route.send(Job::Shutdown);
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

/// The text of a panic payload, when it carries one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(no message)")
}

/// Runs one coalesced batch through the shard's model and replies to every
/// rider. Width-mismatched fingerprints are rejected individually; the
/// rest still ride the stacked call (row independence makes the mixture
/// safe). The model call is supervised: a panic inside `localize_batch`
/// answers every rider of the batch with [`ServeError::Internal`], and the
/// worker carries on with its slot, hold and occupancy, so its gauges
/// settle and a later drain still reaches it.
fn serve_batch(
    localizer: &dyn Localizer,
    key: ShardKey,
    feature_dim: usize,
    batch: Vec<QueuedFix>,
    shard: &Shard,
) {
    let fits = |fix: &&QueuedFix| fix.0.len() == feature_dim;
    let valid = batch.iter().filter(fits).count();
    let mut busy = Duration::ZERO;
    let mut points = if valid == 0 {
        Ok(Vec::new().into_iter())
    } else {
        let mut data = Vec::with_capacity(valid * feature_dim);
        for (fingerprint, _, _) in batch.iter().filter(fits) {
            data.extend_from_slice(fingerprint);
        }
        // Every width was checked above, so a length mismatch here (or a
        // model answering with the wrong row count below) is an internal
        // invariant failure — fail the riders, not the worker.
        Matrix::from_vec(valid, feature_dim, data)
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
                result.map(Vec::into_iter)
            })
    };
    let outcomes: Vec<Result<Point, ServeError>> = batch
        .iter()
        .map(|(fingerprint, _, _)| match &mut points {
            _ if fingerprint.len() != feature_dim => Err(ServeError::FeatureDim {
                key,
                expected: feature_dim,
                found: fingerprint.len(),
            }),
            Ok(points) => points.next().ok_or_else(|| {
                ServeError::Internal(format!(
                    "shard {key} answered with too few predictions for its batch"
                ))
            }),
            Err(e) => Err(e.clone()),
        })
        .collect();
    let len = batch.len();
    answer(batch.into_iter().zip(outcomes), Some((len, busy)), shard);
}

/// Hands each fix its outcome, then folds the tallies into `stats` (plus
/// the batch's size and busy time for a served batch). The replies run
/// without the stats lock: a completion may take locks of its own and
/// must never extend a critical section that stats readers also take.
fn answer(
    replies: impl Iterator<Item = (QueuedFix, Result<Point, ServeError>)>,
    batch: Option<(usize, Duration)>,
    shard: &Shard,
) {
    let mut sum = ShardStats::default();
    for ((_, enqueued, mut reply), outcome) in replies {
        sum.requests += 1;
        sum.errors += u64::from(outcome.is_err());
        reply.spend(Some(outcome));
        let waited = enqueued.elapsed().as_micros();
        sum.total_latency_us += waited;
        sum.max_latency_us = sum.max_latency_us.max(waited);
    }
    let mut tally = relock(&shard.stats);
    if let Some((len, busy)) = batch {
        tally.batches += 1;
        tally.max_batch = tally.max_batch.max(len);
        tally.busy_us += busy.as_micros();
    }
    tally.requests += sum.requests;
    tally.errors += sum.errors;
    tally.total_latency_us += sum.total_latency_us;
    tally.max_latency_us = tally.max_latency_us.max(sum.max_latency_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(done: Done, cold: bool) -> Completion {
        Completion::new(done, cold, Arc::default())
    }

    fn pending(cold: bool) -> (PendingFix, Completion) {
        let (slot, done) = reply_slot();
        (PendingFix { slot, cold }, completion(done, cold))
    }

    #[test]
    fn pending_fix_returns_the_worker_answer_once() {
        let (pending, completion) = pending(true);
        let point = Point::new(1.5, -2.25);
        let worker = std::thread::spawn(move || {
            let mut completion = completion;
            completion.spend(Some(Ok(point)))
        });
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
        completion(recorder(&calls), false).spend(Some(Ok(point)));
        drop(completion(recorder(&calls), true));
        completion(recorder(&calls), false).spend(None);
        assert_eq!(
            *relock(&calls),
            vec![(Ok(point), false), (Err(ServeError::ShuttingDown), true)]
        );
    }
}
