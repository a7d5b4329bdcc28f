//! Stateful tracking sessions: the per-device layer over the batch
//! server.
//!
//! Everything below this module is stateless — a [`BatchServer`] maps a
//! fingerprint to a fix and forgets it. The paper's second half is
//! *tracking*: per-device trajectories smoothed over time, with semantic
//! events ("device 7 entered lab 3") derived from where the track
//! settles. This module adds that state:
//!
//! ```text
//!                    TrackingClient::submit(device, key, at, fp)
//!                                      │
//!                   ┌──────────────────┴──────────────────┐
//!                   ▼                                     ▼
//!            BatchServer                           SessionTable
//!         (stateless fix:                    shard = hash(device) % N
//!          fingerprint → raw Point)    ┌─────────┬─────────┬─────────┐
//!                   │                  │ Mutex   │ Mutex   │ Mutex   │
//!                   │    raw fix       │ shard 0 │ shard 1 │ ...     │
//!                   └─────────────────►│         │         │         │
//!                                      └────┬────┴─────────┴─────────┘
//!                                           ▼  per-device Session:
//!                                      TrajectorySmoother (bit-exact)
//!                                      ZoneDetector (K-fix hysteresis)
//!                                      bounded track buffer, last_seen
//!                                           │
//!                                           ▼
//!                             (TrackedFix, Vec<ZoneEvent>)
//! ```
//!
//! A [`Session`] walks a three-state lifecycle driven by *logical time*
//! (the `at` stamps callers submit with — never the wall clock, which
//! would break reproducibility):
//!
//! ```text
//!            observe()                 sweep(now): stale + in zone
//!   ABSENT ────────────► LIVE ──────────────────────────► AWAY
//!      ▲    (fresh smoother,     (ZoneDetector::force_leave  │
//!      │     fresh detector)      emits the closing `Left`;  │
//!      │                          session kept)              │
//!      └─────────────────────────────────────────────────────┘
//!              sweep(now): stale + out of zone → evicted
//! ```
//!
//! The two-phase timeout is deliberate: a sweep either emits a session's
//! closing `Left` *or* evicts it, never both — eviction of a formerly
//! in-zone session lands on a later sweep, after its membership was
//! closed. Revived devices (evicted, then observed again) get a fresh
//! smoother, so no stale velocity leaks across the gap.
//!
//! # Determinism contract
//!
//! Same interleaving of per-device observations ⇒ bit-identical smoothed
//! tracks and identical event sequences, at any `session_shards` count
//! and any client thread count. This holds by construction:
//!
//! - the raw fix is bit-identical however it was served (the
//!   `serving_parity` contract of [`BatchServer`]);
//! - each device's smoother and detector are touched only under that
//!   device's session-shard lock, in the caller's submission order —
//!   devices never share state, so cross-device interleaving is
//!   irrelevant;
//! - time is logical and caller-supplied, and [`SessionTable::sweep`]
//!   sorts its events by device id, so sweep output does not depend on
//!   how devices happen to be distributed across shards.
//!
//! The `tracking_sessions` integration suite pins all three clauses.
//!
//! # Example
//!
//! ```
//! use noble::wifi::tracking::SmootherConfig;
//! use noble::wifi::WifiNobleConfig;
//! use noble_datasets::{uji_campaign, UjiConfig};
//! use noble_geo::ZoneSet;
//! use noble_serve::{BatchConfig, RegistryConfig, ShardedRegistry, TrackingServer};
//!
//! let campaign = uji_campaign(&UjiConfig::small())?;
//! let registry = ShardedRegistry::train_wifi(
//!     &campaign,
//!     &WifiNobleConfig::small(),
//!     &RegistryConfig::default(),
//! )?;
//! let zones = ZoneSet::from_buildings(&campaign.map);
//! let server = TrackingServer::start(
//!     registry,
//!     zones,
//!     Some(campaign.map.clone()),
//!     SmootherConfig::default(),
//!     BatchConfig::default(),
//! )?;
//! let key = server.keys()[0];
//! let (fix, events) = server.submit(7, key, 0, vec![0.0; campaign.num_waps()])?;
//! println!("device 7 at {} (zone {:?}, {} events)", fix.smoothed, fix.zone, events.len());
//! assert_eq!(server.session_stats().live, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::server::OneShot;
use crate::sync::relock;
use crate::{
    BatchConfig, BatchServer, ModelCatalog, PagedStats, ServeClient, ServeError, ShardKey,
    ShardStats,
};
use noble::wifi::tracking::{SmootherConfig, TrajectorySmoother, ZoneDetector};
use noble_geo::{CampusMap, Point, ZoneSet};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Opaque per-device identity (the session-table key).
pub type DeviceId = u64;

/// Fixes a session remembers in its bounded track buffer
/// ([`SessionTable::track`]); older entries fall off the front.
const TRACK_BUFFER: usize = 32;

/// What happened at a zone boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ZoneEventKind {
    /// The device's track settled inside the zone (after the stability
    /// window).
    Entered,
    /// The device's track settled outside the zone — or went silent past
    /// the away timeout while inside it.
    Left,
}

/// One committed zone-membership change for one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneEvent {
    /// The device whose membership changed.
    pub device: DeviceId,
    /// Index of the zone in the server's [`ZoneSet`].
    pub zone: usize,
    /// Entered or left.
    pub kind: ZoneEventKind,
    /// Logical time of the observation (or sweep) that committed the
    /// change.
    pub at: u64,
}

/// One served-and-tracked fix, as returned by
/// [`TrackingClient::submit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackedFix {
    /// The raw localizer output (what a stateless [`BatchServer`] would
    /// have returned).
    pub raw: Point,
    /// The session's smoothed position after consuming the raw fix.
    pub smoothed: Point,
    /// The session's *committed* zone after this observation — the
    /// hysteresis-stable membership, not the instantaneous zone under
    /// the smoothed point.
    pub zone: Option<usize>,
    /// Whether the underlying shard was cold and the fix parked while
    /// its model faulted in (see [`crate::PendingFix::cold`]).
    pub cold: bool,
}

/// Per-device tracking state. Lives inside one session-table shard; all
/// access is under that shard's lock.
struct Session {
    smoother: TrajectorySmoother,
    detector: ZoneDetector,
    /// Most recent `(at, smoothed)` pairs, oldest first, bounded by
    /// [`TRACK_BUFFER`].
    track: VecDeque<(u64, Point)>,
    /// Logical time of the last observation (drives the away timeout).
    last_seen: u64,
}

/// Session-layer counters ([`SessionTable::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Sessions currently held (live or away).
    pub live: usize,
    /// Sessions ever created (revivals count again).
    pub created: u64,
    /// Sessions evicted by the away timeout.
    pub evicted: u64,
    /// Observations consumed.
    pub observations: u64,
    /// `Entered` events emitted.
    pub entered: u64,
    /// `Left` events emitted (fix-driven and sweep-driven alike).
    pub left: u64,
    /// Lock shards the table is split across.
    pub shards: usize,
    /// Approximate heap footprint of one full session in bytes (state
    /// machine + a full track buffer) — the "bytes/session" capacity
    /// planning number.
    pub approx_session_bytes: usize,
    /// Fix-tier gauge: requests queued in the underlying [`BatchServer`]
    /// but not yet batched, as of the read. Always `0` from a bare
    /// [`SessionTable::stats`] — only [`TrackingClient::session_stats`]
    /// (and [`TrackingServer::session_stats`]) can see the fix tier.
    pub queued_fixes: u64,
    /// Fix-tier gauge: requests submitted to the underlying
    /// [`BatchServer`] but not yet replied to, as of the read. `0` from a
    /// bare [`SessionTable::stats`], like
    /// [`SessionStats::queued_fixes`].
    pub in_flight_fixes: u64,
}

/// The sharded per-device session store.
///
/// `session_shards` independently locked [`BTreeMap`]s, with devices
/// assigned by a SplitMix64 hash of their id. Sharding only spreads lock
/// contention; it never changes behavior (see the module docs).
pub struct SessionTable {
    shards: Vec<Mutex<BTreeMap<DeviceId, Session>>>,
    zones: ZoneSet,
    map: Option<CampusMap>,
    smoother: SmootherConfig,
    stability_k: u32,
    away_timeout: Option<u64>,
    created: AtomicU64,
    evicted: AtomicU64,
    observations: AtomicU64,
    entered: AtomicU64,
    left: AtomicU64,
}

impl SessionTable {
    /// Creates an empty table. Zone membership is tested against the
    /// *smoothed* position (snapped to `map` when the smoother config
    /// asks for it); `cfg` supplies the session knobs
    /// ([`BatchConfig::session_shards`], [`BatchConfig::stability_k`],
    /// [`BatchConfig::away_timeout`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `session_shards` or
    /// `stability_k` is zero.
    pub fn new(
        zones: ZoneSet,
        map: Option<CampusMap>,
        smoother: SmootherConfig,
        cfg: &BatchConfig,
    ) -> Result<Self, ServeError> {
        if cfg.session_shards == 0 {
            return Err(ServeError::InvalidConfig(
                "session_shards must be >= 1".into(),
            ));
        }
        if cfg.stability_k == 0 {
            return Err(ServeError::InvalidConfig("stability_k must be >= 1".into()));
        }
        Ok(SessionTable {
            shards: (0..cfg.session_shards)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            zones,
            map,
            smoother,
            stability_k: cfg.stability_k,
            away_timeout: cfg.away_timeout,
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            observations: AtomicU64::new(0),
            entered: AtomicU64::new(0),
            left: AtomicU64::new(0),
        })
    }

    /// SplitMix64 finalizer — device ids are often sequential, and a
    /// plain modulus would pile consecutive devices onto alternating
    /// shards in lockstep.
    fn shard_of(&self, device: DeviceId) -> usize {
        let mut z = device.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % self.shards.len() as u64) as usize
    }

    /// Consumes one raw fix for `device` at logical time `at`: smooths
    /// it, records it in the bounded track buffer, and runs the zone
    /// detector. Returns the smoothed position, the committed zone, and
    /// any events this observation committed (`Left` before `Entered`
    /// on a direct zone-to-zone move).
    ///
    /// Callers must deliver each device's observations in order (`at`
    /// non-decreasing per device); observations of *different* devices
    /// may interleave freely.
    pub fn observe(
        &self,
        device: DeviceId,
        at: u64,
        fix: Point,
    ) -> (Point, Option<usize>, Vec<ZoneEvent>) {
        let mut shard = relock(&self.shards[self.shard_of(device)]);
        let session = shard.entry(device).or_insert_with(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            Session {
                smoother: TrajectorySmoother::new(self.smoother),
                detector: ZoneDetector::new(self.stability_k),
                track: VecDeque::with_capacity(TRACK_BUFFER),
                last_seen: at,
            }
        });
        session.last_seen = at;
        let smoothed = session.smoother.update(fix, self.map.as_ref());
        if session.track.len() == TRACK_BUFFER {
            session.track.pop_front();
        }
        session.track.push_back((at, smoothed));
        let mut events = Vec::new();
        if let Some(t) = session.detector.observe(self.zones.locate(smoothed)) {
            if let Some(zone) = t.left {
                self.left.fetch_add(1, Ordering::Relaxed);
                events.push(ZoneEvent {
                    device,
                    zone,
                    kind: ZoneEventKind::Left,
                    at,
                });
            }
            if let Some(zone) = t.entered {
                self.entered.fetch_add(1, Ordering::Relaxed);
                events.push(ZoneEvent {
                    device,
                    zone,
                    kind: ZoneEventKind::Entered,
                    at,
                });
            }
        }
        self.observations.fetch_add(1, Ordering::Relaxed);
        (smoothed, session.detector.current(), events)
    }

    /// Retires sessions that have gone silent — call it off the serving
    /// path (a maintenance tick), with `now` on the same logical clock
    /// as the `at` stamps. A session is *stale* once
    /// `now - last_seen > away_timeout`. Stale sessions advance one
    /// lifecycle phase per sweep:
    ///
    /// 1. stale and in a zone → its membership is closed
    ///    ([`ZoneDetector::force_leave`]) and the closing `Left` emitted;
    ///    the session is kept;
    /// 2. stale and out of every zone → evicted silently.
    ///
    /// So no session both emits an event and is evicted in the same
    /// sweep. Events are sorted by device id, making sweep output
    /// independent of the shard layout. With no
    /// [`BatchConfig::away_timeout`] configured the sweep is a no-op.
    pub fn sweep(&self, now: u64) -> Vec<ZoneEvent> {
        let Some(timeout) = self.away_timeout else {
            return Vec::new();
        };
        let mut events = Vec::new();
        for shard in &self.shards {
            let mut shard = relock(shard);
            let stale: Vec<DeviceId> = shard
                .iter()
                .filter(|(_, s)| now.saturating_sub(s.last_seen) > timeout)
                .map(|(d, _)| *d)
                .collect();
            for device in stale {
                let Some(session) = shard.get_mut(&device) else {
                    continue;
                };
                if let Some(zone) = session.detector.force_leave() {
                    self.left.fetch_add(1, Ordering::Relaxed);
                    events.push(ZoneEvent {
                        device,
                        zone,
                        kind: ZoneEventKind::Left,
                        at: now,
                    });
                } else {
                    shard.remove(&device);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        events.sort_by_key(|e| e.device);
        events
    }

    /// The recent smoothed track of `device` (oldest first), if its
    /// session is held.
    pub fn track(&self, device: DeviceId) -> Option<Vec<(u64, Point)>> {
        let shard = relock(&self.shards[self.shard_of(device)]);
        shard
            .get(&device)
            .map(|s| s.track.iter().copied().collect())
    }

    /// Current counters (the live count walks every shard, so keep it
    /// off hot paths).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            live: self.shards.iter().map(|s| relock(s).len()).sum(),
            created: self.created.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            entered: self.entered.load(Ordering::Relaxed),
            left: self.left.load(Ordering::Relaxed),
            shards: self.shards.len(),
            approx_session_bytes: std::mem::size_of::<(DeviceId, Session)>()
                + TRACK_BUFFER * std::mem::size_of::<(u64, Point)>(),
            queued_fixes: 0,
            in_flight_fixes: 0,
        }
    }
}

/// A cloneable handle onto a running [`TrackingServer`] — one per client
/// thread, like [`ServeClient`].
#[derive(Clone)]
pub struct TrackingClient {
    client: ServeClient,
    sessions: Arc<SessionTable>,
}

impl TrackingClient {
    /// Localizes one fingerprint through the batch server, then feeds
    /// the raw fix through `device`'s session: smoothing, track buffer,
    /// zone hysteresis. Returns the tracked fix plus any zone events
    /// this observation committed.
    ///
    /// Per-device ordering is the caller's contract: a device's
    /// observations must be submitted (and each call completed) in
    /// logical-time order. Different devices may be driven from
    /// different threads freely.
    ///
    /// # Errors
    ///
    /// Everything [`ServeClient::submit`] and the shard worker can
    /// reply — the session is untouched when the fix fails.
    pub fn submit(
        &self,
        device: DeviceId,
        key: ShardKey,
        at: u64,
        fingerprint: Vec<f64>,
    ) -> Result<(TrackedFix, Vec<ZoneEvent>), ServeError> {
        let slot = OneShot::new();
        let filled = Arc::clone(&slot);
        self.submit_then(device, key, at, fingerprint, move |outcome| {
            filled.put(outcome)
        })?;
        slot.take()
    }

    /// Enqueues one tracked fix without blocking; the reply goes to
    /// `done` (see [`ServeClient::submit_then`] for when and where it
    /// runs). The session update runs in the fix's completion on the
    /// shard worker, so a device's fixes to one shard update its session
    /// in submission order.
    ///
    /// # Errors
    ///
    /// As [`ServeClient::submit`]; `done` never runs on `Err`.
    pub fn submit_then(
        &self,
        device: DeviceId,
        key: ShardKey,
        at: u64,
        fingerprint: Vec<f64>,
        done: impl FnOnce(Result<(TrackedFix, Vec<ZoneEvent>), ServeError>) + Send + 'static,
    ) -> Result<(), ServeError> {
        let sessions = Arc::clone(&self.sessions);
        self.client
            .submit_then(key, fingerprint, move |outcome, cold| {
                done(outcome.map(|raw| {
                    let (smoothed, zone, events) = sessions.observe(device, at, raw);
                    (
                        TrackedFix {
                            raw,
                            smoothed,
                            zone,
                            cold,
                        },
                        events,
                    )
                }))
            })
    }

    /// Runs a session sweep at logical time `now` (see
    /// [`SessionTable::sweep`]).
    pub fn sweep(&self, now: u64) -> Vec<ZoneEvent> {
        self.sessions.sweep(now)
    }

    /// Session-layer counters, with the fix tier's live queue gauges
    /// overlaid (the admission-watermark inputs; see
    /// [`ServeClient::server_stats`]).
    pub fn session_stats(&self) -> SessionStats {
        let mut stats = self.sessions.stats();
        let server = self.client.server_stats();
        stats.queued_fixes = server.queue_depth;
        stats.in_flight_fixes = server.in_flight;
        stats
    }

    /// The raw fix-serving client underneath this tracking handle — the
    /// stateless tier the network front end routes `Localize` frames to
    /// (while `TrackedSubmit` frames go through
    /// [`TrackingClient::submit`]).
    pub fn fix_client(&self) -> &ServeClient {
        &self.client
    }
}

/// A [`BatchServer`] with a [`SessionTable`] on top: per-device smoothed
/// tracks and zone events over stateless fix serving. See the module
/// docs for the data flow and the determinism contract.
pub struct TrackingServer {
    server: BatchServer,
    handle: TrackingClient,
}

impl TrackingServer {
    /// Starts tracking over a [`BatchServer::start`] fix tier: a trained
    /// [`crate::ShardedRegistry`] serves fully resident, a budgeted
    /// [`ModelCatalog`] pages localizer models under its budget while
    /// the session tier holds every live device — sessions are hundreds
    /// of bytes, models are not. Pass the campus map to snap smoothed
    /// tracks onto accessible space ([`SmootherConfig::snap_to_map`]);
    /// zone membership is tested against the smoothed (post-snap)
    /// position.
    ///
    /// # Errors
    ///
    /// Everything [`BatchServer::start`] rejects, plus
    /// [`ServeError::InvalidConfig`] for zero
    /// [`BatchConfig::session_shards`] / [`BatchConfig::stability_k`].
    pub fn start(
        catalog: impl Into<ModelCatalog>,
        zones: ZoneSet,
        map: Option<CampusMap>,
        smoother: SmootherConfig,
        cfg: BatchConfig,
    ) -> Result<Self, ServeError> {
        let sessions = Arc::new(SessionTable::new(zones, map, smoother, &cfg)?);
        let server = BatchServer::start(catalog, cfg)?;
        Ok(TrackingServer::assemble(server, sessions))
    }

    fn assemble(server: BatchServer, sessions: Arc<SessionTable>) -> Self {
        let handle = TrackingClient {
            client: server.client(),
            sessions,
        };
        TrackingServer { server, handle }
    }

    /// A new submission handle (cheap to clone per client thread).
    pub fn client(&self) -> TrackingClient {
        self.handle.clone()
    }

    /// Tracks one fingerprint for `device` (see
    /// [`TrackingClient::submit`]).
    ///
    /// # Errors
    ///
    /// As [`TrackingClient::submit`].
    pub fn submit(
        &self,
        device: DeviceId,
        key: ShardKey,
        at: u64,
        fingerprint: Vec<f64>,
    ) -> Result<(TrackedFix, Vec<ZoneEvent>), ServeError> {
        self.handle.submit(device, key, at, fingerprint)
    }

    /// Runs a session sweep at logical time `now` (see
    /// [`SessionTable::sweep`]).
    pub fn sweep(&self, now: u64) -> Vec<ZoneEvent> {
        self.handle.sweep(now)
    }

    /// Session-layer counters.
    pub fn session_stats(&self) -> SessionStats {
        self.handle.session_stats()
    }

    /// Shard keys being served (routing targets for
    /// [`TrackingClient::submit`]).
    pub fn keys(&self) -> Vec<ShardKey> {
        self.server.keys()
    }

    /// Live per-shard fix-serving statistics.
    pub fn stats(&self) -> Vec<(ShardKey, ShardStats)> {
        self.server.stats()
    }

    /// Demand-paging lifecycle counters of the fix tier (always `Some`;
    /// see [`BatchServer::paged_stats`]).
    pub fn paged_stats(&self) -> Option<PagedStats> {
        self.server.paged_stats()
    }

    /// Graceful shutdown of the fix tier; returns its final per-shard
    /// statistics and the session layer's final counters.
    pub fn shutdown(self) -> (Vec<(ShardKey, ShardStats)>, SessionStats) {
        let sessions = self.handle.session_stats();
        (self.server.shutdown(), sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noble_geo::{Polygon, Zone};

    fn two_zone_table(cfg: &BatchConfig) -> SessionTable {
        let zones = ZoneSet::new(vec![
            Zone::new("west", Polygon::rectangle(0.0, 0.0, 5.0, 10.0).unwrap()),
            Zone::new("east", Polygon::rectangle(5.0, 0.0, 10.0, 10.0).unwrap()),
        ]);
        let smoother = SmootherConfig {
            snap_to_map: false,
            ..SmootherConfig::default()
        };
        SessionTable::new(zones, None, smoother, cfg).unwrap()
    }

    fn settle(table: &SessionTable, device: DeviceId, from: u64, p: Point) -> Vec<ZoneEvent> {
        let mut events = Vec::new();
        for i in 0..3 {
            events.extend(table.observe(device, from + i, p).2);
        }
        events
    }

    #[test]
    fn zero_shards_and_zero_k_are_rejected() {
        let zones = ZoneSet::default();
        let smoother = SmootherConfig::default();
        let bad_shards = BatchConfig {
            session_shards: 0,
            ..BatchConfig::default()
        };
        assert!(matches!(
            SessionTable::new(zones.clone(), None, smoother, &bad_shards),
            Err(ServeError::InvalidConfig(_))
        ));
        let bad_k = BatchConfig {
            stability_k: 0,
            ..BatchConfig::default()
        };
        assert!(matches!(
            SessionTable::new(zones, None, smoother, &bad_k),
            Err(ServeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn observe_creates_then_reuses_one_session_per_device() {
        let table = two_zone_table(&BatchConfig::default());
        let inside = Point::new(2.0, 2.0);
        let events = settle(&table, 7, 0, inside);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, ZoneEventKind::Entered);
        assert_eq!(events[0].zone, 0);
        let stats = table.stats();
        assert_eq!((stats.live, stats.created, stats.observations), (1, 1, 3));
        assert!(stats.approx_session_bytes > 0);
        // A stationary device stays settled: no further events.
        assert!(settle(&table, 7, 3, inside).is_empty());
        assert_eq!(table.stats().created, 1);
    }

    #[test]
    fn track_buffer_is_bounded() {
        let table = two_zone_table(&BatchConfig::default());
        for i in 0..(TRACK_BUFFER as u64 + 10) {
            table.observe(3, i, Point::new(2.0, 2.0));
        }
        let track = table.track(3).unwrap();
        assert_eq!(track.len(), TRACK_BUFFER);
        // Oldest entries fell off the front.
        assert_eq!(track[0].0, 10);
        assert_eq!(table.track(99), None);
    }

    #[test]
    fn sweep_without_timeout_is_inert() {
        let table = two_zone_table(&BatchConfig::default());
        settle(&table, 1, 0, Point::new(2.0, 2.0));
        assert!(table.sweep(1_000_000).is_empty());
        assert_eq!(table.stats().live, 1);
    }

    #[test]
    fn stale_sessions_leave_first_and_are_evicted_one_sweep_later() {
        let cfg = BatchConfig {
            away_timeout: Some(10),
            ..BatchConfig::default()
        };
        let table = two_zone_table(&cfg);
        // Device 1 settles in zone 0; device 2 wanders outside any zone.
        settle(&table, 1, 0, Point::new(2.0, 2.0));
        settle(&table, 2, 0, Point::new(50.0, 50.0));
        // Not stale yet at now = 12 (last_seen 2, timeout 10).
        assert!(table.sweep(12).is_empty());
        assert_eq!(table.stats().live, 2);
        // Stale at 13: the in-zone session emits its closing Left and is
        // kept; the zoneless one is evicted silently.
        let events = table.sweep(13);
        assert_eq!(events.len(), 1);
        assert_eq!(
            (
                events[0].device,
                events[0].zone,
                events[0].kind,
                events[0].at
            ),
            (1, 0, ZoneEventKind::Left, 13)
        );
        let stats = table.stats();
        assert_eq!((stats.live, stats.evicted), (1, 1));
        // The next sweep evicts the now-zoneless session, emitting nothing.
        assert!(table.sweep(14).is_empty());
        let stats = table.stats();
        assert_eq!((stats.live, stats.evicted), (0, 2));
    }

    #[test]
    fn sweep_events_are_sorted_by_device_at_any_shard_count() {
        for shards in [1usize, 2, 4, 7] {
            let cfg = BatchConfig {
                session_shards: shards,
                away_timeout: Some(1),
                ..BatchConfig::default()
            };
            let table = two_zone_table(&cfg);
            for device in [9u64, 3, 41, 17, 28] {
                settle(&table, device, 0, Point::new(2.0, 2.0));
            }
            let devices: Vec<DeviceId> = table.sweep(100).iter().map(|e| e.device).collect();
            assert_eq!(devices, vec![3, 9, 17, 28, 41], "shards = {shards}");
        }
    }

    #[test]
    fn revived_device_gets_a_fresh_smoother() {
        let cfg = BatchConfig {
            away_timeout: Some(1),
            ..BatchConfig::default()
        };
        let table = two_zone_table(&cfg);
        // Build up eastward velocity, then go silent until evicted.
        for i in 0..6u64 {
            table.observe(5, i, Point::new(50.0 + 3.0 * i as f64, 50.0));
        }
        table.sweep(100);
        assert_eq!(table.stats().live, 0);
        // The revived session's first fix must pass through verbatim —
        // stale velocity would drag it east of the raw fix.
        let (smoothed, _, _) = table.observe(5, 200, Point::new(50.0, 50.0));
        assert_eq!(smoothed, Point::new(50.0, 50.0));
        assert_eq!(table.stats().created, 2);
    }
}
