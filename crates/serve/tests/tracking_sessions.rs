//! The tracking-session determinism contract.
//!
//! The load-bearing test is
//! `tracked_fixes_bit_identical_across_session_shard_counts`: the same
//! interleaving of per-device observations must produce bit-identical
//! smoothed tracks (vs a direct single-threaded `TrajectorySmoother`
//! replay) and identical `ZoneEvent` sequences at session-shard counts
//! 1, 2 and 4, driven from one client thread per device. CI greps for
//! this suite and its hysteresis property tests by name — do not rename
//! them casually.

mod common;

use common::{fast_model_cfg, quick_campaign, registry_cfg};
use noble::wifi::tracking::{SmootherConfig, TrajectorySmoother, ZoneDetector};
use noble::Localizer;
use noble_datasets::WifiCampaign;
use noble_geo::{Point, ZoneSet};
use noble_serve::{
    partition_campaign, BatchConfig, CatalogBudget, DeviceId, MemStore, ModelCatalog, ModelStore,
    SessionTable, ShardKey, ShardPolicy, ShardedRegistry, TrackingServer, ZoneEvent, ZoneEventKind,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Mutex;

const DEVICES: u64 = 12;
const PHASE_A: u64 = 8; // observations every device makes
const PHASE_B: u64 = 8; // further observations only live devices make
const STABILITY_K: u32 = 2;
const AWAY_TIMEOUT: u64 = 3;

/// Dropout devices observe only in phase A, go silent, and are retired
/// by the away-timeout sweeps.
fn is_dropout(device: DeviceId) -> bool {
    device.is_multiple_of(3)
}

/// One device's scripted life: the serving shard it reports through and
/// its fingerprint sequence (phase A for everyone, phase B only for
/// devices that stay live).
struct DeviceScript {
    device: DeviceId,
    key: ShardKey,
    fingerprints: Vec<Vec<f64>>,
}

/// Builds the scripts plus the reference raw fix for every observation,
/// computed by direct per-shard `localize_batch` calls on models
/// hydrated from `store` — bit-identical to what any server built over
/// the same snapshots serves.
fn device_scripts(campaign: &WifiCampaign, store: &MemStore) -> Vec<(DeviceScript, Vec<Point>)> {
    let shards = partition_campaign(campaign, |s| ShardPolicy::PerBuilding.key_of(s), None);
    let mut rows_by_key: BTreeMap<ShardKey, Vec<Vec<f64>>> = BTreeMap::new();
    let mut models: BTreeMap<ShardKey, Box<dyn Localizer>> = BTreeMap::new();
    for (key, shard) in &shards {
        let features = shard.features(&shard.test);
        rows_by_key.insert(
            *key,
            (0..features.rows())
                .map(|i| features.row(i).to_vec())
                .collect(),
        );
        let snapshot = store.get(*key).unwrap().expect("saved shard");
        models.insert(*key, noble::hydrate(&snapshot).unwrap());
    }
    let keys: Vec<ShardKey> = rows_by_key.keys().copied().collect();
    (0..DEVICES)
        .map(|device| {
            let key = keys[device as usize % keys.len()];
            let rows = &rows_by_key[&key];
            let len = if is_dropout(device) {
                PHASE_A
            } else {
                PHASE_A + PHASE_B
            } as usize;
            let fingerprints: Vec<Vec<f64>> = (0..len)
                .map(|j| rows[(device as usize + j) % rows.len()].clone())
                .collect();
            let model = models.get_mut(&key).unwrap();
            let raw: Vec<Point> = fingerprints
                .iter()
                .map(|fp| {
                    let m = noble_linalg::Matrix::from_vec(1, fp.len(), fp.clone()).unwrap();
                    model.localize_batch(&m).unwrap()[0]
                })
                .collect();
            (
                DeviceScript {
                    device,
                    key,
                    fingerprints,
                },
                raw,
            )
        })
        .collect()
}

/// A device's observed life: smoothed track + fix-driven events.
type DeviceTrace = (Vec<Point>, Vec<ZoneEvent>);

/// The single-threaded reference: replay each device's raw fixes through
/// its own smoother + detector, exactly as a session would.
struct Reference {
    /// Per device: (smoothed track, fix-driven events).
    tracks: BTreeMap<DeviceId, DeviceTrace>,
    /// Expected events of the first sweep (closing `Left`s of in-zone
    /// dropout devices), sorted by device.
    sweep_left: Vec<ZoneEvent>,
}

fn reference_replay(
    scripts: &[(DeviceScript, Vec<Point>)],
    zones: &ZoneSet,
    map: &noble_geo::CampusMap,
    smoother_cfg: SmootherConfig,
    sweep_at: u64,
) -> Reference {
    let mut tracks = BTreeMap::new();
    let mut sweep_left = Vec::new();
    for (script, raw) in scripts {
        let mut smoother = TrajectorySmoother::new(smoother_cfg);
        let mut detector = ZoneDetector::new(STABILITY_K);
        let mut track = Vec::new();
        let mut events = Vec::new();
        for (j, &fix) in raw.iter().enumerate() {
            let at = j as u64;
            let smoothed = smoother.update(fix, Some(map));
            track.push(smoothed);
            if let Some(t) = detector.observe(zones.locate(smoothed)) {
                if let Some(zone) = t.left {
                    events.push(ZoneEvent {
                        device: script.device,
                        zone,
                        kind: ZoneEventKind::Left,
                        at,
                    });
                }
                if let Some(zone) = t.entered {
                    events.push(ZoneEvent {
                        device: script.device,
                        zone,
                        kind: ZoneEventKind::Entered,
                        at,
                    });
                }
            }
        }
        if is_dropout(script.device) {
            if let Some(zone) = detector.current() {
                sweep_left.push(ZoneEvent {
                    device: script.device,
                    zone,
                    kind: ZoneEventKind::Left,
                    at: sweep_at,
                });
            }
        }
        tracks.insert(script.device, (track, events));
    }
    sweep_left.sort_by_key(|e| e.device);
    Reference { tracks, sweep_left }
}

/// Drives the scripted devices through `server`, one client thread per
/// device (per-device submission order preserved, cross-device
/// interleaving arbitrary), phase A then phase B, and returns each
/// device's observed (track, fix events).
fn drive(
    server: &TrackingServer,
    scripts: &[(DeviceScript, Vec<Point>)],
) -> BTreeMap<DeviceId, DeviceTrace> {
    let observed: Mutex<BTreeMap<DeviceId, DeviceTrace>> = Mutex::new(BTreeMap::new());
    for phase in [0..PHASE_A, PHASE_A..PHASE_A + PHASE_B] {
        std::thread::scope(|s| {
            for (script, raw) in scripts {
                let client = server.client();
                let observed = &observed;
                let phase = phase.clone();
                s.spawn(move || {
                    let mut track = Vec::new();
                    let mut events = Vec::new();
                    for at in phase {
                        let Some(fp) = script.fingerprints.get(at as usize) else {
                            break; // dropout device: no phase-B script
                        };
                        let (fix, evs) = client
                            .submit(script.device, script.key, at, fp.clone())
                            .unwrap();
                        assert_eq!(fix.raw, raw[at as usize], "raw fix must be bit-identical");
                        track.push(fix.smoothed);
                        events.extend(evs);
                    }
                    let mut map = observed.lock().unwrap();
                    let entry = map.entry(script.device).or_default();
                    entry.0.extend(track);
                    entry.1.extend(events);
                });
            }
        });
    }
    observed.into_inner().unwrap()
}

#[test]
fn tracked_fixes_bit_identical_across_session_shard_counts() {
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap();
    let store = MemStore::new();
    ModelCatalog::from(registry).export_to(&store).unwrap();

    let scripts = device_scripts(&campaign, &store);
    let zones = ZoneSet::building_grid(&campaign.map, 2, 1).unwrap();
    let smoother_cfg = SmootherConfig::default();
    // Both sweeps run after phase B (last live observation at t = 15):
    // at t = 16 dropout devices (silent since t = 7) are stale — in-zone
    // ones emit their closing Left and are kept; at t = 17 they are
    // evicted silently. Live devices are 1–2 ticks old, never stale.
    let sweep_at = PHASE_A + PHASE_B;
    let reference = reference_replay(&scripts, &zones, &campaign.map, smoother_cfg, sweep_at);
    let total_events: usize = reference.tracks.values().map(|(_, e)| e.len()).sum();
    assert!(total_events > 0, "scenario produced no zone events");
    assert!(
        !reference.sweep_left.is_empty(),
        "no in-zone dropout device"
    );

    let dropouts = (0..DEVICES).filter(|d| is_dropout(*d)).count();
    for session_shards in [1usize, 2, 4] {
        let mut registry = ShardedRegistry::new();
        for key in store.list().unwrap() {
            let snapshot = store.get(key).unwrap().unwrap();
            registry.insert(key, noble::hydrate(&snapshot).unwrap());
        }
        let server = TrackingServer::start(
            registry,
            zones.clone(),
            Some(campaign.map.clone()),
            smoother_cfg,
            BatchConfig {
                session_shards,
                stability_k: STABILITY_K,
                away_timeout: Some(AWAY_TIMEOUT),
                ..BatchConfig::default()
            },
        )
        .unwrap();

        let observed = drive(&server, &scripts);
        for (script, _) in &scripts {
            let got = &observed[&script.device];
            let want = &reference.tracks[&script.device];
            assert_eq!(
                got.0, want.0,
                "device {} track diverged at {session_shards} session shards",
                script.device
            );
            assert_eq!(
                got.1, want.1,
                "device {} events diverged at {session_shards} session shards",
                script.device
            );
        }

        // Sweep 1: closing Lefts of in-zone dropouts, sorted by device;
        // sweep 2: silent eviction of the rest. Identical at every shard
        // count because both are pinned to the same reference.
        assert_eq!(server.sweep(sweep_at), reference.sweep_left);
        assert_eq!(server.sweep(sweep_at + 1), Vec::<ZoneEvent>::new());
        let stats = server.session_stats();
        assert_eq!(stats.created, DEVICES);
        assert_eq!(stats.evicted, dropouts as u64);
        assert_eq!(stats.live, (DEVICES as usize) - dropouts);
        let (_, final_stats) = server.shutdown();
        assert_eq!(final_stats, stats);
    }
}

#[test]
fn tracking_over_paged_server_matches_resident_reference() {
    // The tentpole wiring claim: sessions route through the demand-paged
    // BatchServer without changing a single bit. Budget of 1 forces
    // every shard revisit through an evict-and-refault cycle.
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap();
    let store = MemStore::new();
    ModelCatalog::from(registry).export_to(&store).unwrap();

    let scripts = device_scripts(&campaign, &store);
    let zones = ZoneSet::building_grid(&campaign.map, 2, 1).unwrap();
    let smoother_cfg = SmootherConfig::default();
    let reference = reference_replay(
        &scripts,
        &zones,
        &campaign.map,
        smoother_cfg,
        PHASE_A + PHASE_B,
    );

    let catalog = ModelCatalog::with_store(CatalogBudget::Count(1), Box::new(store)).unwrap();
    let server = TrackingServer::start(
        catalog,
        zones,
        Some(campaign.map.clone()),
        smoother_cfg,
        BatchConfig {
            stability_k: STABILITY_K,
            away_timeout: Some(AWAY_TIMEOUT),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let observed = drive(&server, &scripts);
    for (script, _) in &scripts {
        let got = &observed[&script.device];
        let want = &reference.tracks[&script.device];
        assert_eq!(got.0, want.0, "paged track diverged for {}", script.device);
        assert_eq!(got.1, want.1, "paged events diverged for {}", script.device);
    }
    let paged = server.paged_stats().expect("paged fix tier");
    assert!(paged.faults >= 1);
}

#[test]
fn revived_session_does_not_inherit_stale_velocity() {
    // Regression for smoother reset semantics: an evicted-then-revived
    // device must start from a fresh smoother — the first post-revival
    // fix passes through verbatim instead of being dragged by velocity
    // accumulated before the eviction.
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap();
    let server = TrackingServer::start(
        registry,
        ZoneSet::from_buildings(&campaign.map),
        None,
        SmootherConfig {
            snap_to_map: false,
            ..SmootherConfig::default()
        },
        BatchConfig {
            away_timeout: Some(2),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let key = server.keys()[0];
    let shards = partition_campaign(&campaign, |s| ShardPolicy::PerBuilding.key_of(s), None);
    let shard = &shards.iter().find(|(k, _)| **k == key).unwrap().1;
    let features = shard.features(&shard.test);
    let rows: Vec<Vec<f64>> = (0..features.rows().min(6))
        .map(|i| features.row(i).to_vec())
        .collect();
    assert!(rows.len() >= 2, "need at least two distinct fingerprints");

    // Build up motion state across several distinct fixes.
    for (at, row) in rows.iter().enumerate() {
        server.submit(1, key, at as u64, row.clone()).unwrap();
    }
    assert_eq!(server.session_stats().live, 1);
    // Two sweeps past the timeout: Left (if in a zone), then eviction.
    server.sweep(100);
    server.sweep(101);
    assert_eq!(server.session_stats().live, 0);
    assert_eq!(server.session_stats().evicted, 1);

    // Revival: the first fix of the fresh session is returned verbatim.
    let (fix, _) = server.submit(1, key, 200, rows[0].clone()).unwrap();
    assert_eq!(
        fix.smoothed, fix.raw,
        "revived session shows phantom motion on its first fix"
    );
    assert_eq!(server.session_stats().created, 2);
}

/// Replays `observations` (each `Some(zone)` / `None`) through one
/// detector and returns the indices at which a transition committed.
fn committed_indices(k: u32, observations: &[Option<usize>]) -> Vec<usize> {
    let mut detector = ZoneDetector::new(k);
    observations
        .iter()
        .enumerate()
        .filter_map(|(i, &z)| detector.observe(z).map(|_| i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hysteresis stability window: whatever the zone-observation
    /// sequence — boundary jitter included — two committed transitions
    /// are always at least `k` observations apart, and a strictly
    /// alternating two-zone jitter never commits anything at all
    /// once `k >= 2`.
    #[test]
    fn hysteresis_boundary_jitter_never_flaps_within_stability_window(
        k in 1u32..6,
        observations in proptest::collection::vec(
            (0u8..4).prop_map(|z| if z == 3 { None } else { Some(z as usize) }),
            1..120,
        ),
    ) {
        let commits = committed_indices(k, &observations);
        for pair in commits.windows(2) {
            prop_assert!(
                pair[1] - pair[0] >= k as usize,
                "transitions {} and {} closer than the k = {k} window",
                pair[0],
                pair[1]
            );
        }
        // Pure boundary jitter between two zones: with any real window
        // the detector must hold its first commitment forever.
        if k >= 2 {
            let jitter: Vec<Option<usize>> =
                (0..100).map(|i| Some(i % 2)).collect();
            let mut detector = ZoneDetector::new(k);
            let flaps = jitter.iter().filter(|&&z| detector.observe(z).is_some()).count();
            prop_assert!(flaps == 0, "alternating jitter flapped with k = {}", k);
        }
    }

    /// Hysteresis pairing under forced timeout: driving random walks
    /// through a session table and then sweeping until empty, every
    /// `Entered` is eventually paired with exactly one `Left` of the
    /// same zone, in strict alternation per device.
    #[test]
    fn hysteresis_every_entered_pairs_with_exactly_one_left_under_forced_timeout(
        k in 1u32..4,
        steps in proptest::collection::vec((0u64..5, 0u8..3), 1..150),
    ) {
        let zones = ZoneSet::new(vec![
            noble_geo::Zone::new("a", noble_geo::Polygon::rectangle(0.0, 0.0, 5.0, 10.0).unwrap()),
            noble_geo::Zone::new("b", noble_geo::Polygon::rectangle(5.0, 0.0, 10.0, 10.0).unwrap()),
        ]);
        let smoother = SmootherConfig {
            fix_weight: 1.0,
            velocity_retention: 0.0,
            max_step_m: 1e9,
            snap_to_map: false,
        };
        let cfg = BatchConfig {
            stability_k: k,
            away_timeout: Some(4),
            session_shards: 3,
            ..BatchConfig::default()
        };
        let table = SessionTable::new(zones, None, smoother, &cfg).unwrap();

        let mut events: Vec<ZoneEvent> = Vec::new();
        let mut last_at = 0u64;
        for (i, (device, spot)) in steps.iter().enumerate() {
            let at = i as u64;
            // spot 0/1: inside zone a/b; spot 2: outside every zone.
            let p = match spot {
                0 => Point::new(2.0, 5.0),
                1 => Point::new(7.0, 5.0),
                _ => Point::new(50.0, 50.0),
            };
            events.extend(table.observe(*device, at, p).2);
            // Interleave sweeps so timeouts fire mid-run too.
            if i % 7 == 6 {
                events.extend(table.sweep(at));
            }
            last_at = at;
        }
        // Forced timeout: sweep until every session is gone.
        let mut now = last_at + 5;
        while table.stats().live > 0 {
            events.extend(table.sweep(now));
            now += 1;
        }

        // Per device, events alternate Entered(z) / Left(z) and end
        // closed: one Left per Entered, same zone, never two opens.
        let mut open: BTreeMap<DeviceId, usize> = BTreeMap::new();
        for e in &events {
            match e.kind {
                ZoneEventKind::Entered => {
                    prop_assert!(
                        open.insert(e.device, e.zone).is_none(),
                        "device {} entered twice without leaving", e.device
                    );
                }
                ZoneEventKind::Left => {
                    prop_assert!(
                        open.remove(&e.device) == Some(e.zone),
                        "device {} left a zone it was not in", e.device
                    );
                }
            }
        }
        prop_assert!(open.is_empty(), "unpaired Entered after forced timeout: {open:?}");
        let stats = table.stats();
        prop_assert!(stats.entered == stats.left, "counter pairing broke");
    }

    /// Eviction safety: a sweep either emits a session's closing event
    /// or evicts it — never both. Every device named in a sweep's
    /// events is still live after that sweep.
    #[test]
    fn sweep_never_both_emits_and_evicts_a_session(
        steps in proptest::collection::vec((0u64..6, 0u8..3), 1..100),
        sweep_every in 3usize..9,
    ) {
        let zones = ZoneSet::new(vec![noble_geo::Zone::new(
            "z",
            noble_geo::Polygon::rectangle(0.0, 0.0, 10.0, 10.0).unwrap(),
        )]);
        let smoother = SmootherConfig {
            fix_weight: 1.0,
            velocity_retention: 0.0,
            max_step_m: 1e9,
            snap_to_map: false,
        };
        let cfg = BatchConfig {
            stability_k: 1,
            away_timeout: Some(2),
            ..BatchConfig::default()
        };
        let table = SessionTable::new(zones, None, smoother, &cfg).unwrap();
        let mut at = 0u64;
        for (i, (device, spot)) in steps.iter().enumerate() {
            let p = if *spot == 0 {
                Point::new(50.0, 50.0) // outside
            } else {
                Point::new(5.0, 5.0) // inside
            };
            table.observe(*device, at, p);
            if i % sweep_every == sweep_every - 1 {
                // Jump time so some sessions are stale at the sweep.
                at += 3;
                for e in table.sweep(at) {
                    prop_assert!(
                        table.track(e.device).is_some(),
                        "sweep emitted for device {} and evicted it in the same pass",
                        e.device
                    );
                }
            }
            at += 1;
        }
    }
}
