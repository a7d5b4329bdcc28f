//! The online-refresh determinism contract, end to end.
//!
//! Online learning must not cost the serving stack its headline
//! guarantee: answers are a pure function of (model version, request).
//! This suite pins the four clauses of that contract:
//!
//! - **pinned-version bit-stability** — serving a given version returns
//!   bitwise-identical answers no matter how many refresh cycles run,
//!   including concurrently with the traffic;
//! - **atomic swaps at batch boundaries** — every answer produced while
//!   refreshes are in flight equals exactly one archived version's
//!   reference output (a torn mid-batch swap would match none), and one
//!   client's ordered answer stream never goes backwards in version
//!   while only activations happen;
//! - **rollback bit-parity** — restoring an archived version reproduces
//!   its answers bit-for-bit, in both directions;
//! - **restart survival** — versioned snapshots rehydrate from an
//!   `FsStore` to the active version, with the full archive intact.
//!
//! Plus property coverage for the ingest side: `ObservationBuffer`
//! never exceeds its bounds, evicts strictly oldest-first by logical
//! time, and never drops a correction while capacity remains.

mod common;

use common::{fast_model_cfg, quick_campaign, store_dir, FaultyStore};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_datasets::{uji_campaign, CampusConfig, UjiConfig, WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    partition_campaign, BatchConfig, BatchServer, BufferLimits, CatalogBudget, FsStore,
    ModelCatalog, Observation, ObservationBuffer, ObservationKind, PushOutcome, RefreshConfig,
    RegistryConfig, ServeError, ShardKey, ShardedRegistry, TrainSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serving_cfg() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        latency_budget: Duration::from_micros(100),
        ..BatchConfig::default()
    }
}

/// A few held-out fingerprints to probe serving answers with.
fn probes(campaign: &WifiCampaign, n: usize) -> Vec<Vec<f64>> {
    let features = campaign.features(&campaign.test);
    (0..n.min(features.rows()))
        .map(|i| features.row(i).to_vec())
        .collect()
}

/// Ground-truth corrections for one shard, drawn from its held-out
/// split (a surveyor re-walking the building).
fn corrections_for(campaign: &WifiCampaign, key: ShardKey, n: usize) -> Vec<(Vec<f64>, Point)> {
    campaign
        .test
        .iter()
        .filter(|s| s.building == key.building && key.floor.is_none_or(|f| f == s.floor))
        .take(n)
        .map(|s| (s.rssi.clone(), s.position))
        .collect()
}

fn serve_all(client: &noble_serve::ServeClient, key: ShardKey, probes: &[Vec<f64>]) -> Vec<Point> {
    probes
        .iter()
        .map(|p| client.localize(key, p.clone()).unwrap())
        .collect()
}

/// Every server hands out a refresher, but a shard served from a trained
/// registry carries no training spec: refreshing it is a typed error,
/// and the shard keeps serving the same bits afterwards.
#[test]
fn refresh_without_a_train_spec_is_a_typed_error() {
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(3), &RegistryConfig::default())
            .unwrap();
    let key = registry.keys()[0];
    let server = BatchServer::start(registry, serving_cfg()).unwrap();
    let refresher = server.refresher(RefreshConfig::default()).unwrap();
    let client = server.client();
    let probe = probes(&campaign, 6);

    let before = serve_all(&client, key, &probe);
    for (rssi, position) in corrections_for(&campaign, key, 4) {
        refresher.observe_correction(key, rssi, position).unwrap();
    }
    assert!(matches!(
        refresher.refresh(key),
        Err(ServeError::InvalidConfig(_))
    ));
    assert_eq!(refresher.active_version(key), 0);
    assert_eq!(
        serve_all(&client, key, &probe),
        before,
        "a refused refresh must leave the shard serving the same bits"
    );
    server.shutdown();
}

/// The sequential spine of the contract: versions activate in order,
/// a pinned version answers bit-identically for as long as it serves,
/// untouched shards are bystanders, and rollback restores any archived
/// generation bit-for-bit (both directions), with version numbers never
/// reused afterwards.
#[test]
fn refresh_versions_swap_atomically_and_rollback_is_bit_parity() {
    let campaign = quick_campaign();
    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    let keys = catalog
        .register_wifi_campaign(&campaign, &fast_model_cfg(3), &RegistryConfig::default())
        .unwrap();
    assert!(keys.len() >= 2, "need a refreshed shard and a bystander");
    let (key, bystander) = (keys[0], keys[1]);
    let server = BatchServer::start(catalog, serving_cfg()).unwrap();
    let refresher = server.refresher(RefreshConfig::default()).unwrap();
    let client = server.client();
    let probe = probes(&campaign, 6);

    // The offline generation (version 0) serves first; serving it also
    // writes its snapshot through, making it archivable.
    let v0 = serve_all(&client, key, &probe);
    let bystander_v0 = serve_all(&client, bystander, &probe);
    assert_eq!(refresher.active_version(key), 0);
    assert_eq!(
        serve_all(&client, key, &probe),
        v0,
        "version 0 is bit-stable"
    );

    // Buffer ground truth and refresh: the worker must pick version 1
    // up at its next batch boundary.
    let corrections = corrections_for(&campaign, key, 8);
    assert!(!corrections.is_empty(), "held-out split covers the shard");
    for (rssi, position) in &corrections {
        assert_eq!(
            refresher
                .observe_correction(key, rssi.clone(), *position)
                .unwrap(),
            PushOutcome::Stored
        );
    }
    assert_eq!(refresher.buffer_stats(key).corrections, corrections.len());
    let outcome = refresher.refresh(key).unwrap();
    assert_eq!(outcome.version, 1);
    assert_eq!(outcome.corrections_used, corrections.len());
    assert_eq!(refresher.active_version(key), 1);
    assert_eq!(refresher.versions(key).unwrap(), vec![0, 1]);
    assert_eq!(
        refresher.buffer_stats(key).observations,
        0,
        "consumed corrections leave the buffer"
    );

    let v1 = serve_all(&client, key, &probe);
    assert_eq!(
        serve_all(&client, key, &probe),
        v1,
        "version 1 is bit-stable"
    );
    assert_eq!(
        server.paged_stats().unwrap().refresh_swaps,
        1,
        "the hot worker swapped exactly once, at a batch boundary"
    );

    // A refresh of one shard never perturbs another.
    assert_eq!(refresher.active_version(bystander), 0);
    assert_eq!(serve_all(&client, bystander, &probe), bystander_v0);

    // Rollback, both directions, is bit-parity with the archive.
    refresher.rollback(key, 0).unwrap();
    assert_eq!(refresher.active_version(key), 0);
    assert_eq!(serve_all(&client, key, &probe), v0);
    refresher.rollback(key, 1).unwrap();
    assert_eq!(serve_all(&client, key, &probe), v1);
    assert!(matches!(
        refresher.rollback(key, 9),
        Err(ServeError::UnknownVersion { version: 9, .. })
    ));

    // Version numbers are never reused, even after rewinding.
    refresher.rollback(key, 0).unwrap();
    let outcome = refresher.refresh(key).unwrap();
    assert_eq!(outcome.version, 2);
    assert_eq!(refresher.versions(key).unwrap(), vec![0, 1, 2]);
    server.shutdown();
}

/// Concurrent clause: clients hammer one shard while refresh cycles
/// activate new versions underneath them. Every answer produced during
/// the storm must be bitwise-equal to some archived version's reference
/// answer for that fingerprint (a mid-batch tear would match none), and
/// each client's ordered stream must never step back to an older
/// version while only activations happen.
#[test]
fn concurrent_refresh_cycles_never_tear_answers() {
    const CLIENTS: usize = 3;
    const ROUNDS: usize = 40;
    const REFRESHES: usize = 3;

    let campaign = quick_campaign();
    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    let keys = catalog
        .register_wifi_campaign(&campaign, &fast_model_cfg(3), &RegistryConfig::default())
        .unwrap();
    let key = keys[0];
    let server = BatchServer::start(catalog, serving_cfg()).unwrap();
    let refresher = Arc::new(server.refresher(RefreshConfig::default()).unwrap());
    let client = server.client();
    let fingerprints: Vec<Vec<f64>> = probes(&campaign, CLIENTS);
    assert_eq!(fingerprints.len(), CLIENTS);

    // Materialize (and write through) version 0 before the storm.
    let _ = client.localize(key, fingerprints[0].clone()).unwrap();

    let answers: Vec<Vec<Point>> = std::thread::scope(|scope| {
        let workers: Vec<_> = fingerprints
            .iter()
            .map(|fp| {
                let client = server.client();
                scope.spawn(move || {
                    (0..ROUNDS)
                        .map(|_| client.localize(key, fp.clone()).unwrap())
                        .collect::<Vec<Point>>()
                })
            })
            .collect();
        // Refresh cycles ride alongside the traffic, each on distinct
        // ground truth so the generations genuinely differ.
        for cycle in 0..REFRESHES {
            for (rssi, position) in corrections_for(&campaign, key, 4 + 2 * cycle) {
                refresher.observe_correction(key, rssi, position).unwrap();
            }
            refresher.refresh(key).unwrap();
        }
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Build per-version references by rolling back through the archive.
    let versions = refresher.versions(key).unwrap();
    assert_eq!(versions, (0..=REFRESHES as u64).collect::<Vec<u64>>());
    let mut reference: Vec<Vec<Point>> = Vec::new(); // [version][client]
    for &v in &versions {
        refresher.rollback(key, v).unwrap();
        reference.push(
            fingerprints
                .iter()
                .map(|fp| client.localize(key, fp.clone()).unwrap())
                .collect(),
        );
    }

    for (t, stream) in answers.iter().enumerate() {
        let mut last_version = 0u64;
        for (i, answer) in stream.iter().enumerate() {
            let matching: Vec<u64> = versions
                .iter()
                .copied()
                .filter(|&v| reference[v as usize][t] == *answer)
                .collect();
            assert!(
                !matching.is_empty(),
                "client {t} answer {i} ({answer}) matches no archived version: \
                 a swap tore mid-batch"
            );
            // Monotone pickup: only assert when the mapping is
            // unambiguous (distinct generations may coincide on a point).
            if let [only] = matching[..] {
                assert!(
                    only >= last_version,
                    "client {t} answer {i} went back from version {last_version} to {only}"
                );
                last_version = only;
            }
        }
    }
    assert!(
        server.paged_stats().unwrap().refresh_swaps >= 1,
        "at least one batch-boundary swap happened during the storm"
    );
    server.shutdown();
}

/// Restart clause: every version survives the process. The active slot
/// rehydrates to the last activated version bit-identically, the
/// archive is intact, and rollback works across the restart. An export
/// of the handed-back catalog keeps the version stamp too.
#[test]
fn versioned_snapshots_survive_restart() {
    let campaign = quick_campaign();
    let dir = store_dir("restart");
    let export_dir = store_dir("export");
    let probe = probes(&campaign, 5);
    let key;
    let v0;
    let v1;
    {
        let store = FsStore::open(&dir).unwrap();
        let mut catalog =
            ModelCatalog::with_store(CatalogBudget::Unbounded, Box::new(store)).unwrap();
        let keys = catalog
            .register_wifi_campaign(&campaign, &fast_model_cfg(3), &RegistryConfig::default())
            .unwrap();
        key = keys[0];
        let server = BatchServer::start(catalog, serving_cfg()).unwrap();
        let refresher = server.refresher(RefreshConfig::default()).unwrap();
        let client = server.client();
        v0 = serve_all(&client, key, &probe);
        for (rssi, position) in corrections_for(&campaign, key, 6) {
            refresher.observe_correction(key, rssi, position).unwrap();
        }
        assert_eq!(refresher.refresh(key).unwrap().version, 1);
        v1 = serve_all(&client, key, &probe);
        let (_, mut catalog) = server.shutdown_with_catalog();
        catalog
            .export_to(&FsStore::open(&export_dir).unwrap())
            .unwrap();
    }

    // A fresh process: the catalog is rebuilt from the store alone.
    let store = FsStore::open(&dir).unwrap();
    let catalog = ModelCatalog::with_store(CatalogBudget::Unbounded, Box::new(store)).unwrap();
    let server = BatchServer::start(catalog, serving_cfg()).unwrap();
    let client = server.client();
    assert_eq!(
        serve_all(&client, key, &probe),
        v1,
        "restart rehydrates the active version bit-identically"
    );
    let refresher = server.refresher(RefreshConfig::default()).unwrap();
    assert_eq!(
        refresher.active_version(key),
        1,
        "the active version is learned from the slot's stamp on the first fault-in"
    );
    assert_eq!(refresher.versions(key).unwrap(), vec![0, 1]);
    refresher.rollback(key, 0).unwrap();
    assert_eq!(
        serve_all(&client, key, &probe),
        v0,
        "rollback across a restart is bit-parity with the old archive"
    );
    server.shutdown();

    // A restart from the export serves v1 and knows it is v1.
    let store = FsStore::open(&export_dir).unwrap();
    let catalog = ModelCatalog::with_store(CatalogBudget::Unbounded, Box::new(store)).unwrap();
    let server = BatchServer::start(catalog, serving_cfg()).unwrap();
    assert_eq!(
        serve_all(&server.client(), key, &probe),
        v1,
        "a restart from the export serves the exported version"
    );
    assert_eq!(
        server
            .refresher(RefreshConfig::default())
            .unwrap()
            .active_version(key),
        1,
        "export_to keeps the version stamp"
    );
    server.shutdown();
}

/// A refresh that panics partway — here in its first store read — changes
/// nothing and leaves the shard refreshable: the active version, the
/// archive and the buffered corrections are as they were, the shard
/// serves its version-0 bits, and a second refresh and a rollback both
/// complete. The checks run behind a bounded wait, because a refresh that
/// kept its key's activation slot would hang every later one for good.
#[test]
fn a_refresh_that_panics_partway_changes_nothing_and_the_shard_stays_refreshable() {
    let campaign = quick_campaign();
    let cfg = fast_model_cfg(3);
    let probe = probes(&campaign, 6);
    // Version 0's bits, from a catalog that serves the same spec directly.
    let mut direct = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    let key = direct
        .register_wifi_campaign(&campaign, &cfg, &RegistryConfig::default())
        .unwrap()[0];
    let v0 = direct
        .localize(key, &Matrix::from_rows(&probe).unwrap())
        .unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Nothing is served before the refresh, so the store's first `get`
        // of the key is the refresh's.
        let store = FaultyStore::panicking_on_first_get(key);
        let mut catalog =
            ModelCatalog::with_store(CatalogBudget::Unbounded, Box::new(store)).unwrap();
        catalog
            .register_wifi_campaign(&campaign, &cfg, &RegistryConfig::default())
            .unwrap();
        let server = BatchServer::start(catalog, serving_cfg()).unwrap();
        let refresher = server.refresher(RefreshConfig::default()).unwrap();
        for (rssi, position) in corrections_for(&campaign, key, 4) {
            refresher.observe_correction(key, rssi, position).unwrap();
        }
        let corrections = refresher.buffer_stats(key).corrections;
        assert!(corrections > 0, "corrections are buffered");
        let versions = refresher.versions(key).unwrap();

        let first = std::thread::scope(|s| s.spawn(|| refresher.refresh(key)).join());
        assert!(first.is_err(), "the first refresh panics in its store read");
        assert_eq!(refresher.active_version(key), 0);
        assert_eq!(refresher.versions(key).unwrap(), versions);
        assert_eq!(refresher.buffer_stats(key).corrections, corrections);
        let client = server.client();
        assert_eq!(
            serve_all(&client, key, &probe),
            v0,
            "version 0 still serves"
        );

        assert_eq!(refresher.refresh(key).unwrap().version, 1);
        refresher.rollback(key, 0).unwrap();
        assert_eq!(
            serve_all(&client, key, &probe),
            v0,
            "the rollback restores version 0's bits"
        );
        server.shutdown();
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("a panicked refresh wedged the shard or a check failed"));
}

/// A refresh whose retrain fails inside `build` changes nothing. The
/// shard serves a resident model whose registered spec cannot train
/// (`coarse_l` is not coarser than `tau`), so the retrain returns a
/// typed error after the refresh has claimed the activation slot and
/// numbered the new version. A byte budget writes the inserted model
/// through, so the store's active slot holds version 0, not archived
/// yet. The active version, the archive, the buffered corrections and
/// the served bits stay as they were.
#[test]
fn a_refresh_whose_retrain_fails_changes_nothing() {
    let campaign = quick_campaign();
    let cfg = fast_model_cfg(3);
    let key = ShardKey::building(0);
    let untrainable = WifiNobleConfig {
        coarse_l: Some(cfg.tau),
        ..cfg.clone()
    };
    let mut catalog = ModelCatalog::new(CatalogBudget::Bytes(usize::MAX)).unwrap();
    catalog
        .insert(key, Box::new(WifiNoble::train(&campaign, &cfg).unwrap()))
        .unwrap();
    catalog.register_spec(
        key,
        TrainSpec::Wifi {
            campaign: campaign.clone(),
            cfg: untrainable,
        },
    );
    let server = BatchServer::start(catalog, serving_cfg()).unwrap();
    let refresher = server.refresher(RefreshConfig::default()).unwrap();
    let client = server.client();
    let probe = probes(&campaign, 6);
    for (rssi, position) in corrections_for(&campaign, key, 4) {
        refresher.observe_correction(key, rssi, position).unwrap();
    }
    let corrections = refresher.buffer_stats(key).corrections;
    assert!(corrections > 0, "corrections are buffered");
    let versions = refresher.versions(key).unwrap();
    let before = serve_all(&client, key, &probe);

    assert!(matches!(
        refresher.refresh(key),
        Err(ServeError::Model(ref m)) if m.contains("coarse side")
    ));
    assert_eq!(refresher.active_version(key), 0);
    assert_eq!(
        refresher.versions(key).unwrap(),
        versions,
        "a failed retrain must leave the archive as it was"
    );
    assert_eq!(refresher.buffer_stats(key).corrections, corrections);
    assert_eq!(
        serve_all(&client, key, &probe),
        before,
        "a failed retrain must leave the shard serving the same bits"
    );
    server.shutdown();
}

/// `sample` under a deterministic per-WAP RSSI drift in
/// `[-drift_db, drift_db)` dB: a SplitMix64 finalizer over the WAP
/// index, so the same WAP always drifts the same way and every phase
/// sees the identical world.
fn drifted(sample: &WifiSample, drift_db: f64) -> WifiSample {
    let mut s = sample.clone();
    for (wap, v) in s.rssi.iter_mut().enumerate() {
        let mut z = (wap as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        *v += (unit * 2.0 - 1.0) * drift_db;
    }
    s
}

/// Refresh pays off under drift without stalling the serving path: 120
/// corrections under a 5 dB per-WAP drift feed a retrain while two
/// clients hammer the shard. Gates: the refreshed model beats the
/// frozen one's mean error on drifted probes, serving p99 during the
/// retrain stays under 250 ms, and the swap is picked up within 5 s.
/// CI greps for this test by name — do not rename it casually.
#[test]
fn refresh_recovers_drift_accuracy_with_bounded_serving_p99() {
    const DRIFT_DB: f64 = 5.0;
    const CLIENTS: usize = 2;
    let campaign = uji_campaign(&UjiConfig {
        references_per_floor: 25,
        samples_per_reference: 4,
        test_samples_per_floor: 30,
        waps_per_building_floor: 6,
        campus: CampusConfig {
            floors: 2,
            ..CampusConfig::default()
        },
        ..UjiConfig::default()
    })
    .unwrap();
    let model_cfg = WifiNobleConfig {
        epochs: 2,
        patience: None,
        ..WifiNobleConfig::small()
    };
    let reg_cfg = RegistryConfig::default();
    let parts = partition_campaign(
        &campaign,
        |s| reg_cfg.policy.key_of(s),
        reg_cfg.max_train_samples_per_shard,
    );
    let (&key, shard) = parts.iter().next().expect("campaign has shards");
    let drifted_eval: Vec<WifiSample> = shard
        .test
        .iter()
        .take(40)
        .map(|s| drifted(s, DRIFT_DB))
        .collect();
    // A surveyor re-walking the reference points in the drifted world.
    let corrections: Vec<WifiSample> = shard
        .train
        .iter()
        .take(120)
        .map(|s| drifted(s, DRIFT_DB))
        .collect();

    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    catalog
        .register_wifi_campaign(&campaign, &model_cfg, &reg_cfg)
        .unwrap();
    let server = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 16,
            latency_budget: Duration::from_micros(200),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let refresher = server.refresher(RefreshConfig::default()).unwrap();
    let client = server.client();
    let features = campaign.features(&drifted_eval);
    let probes: Vec<Vec<f64>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    let mean_error = || {
        let fixes = serve_all(&client, key, &probes);
        let total: f64 = fixes
            .iter()
            .zip(&drifted_eval)
            .map(|(fix, s)| fix.distance(s.position))
            .sum();
        total / fixes.len() as f64
    };
    let frozen = mean_error();
    let canary_v0 = serve_all(&client, key, &probes[..1])[0];

    for s in &corrections {
        refresher
            .observe_correction(key, s.rssi.clone(), s.position)
            .unwrap();
    }
    let stop = AtomicBool::new(false);
    let (outcome, picked_up, mut latencies) = std::thread::scope(|scope| {
        let hammers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (client, probes, stop) = (server.client(), &probes, &stop);
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    for probe in probes.iter().cycle() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let t0 = Instant::now();
                        client.localize(key, probe.clone()).unwrap();
                        latencies.push(t0.elapsed().as_micros());
                    }
                    latencies
                })
            })
            .collect();
        let outcome = refresher.refresh(key);
        // Pickup: the hot worker swaps at a batch boundary, so the
        // canary's answer flips once it serves version 1. Nothing in
        // here may panic before `stop` is set, or the scope never ends.
        let t0 = Instant::now();
        let mut picked_up = false;
        while outcome.is_ok() && !picked_up && t0.elapsed() < Duration::from_secs(5) {
            picked_up = serve_all(&client, key, &probes[..1])[0] != canary_v0;
        }
        stop.store(true, Ordering::Relaxed);
        let latencies: Vec<u128> = hammers
            .into_iter()
            .flat_map(|h| h.join().expect("hammer thread"))
            .collect();
        (outcome, picked_up, latencies)
    });
    assert_eq!(outcome.unwrap().version, 1);
    assert!(picked_up, "swap not picked up within 5 s");
    let refreshed = mean_error();

    assert!(
        refreshed < frozen,
        "refresh did not recover drift accuracy: refreshed {refreshed:.2} m >= frozen {frozen:.2} m"
    );
    // Nearest-rank p99 of the latencies served while the retrain ran.
    latencies.sort_unstable();
    let rank = (latencies.len().saturating_sub(1) as f64 * 0.99).round() as usize;
    let p99_us = latencies.get(rank).copied().unwrap_or(0);
    assert!(
        p99_us < 250_000,
        "serving p99 during refresh {p99_us} us exceeds the 250 ms gate"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// ObservationBuffer property coverage.
// ---------------------------------------------------------------------

/// Reference cost of an observation of `width` WAPs (via the public
/// [`Observation::cost`], so the mirror cannot drift from the impl).
fn cost_of(width: usize) -> usize {
    Observation {
        kind: ObservationKind::ServedFix,
        at: 0,
        rssi: vec![0.0; width],
        position: Point::new(0.0, 0.0),
    }
    .cost()
}

mod buffer_props {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Neither bound is ever exceeded, after every single push, for
        /// arbitrary mixes of kinds and fingerprint widths.
        #[test]
        fn prop_buffer_never_exceeds_bounds(
            max_observations in 1usize..12,
            max_bytes in 64usize..512,
            pushes in proptest::collection::vec(((0u8..2).prop_map(|b| b == 1), 0usize..16), 1..100),
        ) {
            let mut buf = ObservationBuffer::new(BufferLimits { max_observations, max_bytes });
            for (i, (correction, width)) in pushes.iter().enumerate() {
                let kind = if *correction {
                    ObservationKind::Correction
                } else {
                    ObservationKind::ServedFix
                };
                buf.push(kind, vec![i as f64; *width], Point::new(0.0, 0.0));
                prop_assert!(buf.len() <= max_observations);
                prop_assert!(buf.bytes() <= max_bytes);
            }
        }

        /// The buffer behaves exactly like a reference FIFO: evictions
        /// retire the smallest logical stamps first, so the survivors
        /// are always the newest suffix of what was stored.
        #[test]
        fn prop_eviction_is_strictly_oldest_first(
            max_observations in 1usize..10,
            max_bytes in 64usize..400,
            pushes in proptest::collection::vec(((0u8..2).prop_map(|b| b == 1), 0usize..12), 1..80),
        ) {
            let mut buf = ObservationBuffer::new(BufferLimits { max_observations, max_bytes });
            let mut mirror: VecDeque<(u64, usize)> = VecDeque::new();
            let mut clock = 0u64;
            for (correction, width) in pushes {
                let kind = if correction {
                    ObservationKind::Correction
                } else {
                    ObservationKind::ServedFix
                };
                let outcome = buf.push(kind, vec![0.5; width], Point::new(0.0, 0.0));
                clock += 1;
                let cost = cost_of(width);
                if cost > max_bytes {
                    prop_assert_eq!(outcome, PushOutcome::Rejected);
                } else {
                    let mut evicted = 0usize;
                    while mirror.len() + 1 > max_observations
                        || mirror.iter().map(|(_, c)| c).sum::<usize>() + cost > max_bytes
                    {
                        // Strictly oldest-first: always the front.
                        prop_assert!(mirror.pop_front().is_some());
                        evicted += 1;
                    }
                    mirror.push_back((clock, cost));
                    let expected = if evicted == 0 {
                        PushOutcome::Stored
                    } else {
                        PushOutcome::StoredEvicting(evicted)
                    };
                    prop_assert_eq!(outcome, expected);
                }
                let stamps: Vec<u64> = buf.iter().map(|o| o.at).collect();
                let mirror_stamps: Vec<u64> = mirror.iter().map(|(at, _)| *at).collect();
                prop_assert_eq!(stamps, mirror_stamps);
                prop_assert_eq!(buf.bytes(), mirror.iter().map(|(_, c)| c).sum::<usize>());
            }
        }

        /// While capacity remains, nothing — in particular no correction
        /// — is ever lost: sizing the limits to the workload admits
        /// every observation without a single eviction.
        #[test]
        fn prop_corrections_survive_while_capacity_remains(
            pushes in proptest::collection::vec(((0u8..2).prop_map(|b| b == 1), 0usize..12), 1..60),
        ) {
            let total: usize = pushes.iter().map(|(_, w)| cost_of(*w)).sum();
            let limits = BufferLimits {
                max_observations: pushes.len(),
                max_bytes: total,
            };
            let mut buf = ObservationBuffer::new(limits);
            let corrections = pushes.iter().filter(|(c, _)| *c).count();
            for (correction, width) in pushes.iter() {
                let kind = if *correction {
                    ObservationKind::Correction
                } else {
                    ObservationKind::ServedFix
                };
                let outcome = buf.push(kind, vec![1.0; *width], Point::new(0.0, 0.0));
                prop_assert_eq!(outcome, PushOutcome::Stored);
            }
            prop_assert_eq!(buf.len(), pushes.len());
            prop_assert_eq!(buf.corrections(), corrections);
            prop_assert_eq!(buf.evicted(), (0, 0));
        }
    }
}
