//! Model store + catalog lifecycle guarantees.
//!
//! Covers the three tiers end to end: FsStore durability (atomic
//! write-rename, checksummed reads, corrupt files as typed errors), the
//! catalog's budget enforcement (never more than N resident models while
//! every shard keeps answering bit-identically), and the lazy
//! hydrate/retrain paths — including the IMU serving path through
//! `ModelCatalog` and `BatchServer`.

mod common;

use common::{fast_model_cfg, quick_campaign, store_dir, FaultyStore};
use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::wifi::{KnnFingerprint, WifiNoble};
use noble::{Localizer, SnapshotLocalizer};
use noble_datasets::{ImuConfig, ImuDataset, ImuPathSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    partition_campaign, shard_seed, BatchConfig, BatchServer, CatalogBudget, FsStore, MemStore,
    ModelCatalog, ModelStore, RegistryConfig, ServeError, ShardKey, ShardPolicy, ShardedRegistry,
};
use std::time::Duration;

fn quick_imu_dataset() -> ImuDataset {
    let mut cfg = ImuConfig::small();
    cfg.num_paths = 200;
    ImuDataset::generate(&cfg).unwrap()
}

fn fast_imu_cfg() -> ImuNobleConfig {
    ImuNobleConfig {
        epochs: 8,
        ..ImuNobleConfig::small()
    }
}

#[test]
fn fs_store_round_trips_and_survives_reopen() {
    let campaign = quick_campaign();
    let model = KnnFingerprint::fit(&campaign, 4).unwrap();
    let snapshot = SnapshotLocalizer::snapshot(&model);
    let dir = store_dir("roundtrip");
    let key = ShardKey::building_floor(2, 1);

    {
        let store = FsStore::open(&dir).unwrap();
        assert!(store.list().unwrap().is_empty());
        store.put(key, &snapshot).unwrap();
        assert_eq!(store.list().unwrap(), vec![key]);
    }
    // A brand-new handle (a restarted process) sees the same snapshot.
    let store = FsStore::open(&dir).unwrap();
    let back = store.get(key).unwrap().expect("snapshot persisted");
    assert_eq!(back, snapshot);
    assert!(store.get(ShardKey::building(9)).unwrap().is_none());
    assert!(store.evict(key).unwrap());
    assert!(!store.evict(key).unwrap());
    assert!(store.list().unwrap().is_empty());
}

#[test]
fn fs_store_detects_corruption_as_typed_error() {
    let campaign = quick_campaign();
    let model = KnnFingerprint::fit(&campaign, 3).unwrap();
    let snapshot = SnapshotLocalizer::snapshot(&model);
    let dir = store_dir("corrupt");
    let store = FsStore::open(&dir).unwrap();
    let key = ShardKey::building(0);
    store.put(key, &snapshot).unwrap();
    let path = dir.join("b0.snap");

    // Flip one byte deep in the payload: the checksum must catch what
    // the container's structural checks cannot.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        store.get(key),
        Err(ServeError::BadSnapshot(ref m)) if m.contains("checksum")
    ));

    // Truncation is typed too.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    assert!(matches!(store.get(key), Err(ServeError::BadSnapshot(_))));

    // And so is garbage that is not even a snapshot file.
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    assert!(matches!(store.get(key), Err(ServeError::BadSnapshot(_))));

    // Foreign and temp files are not listed as shards.
    std::fs::write(dir.join("README.txt"), b"hello").unwrap();
    std::fs::write(dir.join(".b3.snap.tmp"), b"partial").unwrap();
    assert_eq!(store.list().unwrap(), vec![key]);
}

/// A put whose publish step fails reports a typed store error and leaves
/// no temp file behind. The active file's path is a non-empty directory
/// here, which the publishing `rename` cannot replace.
#[test]
fn a_failed_put_leaves_no_temp_file_behind() {
    let campaign = quick_campaign();
    let snapshot = SnapshotLocalizer::snapshot(&KnnFingerprint::fit(&campaign, 3).unwrap());
    let dir = store_dir("failed-put");
    let store = FsStore::open(&dir).unwrap();
    std::fs::create_dir_all(dir.join("b0.snap").join("occupied")).unwrap();
    assert!(matches!(
        store.put(ShardKey::building(0), &snapshot),
        Err(ServeError::Store(_))
    ));
    let temps: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(temps.is_empty(), "a failed put left {temps:?} behind");
    // The store keeps working for every other key.
    let other = ShardKey::building(1);
    store.put(other, &snapshot).unwrap();
    assert_eq!(store.get(other).unwrap(), Some(snapshot));
}

/// Budget N over >N shards: the resident tier never exceeds N while
/// every shard keeps answering, and answers are bit-identical to the
/// original models across eviction/hydration cycles.
#[test]
fn catalog_budget_never_exceeded_and_answers_stay_bit_identical() {
    let campaign = quick_campaign();
    let features = campaign.features(&campaign.test);
    let probe_rows = 6.min(features.rows());
    let probe = Matrix::from_rows(
        &(0..probe_rows)
            .map(|i| features.row(i).to_vec())
            .collect::<Vec<_>>(),
    )
    .unwrap();

    // Six kNN shards (cheap to build, snapshotable) with distinct k so
    // every shard answers differently.
    let shard_count = 6;
    let budget = 2;
    let mut reference: Vec<(ShardKey, Vec<Point>)> = Vec::new();
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(budget)).unwrap();
    for i in 0..shard_count {
        let key = ShardKey::building(i);
        let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
        let boxed: Box<dyn Localizer> = Box::new(model);
        reference.push((key, boxed.localize_batch(&probe).unwrap()));
        catalog.insert(key, boxed).unwrap();
        assert!(
            catalog.resident_len() <= budget,
            "resident tier grew to {} with budget {budget}",
            catalog.resident_len()
        );
    }
    assert_eq!(catalog.keys().len(), shard_count);

    // Three rounds over every shard in changing order: each request hits
    // the budgeted catalog, faulting cold shards back in.
    for round in 0..3 {
        for step in 0..shard_count {
            let idx = (step * 5 + round * 3) % shard_count;
            let (key, expected) = &reference[idx];
            let got = catalog.localize(*key, &probe).unwrap();
            assert_eq!(
                &got, expected,
                "shard {key} diverged after eviction (round {round})"
            );
            assert!(catalog.resident_len() <= budget);
        }
    }
    let stats = catalog.stats();
    assert!(stats.evictions > 0, "budget {budget} never evicted");
    assert!(stats.hydrations > 0, "no shard was ever faulted back in");
    assert_eq!(stats.retrains, 0, "snapshots must obviate retraining");
    assert!(matches!(
        catalog.localize(ShardKey::building(99), &probe),
        Err(ServeError::UnknownShard(_))
    ));
}

#[test]
fn byte_budget_is_enforced() {
    let campaign = quick_campaign();
    let model = KnnFingerprint::fit(&campaign, 2).unwrap();
    let one_model_bytes = SnapshotLocalizer::snapshot(&model).encoded_len();
    // Room for two models but not three.
    let mut catalog = ModelCatalog::new(CatalogBudget::Bytes(one_model_bytes * 2 + 1)).unwrap();
    for i in 0..4 {
        let m = KnnFingerprint::fit(&campaign, 2).unwrap();
        catalog.insert(ShardKey::building(i), Box::new(m)).unwrap();
        assert!(catalog.resident_len() <= 2, "byte budget exceeded");
    }
    assert_eq!(catalog.keys().len(), 4);
    assert!(catalog.stats().evictions >= 2);
}

#[test]
fn lazy_wifi_specs_retrain_bit_identically_to_eager_registry() {
    let campaign = quick_campaign();
    let cfg = fast_model_cfg(3);
    let reg_cfg = RegistryConfig {
        policy: ShardPolicy::PerBuilding,
        max_train_samples_per_shard: None,
        parallel_training: false,
    };

    // Eager reference: the registry trains everything up front.
    let mut eager =
        ModelCatalog::from(ShardedRegistry::train_wifi(&campaign, &cfg, &reg_cfg).unwrap());
    let features = campaign.features(&campaign.test);

    // Lazy catalog: nothing trains until the first request.
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(1)).unwrap();
    let keys = catalog
        .register_wifi_campaign(&campaign, &cfg, &reg_cfg)
        .unwrap();
    assert_eq!(keys, eager.keys());
    assert_eq!(catalog.resident_len(), 0, "specs must not train eagerly");

    for key in eager.keys() {
        let expected = eager.localize(key, &features).unwrap();
        let got = catalog.localize(key, &features).unwrap();
        assert_eq!(
            got, expected,
            "lazy retrain of {key} diverged from the eager registry model"
        );
        assert_eq!(catalog.resident_len(), 1);
    }
    let stats = catalog.stats();
    assert_eq!(stats.retrains as usize, keys.len());

    // Second sweep: every shard was written through on retrain, so cold
    // faults now hydrate instead of retraining.
    for key in eager.keys() {
        let expected = eager.localize(key, &features).unwrap();
        assert_eq!(catalog.localize(key, &features).unwrap(), expected);
    }
    assert_eq!(
        catalog.stats().retrains as usize,
        keys.len(),
        "retrained twice"
    );
    assert!(catalog.stats().hydrations > 0);
}

#[test]
fn imu_campaign_serves_through_catalog_and_batch_server() {
    let dataset = quick_imu_dataset();
    let cfg = fast_imu_cfg();
    let imu_key = ShardKey::building(7);

    // Direct reference: train with the same derived seed the catalog uses.
    let mut shard_cfg = cfg.clone();
    shard_cfg.seed = shard_seed(cfg.seed, imu_key);
    let reference_model = ImuNoble::train(&dataset, &shard_cfg).unwrap();
    let refs: Vec<&ImuPathSample> = dataset.test.iter().take(24).collect();
    let features = reference_model.path_features(&refs);
    let expected = Localizer::localize_batch(&reference_model, &features).unwrap();

    // Through the catalog (lazy spec -> retrain -> hydrate).
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(4)).unwrap();
    catalog.register_imu_campaign(imu_key, dataset.clone(), cfg.clone());
    let got = catalog.localize(imu_key, &features).unwrap();
    assert_eq!(got, expected, "catalog-trained IMU model diverged");
    let info = &catalog.info()[0];
    assert_eq!(info.model, "imu-noble");
    assert_eq!(info.site, imu_key.to_string());

    // Through the batch server (mixed with a WiFi shard).
    let campaign = quick_campaign();
    let mut registry = ShardedRegistry::new();
    registry.insert(
        imu_key,
        Box::new(ImuNoble::train(&dataset, &shard_cfg).unwrap()),
    );
    let wifi_key = ShardKey::building(0);
    registry.insert(
        wifi_key,
        Box::new(WifiNoble::train(&campaign, &fast_model_cfg(3)).unwrap()),
    );
    let server = BatchServer::start(
        registry,
        BatchConfig {
            max_batch: 16,
            latency_budget: Duration::from_micros(200),
            idle_ttl: None,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    let pending: Vec<_> = (0..features.rows())
        .map(|i| client.submit(imu_key, features.row(i).to_vec()).unwrap())
        .collect();
    // Interleave WiFi traffic on the same server.
    let wifi_features = campaign.features(&campaign.test[..4.min(campaign.test.len())]);
    let wifi_pending: Vec<_> = (0..wifi_features.rows())
        .map(|i| {
            client
                .submit(wifi_key, wifi_features.row(i).to_vec())
                .unwrap()
        })
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        assert_eq!(
            p.wait().unwrap(),
            expected[i],
            "served IMU fix {i} diverged"
        );
    }
    for p in wifi_pending {
        p.wait().unwrap();
    }
    server.shutdown();
}

#[test]
fn catalog_over_fs_store_survives_process_restart() {
    let campaign = quick_campaign();
    let dir = store_dir("restart");
    let features = campaign.features(&campaign.test);
    let expected: Vec<(ShardKey, Vec<Point>)>;

    {
        // "Process one": train shards eagerly, answer from the live
        // models, and persist every shard into the FsStore.
        let reg_cfg = RegistryConfig {
            parallel_training: false,
            ..RegistryConfig::default()
        };
        let registry =
            ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(3), &reg_cfg).unwrap();
        let mut catalog = ModelCatalog::from(registry);
        expected = catalog
            .keys()
            .into_iter()
            .map(|k| {
                let out = catalog.localize(k, &features).unwrap();
                (k, out)
            })
            .collect();
        catalog.export_to(&FsStore::open(&dir).unwrap()).unwrap();
    }

    // "Process two": a fresh catalog over the same directory serves every
    // shard bit-identically without a single retrain.
    let store = Box::new(FsStore::open(&dir).unwrap());
    let mut catalog = ModelCatalog::with_store(CatalogBudget::Count(1), store).unwrap();
    assert_eq!(
        catalog.keys(),
        expected.iter().map(|(k, _)| *k).collect::<Vec<_>>()
    );
    for (key, reference) in &expected {
        assert_eq!(
            catalog.localize(*key, &features).unwrap(),
            *reference,
            "shard {key} diverged across the restart"
        );
    }
    assert_eq!(catalog.stats().retrains, 0);
    assert_eq!(catalog.stats().hydrations as usize, expected.len());
}

/// A demand-paged worker's spin-down writes its model through to the
/// store *before* the memory is released — so even a hard process stop
/// right after the spin-down loses nothing, and a fresh process over the
/// same directory serves every shard bit-identically without retraining.
#[test]
fn paged_spin_down_write_through_survives_process_restart() {
    let campaign = quick_campaign();
    let dir = store_dir("paged-restart");
    let features = campaign.features(&campaign.test[..4.min(campaign.test.len())]);
    let shard_count = 3usize;

    // "Process one": live models only — nothing pre-saved in the store.
    let expected: Vec<(ShardKey, Vec<Point>)> = (0..shard_count)
        .map(|i| {
            let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
            let out = Localizer::localize_batch(&model, &features).unwrap();
            (ShardKey::building(i), out)
        })
        .collect();
    {
        let store = Box::new(FsStore::open(&dir).unwrap());
        let mut catalog = ModelCatalog::with_store(CatalogBudget::Count(1), store).unwrap();
        for i in 0..shard_count {
            catalog
                .insert(
                    ShardKey::building(i),
                    Box::new(KnnFingerprint::fit(&campaign, i + 1).unwrap()),
                )
                .unwrap();
        }
        let server = BatchServer::start(
            catalog,
            BatchConfig {
                max_batch: 8,
                latency_budget: Duration::from_micros(100),
                idle_ttl: Some(Duration::from_millis(10)),
                ..BatchConfig::default()
            },
        )
        .unwrap();
        let client = server.client();
        for (key, reference) in &expected {
            for (i, row) in (0..features.rows()).map(|i| (i, features.row(i).to_vec())) {
                assert_eq!(client.localize(*key, row).unwrap(), reference[i]);
            }
        }
        // Wait until every worker has spun down through the idle TTL —
        // each spin-down is a write-through.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let paged = server.paged_stats().expect("paged server");
            if paged.idle_spin_downs >= 1 && paged.hot_shards == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "workers never spun down: {paged:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Hard stop: drop the server without any explicit export. Only
        // what was written through survives — which must be everything.
        drop(server);
    }

    // "Process two": a fresh catalog over the same directory hydrates
    // every shard bit-identically, with zero retrains.
    let store = Box::new(FsStore::open(&dir).unwrap());
    let mut catalog = ModelCatalog::with_store(CatalogBudget::Count(1), store).unwrap();
    assert_eq!(
        catalog.keys(),
        expected.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
        "a spin-down write-through is missing from the store"
    );
    for (key, reference) in &expected {
        assert_eq!(
            &catalog.localize(*key, &features).unwrap(),
            reference,
            "shard {key} diverged across the paged restart"
        );
    }
    assert_eq!(catalog.stats().retrains, 0);
    assert_eq!(catalog.stats().hydrations as usize, shard_count);
}

/// Start is lazy, so a corrupt stored snapshot surfaces at the first
/// request that faults its shard in: the lease fails, and every fix
/// parked behind the fault gets exactly one typed `BadSnapshot` reply.
/// The failed shard goes cold again (a later fix re-faults and fails the
/// same way), the other shards keep answering bit-identically, and the
/// gauges settle to zero.
#[test]
fn corrupt_snapshot_fails_its_fixes_typed_and_spares_other_shards() {
    let campaign = quick_campaign();
    let dir = store_dir("lease-failure");
    let features = campaign.features(&campaign.test[..6.min(campaign.test.len())]);
    let rows: Vec<Vec<f64>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    let store = FsStore::open(&dir).unwrap();
    let mut expected: Vec<(ShardKey, Vec<Point>)> = Vec::new();
    for i in 0..3 {
        let key = ShardKey::building(i);
        let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
        store
            .put(key, &SnapshotLocalizer::snapshot(&model))
            .unwrap();
        expected.push((key, Localizer::localize_batch(&model, &features).unwrap()));
    }
    let bad = ShardKey::building(1);
    let path = dir.join("b1.snap");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let catalog = ModelCatalog::with_store(CatalogBudget::Unbounded, Box::new(store)).unwrap();
    let server = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 4,
            latency_budget: Duration::from_micros(200),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    for round in 0..2 {
        let pending: Vec<(ShardKey, Vec<_>)> = expected
            .iter()
            .map(|(key, _)| {
                let fixes = rows
                    .iter()
                    .map(|row| client.submit(*key, row.clone()).unwrap())
                    .collect();
                (*key, fixes)
            })
            .collect();
        for ((key, fixes), (_, reference)) in pending.into_iter().zip(&expected) {
            for (i, fix) in fixes.into_iter().enumerate() {
                let reply = fix.wait();
                if key == bad {
                    assert!(
                        matches!(reply, Err(ServeError::BadSnapshot(_))),
                        "round {round}: fix {i} to the corrupt shard got {reply:?}"
                    );
                } else {
                    assert_eq!(
                        reply.unwrap(),
                        reference[i],
                        "round {round}: {key} fix {i} diverged"
                    );
                }
            }
        }
    }
    let gauges = server.server_stats();
    assert_eq!((gauges.queue_depth, gauges.in_flight), (0, 0));
    let stats = server.shutdown();
    let failed = &stats.iter().find(|(k, _)| *k == bad).unwrap().1;
    assert_eq!(failed.requests, 2 * rows.len() as u64);
    assert_eq!(
        failed.errors, failed.requests,
        "one reply per fix, all typed errors"
    );
    for (key, s) in &stats {
        if *key != bad {
            assert_eq!(s.errors, 0, "{key} answered with errors");
        }
    }
}

/// A store that refuses every write, under two spec-less shards that
/// alternate within a budget of one: every switch drains a worker whose
/// write-through fails, and the spin-down must keep that only copy
/// resident. Every fix gets one reply, bit-identical to direct serving,
/// gauges settle to zero and no model is lost. CI greps for this test
/// by name — do not rename it casually.
#[test]
fn failed_spin_down_write_through_keeps_the_model() {
    use noble::ModelSnapshot;

    struct FailingStore;
    impl ModelStore for FailingStore {
        fn put(&self, key: ShardKey, _: &ModelSnapshot) -> Result<(), ServeError> {
            Err(ServeError::Store(format!("write of {key} refused")))
        }
        fn get(&self, _: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
            Ok(None)
        }
        fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
            Ok(Vec::new())
        }
        fn evict(&self, _: ShardKey) -> Result<bool, ServeError> {
            Ok(false)
        }
        fn put_version(&self, key: ShardKey, _: u64, _: &ModelSnapshot) -> Result<(), ServeError> {
            Err(ServeError::Store(format!("archive of {key} refused")))
        }
        fn get_version(&self, _: ShardKey, _: u64) -> Result<Option<ModelSnapshot>, ServeError> {
            Ok(None)
        }
        fn versions(&self, _: ShardKey) -> Result<Vec<u64>, ServeError> {
            Ok(Vec::new())
        }
    }

    let campaign = quick_campaign();
    let features = campaign.features(&campaign.test[..6.min(campaign.test.len())]);
    let rows: Vec<Vec<f64>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    let mut catalog =
        ModelCatalog::with_store(CatalogBudget::Count(1), Box::new(FailingStore)).unwrap();
    let mut expected: Vec<(ShardKey, Vec<Point>)> = Vec::new();
    for i in 0..2 {
        let key = ShardKey::building(i);
        let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
        expected.push((key, Localizer::localize_batch(&model, &features).unwrap()));
        // The second insert pushes the catalog over budget, and its
        // victim cannot be written through: it stays resident.
        catalog.insert(key, Box::new(model)).unwrap();
    }
    assert_eq!(
        catalog.resident_len(),
        2,
        "an unstorable victim was dropped"
    );
    let pinned_before = catalog.stats().pinned;

    let server = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 4,
            latency_budget: Duration::from_micros(200),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = server.client();
    const ROUNDS: usize = 3;
    for round in 0..ROUNDS {
        for (key, reference) in &expected {
            let pending: Vec<_> = rows
                .iter()
                .map(|row| client.submit(*key, row.clone()).unwrap())
                .collect();
            for (i, fix) in pending.into_iter().enumerate() {
                assert_eq!(
                    fix.wait().unwrap(),
                    reference[i],
                    "round {round}: {key} fix {i} diverged"
                );
            }
        }
    }
    let gauges = server.server_stats();
    assert_eq!((gauges.queue_depth, gauges.in_flight), (0, 0));
    let paged = server.paged_stats().expect("paged server");
    assert!(paged.drains > 0, "budget 1 over two shards must drain");
    assert_eq!(
        paged.catalog.evictions, 0,
        "a model left memory although the store refused its bytes"
    );
    assert!(
        paged.catalog.pinned > pinned_before,
        "a failed spin-down write-through kept a model without counting it"
    );

    let (stats, mut catalog) = server.shutdown_with_catalog();
    for (key, s) in &stats {
        assert_eq!(
            (s.requests, s.errors),
            ((ROUNDS * rows.len()) as u64, 0),
            "{key}: one error-free reply per fix"
        );
    }
    assert_eq!(catalog.resident_len(), 2, "shutdown dropped a model");
    for (key, reference) in &expected {
        assert_eq!(&catalog.localize(*key, &features).unwrap(), reference);
    }
}

/// A store whose `put`s and `get`s fail intermittently, by a seeded draw,
/// under three snapshotable shards that take turns in a one-slot budget:
/// drains write models through (and keep them resident when the write
/// fails), faults read them back (and fail their fixes, typed, when the
/// read fails). Every fix gets exactly one reply; every answer served is
/// bit-identical to the model's direct `localize_batch`; every failure is
/// a typed store error; the gauges settle to zero; and every model whose
/// `put` was acknowledged rehydrates with its bits, as does every shard
/// once the store heals. CI greps for this test by name.
#[test]
fn intermittent_store_errors_keep_one_reply_per_fix_and_every_acknowledged_model() {
    use noble::hydrate;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let campaign = quick_campaign();
    let features = campaign.features(&campaign.test[..4.min(campaign.test.len())]);
    let rows: Vec<Vec<f64>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    for seed in [11u64, 12, 13] {
        let store = FaultyStore::seeded(seed, 300);
        let mut catalog =
            ModelCatalog::with_store(CatalogBudget::Count(1), Box::new(store.clone())).unwrap();
        let mut expected: Vec<(ShardKey, Vec<Point>)> = Vec::new();
        for i in 0..3 {
            let key = ShardKey::building(i);
            let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
            expected.push((key, Localizer::localize_batch(&model, &features).unwrap()));
            catalog.insert(key, Box::new(model)).unwrap();
        }
        let server = BatchServer::start(
            catalog,
            BatchConfig {
                max_batch: 4,
                latency_budget: Duration::from_micros(200),
                ..BatchConfig::default()
            },
        )
        .unwrap();
        let client = server.client();
        let (mut served, mut failed) = (0, 0);
        for round in 0..6 {
            for (key, reference) in &expected {
                let replies: Vec<_> = rows
                    .iter()
                    .map(|row| {
                        let count = Arc::new(AtomicUsize::new(0));
                        let (tx, rx) = std::sync::mpsc::channel();
                        let counter = Arc::clone(&count);
                        client
                            .submit_then(*key, row.clone(), move |outcome, _| {
                                counter.fetch_add(1, Ordering::SeqCst);
                                let _ = tx.send(outcome);
                            })
                            .unwrap();
                        (count, rx)
                    })
                    .collect();
                for (i, (count, rx)) in replies.into_iter().enumerate() {
                    match rx.recv_timeout(Duration::from_secs(30)).expect("a reply") {
                        Ok(point) => {
                            assert_eq!(
                                (point.x.to_bits(), point.y.to_bits()),
                                (reference[i].x.to_bits(), reference[i].y.to_bits()),
                                "seed {seed} round {round}: {key} fix {i} diverged"
                            );
                            served += 1;
                        }
                        Err(e) => {
                            assert!(
                                matches!(e, ServeError::Store(_)),
                                "seed {seed} round {round}: {key} fix {i}: untyped failure {e:?}"
                            );
                            failed += 1;
                        }
                    }
                    // A second reply would have been counted by now: the
                    // reply is sent after the count.
                    assert_eq!(count.load(Ordering::SeqCst), 1, "seed {seed}: one reply");
                }
            }
        }
        assert!(store.injected() > 0, "seed {seed}: no fault was injected");
        assert!(
            served > 0 && failed > 0,
            "seed {seed}: {served} served, {failed} failed"
        );
        let gauges = server.server_stats();
        assert_eq!(
            (gauges.queue_depth, gauges.in_flight),
            (0, 0),
            "seed {seed}"
        );
        let (_, mut catalog) = server.shutdown_with_catalog();
        // Every acknowledged write rehydrates with its model's bits.
        let acknowledged = store.acknowledged();
        assert!(!acknowledged.is_empty(), "seed {seed}: no put succeeded");
        for (key, snapshot) in &acknowledged {
            let reference = &expected.iter().find(|(k, _)| k == key).unwrap().1;
            let model = hydrate(snapshot).unwrap();
            assert_eq!(
                &model.localize_batch(&features).unwrap(),
                reference,
                "seed {seed}: acknowledged {key}"
            );
        }
        // And nothing was lost: once the store heals, every shard answers.
        store.heal();
        for (key, reference) in &expected {
            assert_eq!(
                &catalog.localize(*key, &features).unwrap(),
                reference,
                "seed {seed}: {key} after healing"
            );
        }
    }
}

#[test]
fn unsnapshotable_models_are_pinned_not_lost() {
    use noble::{LocalizerInfo, NobleError};

    /// A research-only localizer: no snapshot capability.
    struct Opaque;
    impl Localizer for Opaque {
        fn info(&self) -> LocalizerInfo {
            LocalizerInfo {
                model: "opaque",
                site: "default".into(),
                feature_dim: 2,
                class_count: 0,
            }
        }
        fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
            Ok(vec![Point::new(1.0, 2.0); features.rows()])
        }
    }

    let campaign = quick_campaign();
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(1)).unwrap();
    catalog
        .insert(ShardKey::building(0), Box::new(Opaque))
        .unwrap();
    // A snapshotable second shard pushes the catalog over budget; the
    // opaque model must be pinned (not silently dropped), so the *kNN*
    // shard is the one that cycles.
    let knn = KnnFingerprint::fit(&campaign, 2).unwrap();
    catalog
        .insert(ShardKey::building(1), Box::new(knn))
        .unwrap();
    let probe = Matrix::zeros(1, 2);
    assert_eq!(
        catalog.localize(ShardKey::building(0), &probe).unwrap(),
        vec![Point::new(1.0, 2.0)]
    );
    let wide = Matrix::zeros(1, campaign.num_waps());
    catalog.localize(ShardKey::building(1), &wide).unwrap();
    assert_eq!(
        catalog.localize(ShardKey::building(0), &probe).unwrap(),
        vec![Point::new(1.0, 2.0)],
        "pinned model was lost"
    );
    // Pinning is not silent: the stats carry a counted warning that the
    // budget could not be honored for the unsnapshotable model.
    assert!(
        catalog.stats().pinned > 0,
        "eviction walked past a pinned model without counting it"
    );

    // Served under a budget of one, every switch between the shards
    // drains the hot worker. The opaque model cannot write through, so
    // its spin-down must park it (pinned) instead of dropping it.
    let pinned_before = catalog.stats().pinned;
    let server = BatchServer::start(catalog, BatchConfig::default()).unwrap();
    let client = server.client();
    for _ in 0..3 {
        assert_eq!(
            client
                .localize(ShardKey::building(0), vec![0.0; 2])
                .unwrap(),
            Point::new(1.0, 2.0),
            "pinned model was lost across a drain"
        );
        client
            .localize(ShardKey::building(1), vec![0.0; campaign.num_waps()])
            .unwrap();
    }
    let paged = server.paged_stats().expect("paged server");
    assert!(paged.drains > 0, "budget 1 over two shards must drain");
    assert!(
        paged.catalog.pinned > pinned_before,
        "a spin-down parked a pinned model without counting it"
    );
    server.shutdown();
}

#[test]
fn mem_store_backs_the_same_lifecycle_as_fs() {
    let campaign = quick_campaign();
    let model = KnnFingerprint::fit(&campaign, 5).unwrap();
    let snapshot = SnapshotLocalizer::snapshot(&model);
    let key = ShardKey::building(3);
    let store = MemStore::new();
    store.put(key, &snapshot).unwrap();

    let mut catalog = ModelCatalog::with_store(CatalogBudget::Count(1), Box::new(store)).unwrap();
    assert_eq!(catalog.keys(), vec![key]);
    let features = campaign.features(&campaign.test[..3.min(campaign.test.len())]);
    let direct: Box<dyn Localizer> = Box::new(model);
    assert_eq!(
        catalog.localize(key, &features).unwrap(),
        direct.localize_batch(&features).unwrap()
    );
    assert_eq!(catalog.stats().hydrations, 1);
}

#[test]
fn partitioned_specs_match_partition_campaign() {
    // register_wifi_campaign must shard exactly like the eager path.
    let campaign = quick_campaign();
    let reg_cfg = RegistryConfig {
        policy: ShardPolicy::PerBuildingFloor,
        max_train_samples_per_shard: Some(32),
        parallel_training: false,
    };
    let parts = partition_campaign(
        &campaign,
        |s| reg_cfg.policy.key_of(s),
        reg_cfg.max_train_samples_per_shard,
    );
    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    let keys = catalog
        .register_wifi_campaign(&campaign, &fast_model_cfg(3), &reg_cfg)
        .unwrap();
    assert_eq!(keys, parts.keys().copied().collect::<Vec<_>>());
    assert_eq!(catalog.len(), parts.len());
}
