//! Serving parity and routing guarantees.
//!
//! The load-bearing test is `served_results_bit_identical_to_direct`: any
//! batch coalescing, any thread count, the `BatchServer` must return the
//! exact bits a direct `Localizer::localize_batch` call produces. CI
//! greps for this suite by name — do not rename it casually.

mod common;

use common::{fast_model_cfg, quick_campaign, registry_cfg};
use noble::wifi::{KnnFingerprint, WifiNoble};
use noble::Localizer;
use noble_datasets::WifiCampaign;
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    partition_campaign, shard_seed, BatchConfig, BatchServer, CatalogBudget, FsStore, MemStore,
    ModelCatalog, ModelStore, RegistryConfig, ServeError, ShardKey, ShardPolicy, ShardedRegistry,
};
use std::time::Duration;

/// Per-shard reference answers computed by the direct (serverless) path.
fn direct_reference(campaign: &WifiCampaign) -> Vec<(ShardKey, Vec<Vec<f64>>, Vec<Point>)> {
    let model_cfg = fast_model_cfg(4);
    partition_campaign(campaign, |s| ShardPolicy::PerBuilding.key_of(s), None)
        .into_iter()
        .map(|(key, shard)| {
            let mut cfg = model_cfg.clone();
            cfg.seed = shard_seed(model_cfg.seed, key);
            let model = WifiNoble::train(&shard, &cfg).unwrap();
            let features = shard.features(&shard.test);
            let rows: Vec<Vec<f64>> = (0..features.rows())
                .map(|i| features.row(i).to_vec())
                .collect();
            let expected = Localizer::localize_batch(&model, &features).unwrap();
            (key, rows, expected)
        })
        .collect()
}

/// The f32 tier's gate: every served fix within 1e-4 m of exact.
fn assert_within_f32_gate(got: &[Point], expected: &[Point], context: &str) {
    assert_eq!(got.len(), expected.len(), "{context}: one fix per row");
    for (g, e) in got.iter().zip(expected) {
        assert!(
            g.distance(*e) <= 1e-4,
            "{context}: f32 served fix {g} drifted from exact {e}"
        );
    }
}

#[test]
fn served_results_bit_identical_to_direct() {
    let campaign = quick_campaign();
    let reference = direct_reference(&campaign);
    assert!(reference.len() >= 2, "expected a multi-building campaign");

    // Sweep coalescing regimes: no batching, small batches under a zero
    // budget (drain-the-backlog mode), and wide batches under a real
    // budget — all with several client threads submitting concurrently.
    // The same trained shards serve every regime (handed back through
    // `shutdown_with_catalog`), so any cross-regime difference is the
    // server's fault, not training noise.
    let mut catalog = ModelCatalog::from(
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap(),
    );
    for (max_batch, budget_us) in [(1usize, 0u64), (4, 0), (64, 300), (256, 1000)] {
        let server = BatchServer::start(
            catalog,
            BatchConfig {
                max_batch,
                latency_budget: Duration::from_micros(budget_us),
                idle_ttl: None,
                ..BatchConfig::default()
            },
        )
        .unwrap();

        std::thread::scope(|s| {
            for (key, rows, expected) in &reference {
                let client = server.client();
                s.spawn(move || {
                    // Pipeline every fix before waiting so the worker has
                    // a real backlog to coalesce.
                    let pending: Vec<_> = rows
                        .iter()
                        .map(|row| client.submit(*key, row.clone()).unwrap())
                        .collect();
                    for (i, p) in pending.into_iter().enumerate() {
                        let got = p.wait().unwrap();
                        assert_eq!(
                            got, expected[i],
                            "{key} fix {i} differs (max_batch={max_batch}, budget={budget_us}us)"
                        );
                    }
                });
            }
        });

        let (stats, recovered) = server.shutdown_with_catalog();
        catalog = recovered;
        let total: u64 = stats.iter().map(|(_, s)| s.requests).sum();
        let expected_total: u64 = reference.iter().map(|(_, r, _)| r.len() as u64).sum();
        assert_eq!(total, expected_total);
        for (_, s) in &stats {
            assert!(s.batches >= 1);
            assert!(s.max_batch <= max_batch);
            assert_eq!(s.errors, 0);
        }
    }
    assert_eq!(catalog.len(), reference.len(), "shards survive restarts");
}

#[test]
fn warm_restart_from_store_bit_identical_to_fresh_registry() {
    // The model-lifecycle acceptance bar: train once, save every shard
    // model, restart serving purely from the store — answers must be the
    // exact bits the freshly trained registry serves.
    let campaign = quick_campaign();
    let reference = direct_reference(&campaign);
    let mut trained = ModelCatalog::from(
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap(),
    );

    // Through both store backends: in-memory and on-disk (checksummed
    // files under the cargo tmp dir).
    let fs_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("warm-restart-store");
    let mem = MemStore::new();
    let fs = FsStore::open(&fs_dir).unwrap();
    assert_eq!(trained.export_to(&mem).unwrap(), reference.len());
    assert_eq!(trained.export_to(&fs).unwrap(), reference.len());
    drop(trained); // the trained models are gone; only snapshots remain

    let stores: [Box<dyn ModelStore>; 2] = [Box::new(mem), Box::new(fs)];
    for store in stores {
        let server = BatchServer::start(
            ModelCatalog::with_store(CatalogBudget::Unbounded, store).unwrap(),
            BatchConfig {
                max_batch: 64,
                latency_budget: Duration::from_micros(300),
                idle_ttl: None,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(server.keys().len(), reference.len());
        std::thread::scope(|s| {
            for (key, rows, expected) in &reference {
                let client = server.client();
                s.spawn(move || {
                    let pending: Vec<_> = rows
                        .iter()
                        .map(|row| client.submit(*key, row.clone()).unwrap())
                        .collect();
                    for (i, p) in pending.into_iter().enumerate() {
                        assert_eq!(
                            p.wait().unwrap(),
                            expected[i],
                            "{key} fix {i} diverged after warm restart"
                        );
                    }
                });
            }
        });
        server.shutdown();
    }
}

/// The demand-paged acceptance bar (CI greps for this test by name): a
/// server whose catalog budget is far below the shard count — so
/// interleaved traffic keeps forcing evict-then-refault cycles — must
/// return the exact bits the fully-resident server returns, while never
/// holding more models than the budget allows.
#[test]
fn oversubscribed_paged_server_bit_identical_to_fully_resident() {
    let campaign = quick_campaign();
    let shard_count = 6usize;
    let budget = 2usize;
    let features = campaign.features(&campaign.test);
    let probe_rows: Vec<Vec<f64>> = (0..8.min(features.rows()))
        .map(|i| features.row(i).to_vec())
        .collect();

    // Per-shard reference answers from the direct, serverless path (kNN
    // fits are deterministic, so refitting reproduces the same model).
    let reference: Vec<(ShardKey, Vec<Point>)> = (0..shard_count)
        .map(|i| {
            let model = KnnFingerprint::fit(&campaign, i + 1).unwrap();
            let probe = Matrix::from_rows(&probe_rows).unwrap();
            let expected = Localizer::localize_batch(&model, &probe).unwrap();
            (ShardKey::building(i), expected)
        })
        .collect();

    // Fully-resident control server: every model alive on its own worker.
    let mut resident_registry = ShardedRegistry::new();
    for i in 0..shard_count {
        resident_registry.insert(
            ShardKey::building(i),
            Box::new(KnnFingerprint::fit(&campaign, i + 1).unwrap()),
        );
    }
    let resident_server = BatchServer::start(
        resident_registry,
        BatchConfig {
            max_batch: 16,
            latency_budget: Duration::from_micros(200),
            idle_ttl: None,
            ..BatchConfig::default()
        },
    )
    .unwrap();

    // Demand-paged server: same models, but only `budget` may be live.
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(budget)).unwrap();
    for i in 0..shard_count {
        catalog
            .insert(
                ShardKey::building(i),
                Box::new(KnnFingerprint::fit(&campaign, i + 1).unwrap()),
            )
            .unwrap();
    }
    let paged_server = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 16,
            latency_budget: Duration::from_micros(200),
            idle_ttl: None,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    assert_eq!(paged_server.keys().len(), shard_count);

    // Interleaved traffic in a rotating shard order: with budget 2 over 6
    // shards every round evicts and refaults, and concurrent clients make
    // shards warm in parallel.
    for round in 0..3 {
        std::thread::scope(|s| {
            for (i, (key, expected)) in reference.iter().enumerate() {
                let order = (i + round) % shard_count; // rotate who warms first
                let paged = paged_server.client();
                let control = resident_server.client();
                let rows = &probe_rows;
                s.spawn(move || {
                    std::thread::sleep(Duration::from_micros(50 * order as u64));
                    let pending: Vec<_> = rows
                        .iter()
                        .map(|row| paged.submit(*key, row.clone()).unwrap())
                        .collect();
                    let control_pending: Vec<_> = rows
                        .iter()
                        .map(|row| control.submit(*key, row.clone()).unwrap())
                        .collect();
                    for (j, (p, c)) in pending.into_iter().zip(control_pending).enumerate() {
                        let got = p.wait().unwrap();
                        assert_eq!(
                            got, expected[j],
                            "paged {key} fix {j} diverged from direct (round {round})"
                        );
                        assert_eq!(
                            got,
                            c.wait().unwrap(),
                            "paged {key} fix {j} diverged from resident server"
                        );
                    }
                });
            }
        });
        let paged = paged_server.paged_stats().expect("paged server");
        assert!(
            paged.hot_shards <= budget,
            "round {round}: {} workers hold models with budget {budget}",
            paged.hot_shards
        );
    }

    let paged = paged_server.paged_stats().expect("paged server");
    assert!(
        paged.faults as usize > shard_count,
        "only {} faults over 3 rounds of 6 shards under budget 2 — nothing refaulted",
        paged.faults
    );
    assert!(paged.drains > 0, "budget pressure never drained a worker");
    assert!(paged.parked_requests > 0, "no request ever parked");
    assert!(paged.catalog.hydrations > 0, "refaults must hydrate");
    assert_eq!(
        paged.catalog.retrains, 0,
        "snapshots must obviate retraining"
    );

    resident_server.shutdown();
    let (stats, catalog) = paged_server.shutdown_with_catalog();
    let total: u64 = stats.iter().map(|(_, s)| s.requests).sum();
    assert_eq!(total as usize, 3 * shard_count * probe_rows.len());
    for (_, s) in &stats {
        assert_eq!(s.errors, 0);
    }
    // The handed-back catalog still serves every shard and respects the
    // budget again.
    assert_eq!(catalog.keys().len(), shard_count);
    assert!(catalog.resident_len() <= budget);
}

/// Idle shards spin their worker down (releasing the model through the
/// store) and later traffic re-warms them with bit-identical answers.
#[test]
fn idle_shards_spin_down_and_rewarm_bit_identically() {
    let campaign = quick_campaign();
    let features = campaign.features(&campaign.test);
    let probe: Vec<Vec<f64>> = (0..4.min(features.rows()))
        .map(|i| features.row(i).to_vec())
        .collect();
    let keys = [ShardKey::building(0), ShardKey::building(1)];

    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
    for (i, key) in keys.iter().enumerate() {
        catalog
            .insert(
                *key,
                Box::new(KnnFingerprint::fit(&campaign, i + 2).unwrap()),
            )
            .unwrap();
    }
    let server = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 8,
            latency_budget: Duration::from_micros(100),
            idle_ttl: Some(Duration::from_millis(15)),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    let first: Vec<Vec<Point>> = keys
        .iter()
        .map(|key| {
            probe
                .iter()
                .map(|row| client.localize(*key, row.clone()).unwrap())
                .collect()
        })
        .collect();

    // Wait for the idle TTL to retire both workers (bounded poll, not a
    // bare sleep, so a slow CI box cannot flake this).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let paged = server.paged_stats().expect("paged server");
        if paged.idle_spin_downs >= 2 && paged.hot_shards == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "workers never spun down: {paged:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Re-warm: answers must be the exact bits from before the spin-down.
    for (key, expected) in keys.iter().zip(&first) {
        let again: Vec<Point> = probe
            .iter()
            .map(|row| client.localize(*key, row.clone()).unwrap())
            .collect();
        assert_eq!(&again, expected, "{key} diverged across spin-down/rewarm");
    }
    let paged = server.paged_stats().expect("paged server");
    assert!(paged.faults >= 4, "rewarm must fault the shards back in");
    assert!(
        paged.catalog.hydrations >= 2,
        "rewarm must hydrate from the store"
    );
    server.shutdown();
}

/// Reduced-precision serving: lowered shards stay inside the f32 tier's
/// accuracy gate (within 1e-4 m of exact), the default config still
/// serves the exact tier bit-identically, and the catalog keeps only the
/// exact models, so demand-paged write-through persists the exact f64
/// state even while shards serve lowered. CI
/// greps for this test by name — do not rename it casually.
#[test]
fn lowered_precision_serving_is_gated_and_writes_back_exact() {
    let campaign = quick_campaign();
    let reference = direct_reference(&campaign);

    // Resident sweep over the tiers, re-using the same trained shards.
    let mut resident = ModelCatalog::from(
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap(),
    );
    for precision in [
        noble::InferencePrecision::Exact,
        noble::InferencePrecision::F32,
    ] {
        let server = BatchServer::start(
            resident,
            BatchConfig {
                max_batch: 32,
                latency_budget: Duration::from_micros(200),
                precision,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        let client = server.client();
        for (key, rows, expected) in &reference {
            let got: Vec<Point> = rows
                .iter()
                .map(|row| client.localize(*key, row.clone()).unwrap())
                .collect();
            match precision {
                noble::InferencePrecision::Exact => {
                    assert_eq!(&got, expected, "{key}: exact tier must stay bit-identical");
                }
                noble::InferencePrecision::F32 => {
                    assert_within_f32_gate(&got, expected, &format!("{key}"));
                }
            }
        }
        let (_, recovered) = server.shutdown_with_catalog();
        resident = recovered;
    }

    // Demand-paged under heavy eviction pressure while serving f32:
    // drains write models back through the store, and that write-through
    // must carry the exact f64 state, so a later exact hydrate is
    // bit-identical.
    let model_cfg = fast_model_cfg(4);
    let shards = partition_campaign(&campaign, |s| ShardPolicy::PerBuilding.key_of(s), None);
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(1)).unwrap();
    for (key, _, _) in &reference {
        let mut cfg = model_cfg.clone();
        cfg.seed = shard_seed(model_cfg.seed, *key);
        let model = WifiNoble::train(&shards[key], &cfg).unwrap();
        catalog.insert(*key, Box::new(model)).unwrap();
    }
    let paged = BatchServer::start(
        catalog,
        BatchConfig {
            max_batch: 32,
            latency_budget: Duration::from_micros(200),
            precision: noble::InferencePrecision::F32,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = paged.client();
    for round in 0..2 {
        for (key, rows, expected) in &reference {
            let got: Vec<Point> = rows
                .iter()
                .map(|row| client.localize(*key, row.clone()).unwrap())
                .collect();
            assert_within_f32_gate(&got, expected, &format!("{key} (paged, round {round})"));
        }
    }
    let stats = paged.paged_stats().expect("paged server");
    assert!(stats.drains > 0, "budget 1 over many shards must drain");

    // Lowered twins stay local to their workers: the catalog only ever
    // holds the exact models, so what the shutdown leaves resident is
    // exact, and every model the drains wrote back through the store is
    // an exact f64 snapshot. The handed-back catalog hydrates and serves
    // the exact tier bit-identically.
    let (_, mut catalog) = paged.shutdown_with_catalog();
    for info in catalog.info() {
        assert!(
            !info.model.ends_with("-f32"),
            "{}: a lowered twin {} stayed in the returned catalog",
            info.site,
            info.model
        );
    }
    for (key, rows, expected) in &reference {
        let features = Matrix::from_rows(rows).unwrap();
        let got = catalog.localize(*key, &features).unwrap();
        assert_eq!(
            &got, expected,
            "{key}: write-through lost exact f64 state while serving f32"
        );
    }
}

/// The precision tier must actually engage: under `F32` the
/// server serves the model's lowered twin, under `Exact` the model
/// itself. The twin answers a point the original never returns, so any
/// wrapper that hides `try_lower` shows up as the original's answer.
/// CI greps for this test by name — do not rename it casually.
#[test]
fn server_serves_the_lowered_twin_under_a_reduced_tier() {
    use noble::{InferencePrecision, LocalizerInfo, NobleError};

    fn info() -> LocalizerInfo {
        LocalizerInfo {
            model: "twin-probe",
            site: "default".into(),
            feature_dim: 2,
            class_count: 0,
        }
    }
    /// Answers x = 1; lowers into `Twin`.
    struct Original;
    /// Answers x = 99.
    struct Twin;
    impl Localizer for Original {
        fn info(&self) -> LocalizerInfo {
            info()
        }
        fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
            Ok(vec![Point::new(1.0, 0.0); features.rows()])
        }
        fn try_lower(&self, precision: InferencePrecision) -> Option<Box<dyn Localizer>> {
            (precision != InferencePrecision::Exact).then(|| Box::new(Twin) as Box<dyn Localizer>)
        }
    }
    impl Localizer for Twin {
        fn info(&self) -> LocalizerInfo {
            info()
        }
        fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
            Ok(vec![Point::new(99.0, 0.0); features.rows()])
        }
    }

    let key = ShardKey::building(0);
    for (precision, x) in [
        (InferencePrecision::Exact, 1.0),
        (InferencePrecision::F32, 99.0),
    ] {
        let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded).unwrap();
        catalog.insert(key, Box::new(Original)).unwrap();
        let server = BatchServer::start(
            catalog,
            BatchConfig {
                precision,
                ..BatchConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            server.client().localize(key, vec![0.0; 2]).unwrap(),
            Point::new(x, 0.0),
            "{precision:?} server answered from the wrong tier"
        );
        server.shutdown();
    }
}

#[test]
fn unknown_shard_is_typed_error_not_panic() {
    let campaign = quick_campaign();
    let mut catalog = ModelCatalog::from(
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap(),
    );
    let bogus = ShardKey::building_floor(99, 7);
    let features = campaign.features(&campaign.test[..1]);

    assert!(matches!(
        catalog.localize(bogus, &features),
        Err(ServeError::UnknownShard(k)) if k == bogus
    ));

    let server = BatchServer::start(catalog, BatchConfig::default()).unwrap();
    let client = server.client();
    assert!(matches!(
        client.submit(bogus, features.row(0).to_vec()),
        Err(ServeError::UnknownShard(_))
    ));
    server.shutdown();
}

#[test]
fn width_mismatch_is_a_per_request_error() {
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap();
    let key = registry.keys()[0];
    let server = BatchServer::start(registry, BatchConfig::default()).unwrap();
    let client = server.client();

    let good = client.submit(key, vec![0.0; campaign.num_waps()]).unwrap();
    let bad = client.submit(key, vec![0.0; 3]).unwrap();
    assert!(good.wait().is_ok());
    assert!(matches!(
        bad.wait(),
        Err(ServeError::FeatureDim {
            expected,
            found: 3,
            ..
        }) if expected == campaign.num_waps()
    ));
    let stats = server.shutdown();
    let shard = stats.iter().find(|(k, _)| *k == key).unwrap();
    assert_eq!(shard.1.errors, 1);
}

#[test]
fn graceful_shutdown_drains_queued_fixes_then_rejects() {
    let campaign = quick_campaign();
    let registry =
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()).unwrap();
    let key = registry.keys()[0];
    let server = BatchServer::start(
        registry,
        BatchConfig {
            max_batch: 8,
            latency_budget: Duration::from_micros(200),
            idle_ttl: None,
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let client = server.client();

    let pending: Vec<_> = (0..40)
        .map(|_| client.submit(key, vec![0.0; campaign.num_waps()]).unwrap())
        .collect();
    // Shutdown queues behind the 40 fixes; every one must still be served.
    let stats = server.shutdown();
    for p in pending {
        assert!(p.wait().is_ok(), "queued fix dropped during shutdown");
    }
    let shard = stats.iter().find(|(k, _)| *k == key).unwrap();
    assert_eq!(shard.1.requests, 40);
    assert!(shard.1.mean_batch() > 1.0, "no coalescing happened at all");

    assert!(matches!(
        client.submit(key, vec![0.0; campaign.num_waps()]),
        Err(ServeError::ShuttingDown)
    ));
}

#[test]
fn concurrent_and_serial_shard_training_are_bit_identical() {
    // Two shards training at once (scoped threads inside the registry)
    // must produce the same models as training one-by-one: per-shard
    // seeds derive from the shard key, and nothing shares RNG state.
    let campaign = quick_campaign();
    let mut parallel = ModelCatalog::from(
        ShardedRegistry::train_wifi(
            &campaign,
            &fast_model_cfg(4),
            &RegistryConfig {
                parallel_training: true,
                ..registry_cfg()
            },
        )
        .unwrap(),
    );
    let mut serial = ModelCatalog::from(
        ShardedRegistry::train_wifi(
            &campaign,
            &fast_model_cfg(4),
            &RegistryConfig {
                parallel_training: false,
                ..registry_cfg()
            },
        )
        .unwrap(),
    );
    assert_eq!(parallel.keys(), serial.keys());
    let features = campaign.features(&campaign.test);
    for key in parallel.keys() {
        let a = parallel.localize(key, &features).unwrap();
        let b = serial.localize(key, &features).unwrap();
        assert_eq!(a, b, "shard {key} diverged between parallel and serial");
    }
}

#[test]
fn registry_bounds_per_shard_memory_and_labels_sites() {
    let campaign = quick_campaign();
    let cap = 20;
    let parts = partition_campaign(
        &campaign,
        |s| ShardPolicy::PerBuildingFloor.key_of(s),
        Some(cap),
    );
    assert!(parts.len() > 3, "building-floor sharding should fan out");
    for shard in parts.values() {
        assert!(shard.train.len() <= cap);
    }

    let catalog = ModelCatalog::from(
        ShardedRegistry::train_wifi(
            &campaign,
            &fast_model_cfg(4),
            &RegistryConfig {
                max_train_samples_per_shard: Some(64),
                ..registry_cfg()
            },
        )
        .unwrap(),
    );
    for (info, key) in catalog.info().iter().zip(catalog.keys()) {
        assert_eq!(info.site, key.to_string());
        assert_eq!(info.model, "wifi-noble");
        assert_eq!(info.feature_dim, campaign.num_waps());
        assert!(info.class_count > 0);
    }
}

#[test]
fn empty_campaign_yields_no_shards() {
    let mut campaign = quick_campaign();
    campaign.train.clear();
    assert!(matches!(
        ShardedRegistry::train_wifi(&campaign, &fast_model_cfg(4), &registry_cfg()),
        Err(ServeError::NoShards)
    ));
    assert!(matches!(
        BatchServer::start(ShardedRegistry::new(), BatchConfig::default()),
        Err(ServeError::NoShards)
    ));
}
