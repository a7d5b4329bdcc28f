//! Sharded serving throughput: the micro-batching pipeline under client
//! load.
//!
//! `exp_throughput` measured the raw inference engine; this runner
//! measures the *serving* seam above it — N client threads firing WiFi
//! fixes at a [`noble_serve::BatchServer`] over 1/2/4 shards, with the
//! coalescing knobs swept:
//!
//! - **single** — synchronous request/response serving: each client keeps
//!   one fix in flight, `max_batch = 1`, one inference call per fix (the
//!   naive serving loop),
//! - **pipelined** — clients stream their fixes (submit-all-then-wait)
//!   but the worker still serves one fix per call, isolating the win of
//!   asynchrony alone,
//! - **batched** — streaming clients *and* coalescing: `max_batch >= 64`
//!   at several latency budgets, so the backlog rides stacked
//!   `localize_batch` calls.
//!
//! A precision family rides the same batched discipline with
//! [`noble_serve::BatchConfig::precision`] set to each tier — workers
//! serve f32/int8 lowered twins — and gates every tier's answers
//! against the exact tier inline (exact bit-identical across reps, f32
//! within 1e-4 position error, int8 within its calibrated decode
//! bound). A gate failure aborts the runner.
//!
//! A second measurement family covers **demand-paged** serving
//! ([`noble_serve::BatchServer::start`] over a budgeted catalog): an
//! oversubscribed catalog (16 shards under a budget of 4 resident models
//! at full scale) driven with uniform-rotation and popularity-skewed
//! traffic, recording fault / drain / spin-down counts and cold-vs-warm latency
//! percentiles — with every answer asserted bit-identical to the
//! fully-resident server inline.
//!
//! Serving results are bit-identical across all modes (the kernel
//! dispatch is per-row; `noble-serve`'s parity suite pins it), so the
//! sweep is purely a throughput story. Results go to stdout and
//! `results/BENCH_serving.json`. [`Scale::Quick`] shrinks the sweep for
//! CI smoke runs.

use crate::config::{imu_config, uji_config};
use crate::latency::LatencySummary;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::report::TextTable;
use noble::wifi::WifiNobleConfig;
use noble_datasets::{uji_campaign, ImuDataset, ImuPathSample, WifiSample};
use noble_geo::Point;
use noble_serve::{
    BatchConfig, BatchServer, CatalogBudget, CatalogStats, MemStore, ModelCatalog, RegistryConfig,
    ShardKey, ShardPolicy, ShardStats, ShardedRegistry,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One serving measurement.
struct Measurement {
    mode: &'static str,
    precision: &'static str,
    shards: usize,
    max_batch: usize,
    budget_us: u64,
    fixes_per_sec: f64,
    shard_stats: Vec<(ShardKey, ShardStats)>,
}

impl Measurement {
    fn json(&self) -> String {
        let shards: Vec<String> = self
            .shard_stats
            .iter()
            .map(|(key, s)| {
                format!(
                    "{{\"shard\": \"{key}\", \"requests\": {}, \"batches\": {}, \
                     \"mean_batch\": {:.2}, \"max_batch\": {}, \"mean_latency_us\": {:.1}, \
                     \"max_latency_us\": {}, \"busy_us\": {}}}",
                    s.requests,
                    s.batches,
                    s.mean_batch(),
                    s.max_batch,
                    s.mean_latency_us(),
                    s.max_latency_us,
                    s.busy_us
                )
            })
            .collect();
        format!
            (
            "    {{\"mode\": \"{}\", \"precision\": \"{}\", \"shards\": {}, \"max_batch\": {}, \"budget_us\": {}, \"fixes_per_sec\": {:.1}, \"shard_stats\": [{}]}}",
            self.mode, self.precision, self.shards, self.max_batch, self.budget_us, self.fixes_per_sec, shards.join(", ")
        )
    }
}

/// One demand-paged (oversubscribed) serving measurement.
struct PagedMeasurement {
    mode: &'static str,
    shards: usize,
    budget: usize,
    fixes: usize,
    fixes_per_sec: f64,
    /// Bit-identical to the fully-resident server (asserted inline; a
    /// mismatch aborts the runner, so a written row is always `true`).
    parity: bool,
    faults: u64,
    idle_spin_downs: u64,
    drains: u64,
    parked_requests: u64,
    catalog: CatalogStats,
    cold: LatencySummary,
    warm: LatencySummary,
}

impl PagedMeasurement {
    fn json(&self) -> String {
        format!(
            "    {{\"mode\": \"{}\", \"shards\": {}, \"budget\": {}, \"fixes\": {}, \
             \"fixes_per_sec\": {:.1}, \"parity\": {}, \"faults\": {}, \
             \"idle_spin_downs\": {}, \"drains\": {}, \"parked_requests\": {}, \
             \"catalog\": {{\"hits\": {}, \"misses\": {}, \"hydrations\": {}, \
             \"retrains\": {}, \"evictions\": {}, \"pinned\": {}}}, \
             \"cold\": {}, \"warm\": {}}}",
            self.mode,
            self.shards,
            self.budget,
            self.fixes,
            self.fixes_per_sec,
            self.parity,
            self.faults,
            self.idle_spin_downs,
            self.drains,
            self.parked_requests,
            self.catalog.hits,
            self.catalog.misses,
            self.catalog.hydrations,
            self.catalog.retrains,
            self.catalog.evictions,
            self.catalog.pinned,
            self.cold.json(),
            self.warm.json()
        )
    }
}

/// Per-fix observations of [`drive_collect`]: answers aligned to the fix
/// stream's submission order, `(cold, latency_us)` samples, and the
/// overall fixes/second.
type DriveObservations = (Vec<Point>, Vec<(bool, u128)>, f64);

/// Drives `fixes` through the server from `clients` synchronous
/// request/response threads, collecting each fix's answer (in submission
/// order), its cold flag and its end-to-end latency — the per-request
/// view the demand-paged measurement needs to split cold-start tails
/// from steady-state percentiles.
fn drive_collect(
    server: &BatchServer,
    fixes: &[(ShardKey, Vec<f64>)],
    clients: usize,
) -> Result<DriveObservations, Box<dyn std::error::Error>> {
    type Record = (usize, Point, bool, u128);
    let slices: Vec<Vec<(usize, ShardKey, Vec<f64>)>> = (0..clients)
        .map(|c| {
            fixes
                .iter()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .map(|(i, (key, row))| (i, *key, row.clone()))
                .collect()
        })
        .collect();
    let started = Instant::now();
    let mut collected: Vec<Record> = Vec::with_capacity(fixes.len());
    std::thread::scope(|s| -> Result<(), noble_serve::ServeError> {
        let mut handles = Vec::new();
        for mine in slices {
            let client = server.client();
            handles.push(
                s.spawn(move || -> Result<Vec<Record>, noble_serve::ServeError> {
                    let mut out = Vec::with_capacity(mine.len());
                    for (i, key, row) in mine {
                        let submitted = Instant::now();
                        let pending = client.submit(key, row)?;
                        let cold = pending.cold();
                        let point = pending.wait()?;
                        out.push((i, point, cold, submitted.elapsed().as_micros()));
                    }
                    Ok(out)
                }),
            );
        }
        for h in handles {
            collected.extend(h.join().expect("client thread")?);
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let mut answers = vec![Point::new(f64::NAN, f64::NAN); fixes.len()];
    let mut samples = Vec::with_capacity(fixes.len());
    for (i, point, cold, latency) in collected {
        answers[i] = point;
        samples.push((cold, latency));
    }
    Ok((answers, samples, fixes.len() as f64 / elapsed))
}

/// Per-run catalog counters: the paged server reports cumulative catalog
/// stats (the catalog round-trips between measurement modes), so each
/// row records the delta across its own drive.
fn catalog_delta(after: CatalogStats, before: CatalogStats) -> CatalogStats {
    CatalogStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        hydrations: after.hydrations - before.hydrations,
        retrains: after.retrains - before.retrains,
        evictions: after.evictions - before.evictions,
        pinned: after.pinned - before.pinned,
    }
}

/// Drives `fixes` through the server from `clients` threads and returns
/// the wall-clock fixes/second.
///
/// With `pipeline` the clients stream: every fix is submitted before any
/// reply is awaited (devices posting asynchronously — the backlog is what
/// the worker coalesces). Without it each client is a synchronous
/// request/response loop, one fix in flight at a time — the classic
/// single-request serving discipline.
fn drive(
    server: &BatchServer,
    fixes: &[(ShardKey, Vec<f64>)],
    clients: usize,
    pipeline: bool,
) -> Result<f64, Box<dyn std::error::Error>> {
    // Pre-clone each client's slice so the timed region measures serving,
    // not allocation of the request stream.
    let slices: Vec<Vec<(ShardKey, Vec<f64>)>> = (0..clients)
        .map(|c| fixes.iter().skip(c).step_by(clients).cloned().collect())
        .collect();
    let started = Instant::now();
    std::thread::scope(|s| -> Result<(), noble_serve::ServeError> {
        let mut handles = Vec::new();
        for mine in slices {
            let client = server.client();
            handles.push(s.spawn(move || -> Result<(), noble_serve::ServeError> {
                if pipeline {
                    let pending: Result<Vec<_>, _> = mine
                        .into_iter()
                        .map(|(key, row)| client.submit(key, row))
                        .collect();
                    for p in pending? {
                        p.wait()?;
                    }
                } else {
                    for (key, row) in mine {
                        client.localize(key, row)?;
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("client thread")?;
        }
        Ok(())
    })?;
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    Ok(fixes.len() as f64 / elapsed)
}

/// Runs the sweep and writes `results/BENCH_serving.json`.
///
/// # Errors
///
/// Propagates dataset, training, serving and artifact-I/O failures.
pub fn run(scale: Scale) -> RunnerResult {
    // Serving cost is dominated by the fixed-width forward pass; train
    // briefly on the quick campaign but keep the paper's hidden width.
    let campaign = uji_campaign(&uji_config(Scale::Quick))?;
    let model_cfg = WifiNobleConfig {
        hidden_dim: 128,
        epochs: if scale == Scale::Quick { 2 } else { 4 },
        patience: None,
        ..WifiNobleConfig::small()
    };

    let floors = campaign
        .map
        .buildings()
        .iter()
        .map(|b| b.floors())
        .max()
        .unwrap_or(1);
    let (shard_counts, budgets_us, total_fixes, clients, reps): (
        Vec<usize>,
        Vec<u64>,
        usize,
        usize,
        usize,
    ) = match scale {
        Scale::Quick => (vec![1, 2], vec![200], 1024, 8, 2),
        Scale::Full => (vec![1, 2, 4], vec![0, 200, 1000], 4096, 8, 3),
    };
    let reference_shards = *shard_counts.last().unwrap_or(&1);
    let max_batches: Vec<usize> = match scale {
        Scale::Quick => vec![256],
        Scale::Full => vec![64, 256],
    };

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut speedup_at_reference = 0.0f64;
    let mut single_at_reference = 0.0f64;
    for &shards in &shard_counts {
        // Round-robin building-floor zones onto `shards` groups; requests
        // route with the same keyer.
        let keyer = move |s: &WifiSample| {
            if shards == 1 {
                ShardPolicy::SingleSite.key_of(s)
            } else {
                ShardKey::building((s.building * floors + s.floor) % shards)
            }
        };
        let mut catalog = ModelCatalog::from(ShardedRegistry::train_wifi_with(
            &campaign,
            keyer,
            &model_cfg,
            &RegistryConfig::default(),
        )?);

        // Replicate test fingerprints up to the request volume.
        let features = campaign.features(&campaign.test);
        let fixes: Vec<(ShardKey, Vec<f64>)> = (0..total_fixes)
            .map(|i| {
                let j = i % features.rows();
                (keyer(&campaign.test[j]), features.row(j).to_vec())
            })
            .collect();

        let run_mode = |measurements: &mut Vec<Measurement>,
                        mode: &'static str,
                        max_batch: usize,
                        budget_us: u64,
                        pipeline: bool,
                        catalog: ModelCatalog|
         -> Result<(ModelCatalog, f64), Box<dyn std::error::Error>> {
            let mut best = 0.0f64;
            let mut stats = Vec::new();
            let mut catalog = catalog;
            for _ in 0..reps {
                let server = BatchServer::start(
                    catalog,
                    BatchConfig {
                        max_batch,
                        latency_budget: Duration::from_micros(budget_us),
                        idle_ttl: None,
                        ..BatchConfig::default()
                    },
                )?;
                let rate = drive(&server, &fixes, clients, pipeline)?;
                let (s, recovered) = server.shutdown_with_catalog()?;
                catalog = recovered;
                // Keep the stats of the *best* repetition so the JSON's
                // rate and batch/latency columns describe the same run.
                if rate > best {
                    best = rate;
                    stats = s;
                }
            }
            measurements.push(Measurement {
                mode,
                precision: "exact",
                shards,
                max_batch,
                budget_us,
                fixes_per_sec: best,
                shard_stats: stats,
            });
            Ok((catalog, best))
        };

        // Single-request serving: synchronous request/response, one fix in
        // flight per client, one inference call per fix.
        let (trained, single_rate) = run_mode(&mut measurements, "single", 1, 0, false, catalog)?;
        // Streaming without coalescing isolates how much of the win comes
        // from pipelining alone vs. from the stacked inference call.
        let (trained, _) = run_mode(&mut measurements, "pipelined", 1, 0, true, trained)?;
        catalog = trained;
        let mut best_batched = 0.0f64;
        for &max_batch in &max_batches {
            for &budget in &budgets_us {
                let (trained, rate) = run_mode(
                    &mut measurements,
                    "batched",
                    max_batch,
                    budget,
                    true,
                    catalog,
                )?;
                catalog = trained;
                best_batched = best_batched.max(rate);
            }
        }
        if shards == reference_shards {
            single_at_reference = single_rate;
            speedup_at_reference = best_batched / single_rate.max(f64::MIN_POSITIVE);
        }
        drop(catalog);
    }

    // --- Mixed WiFi+IMU traffic (ROADMAP "IMU serving path"): one IMU
    // tracker shard rides the same BatchServer as the per-building WiFi
    // shards; a quarter of the fix stream is IMU path features. ---
    {
        let imu_dataset = ImuDataset::generate(&imu_config(Scale::Quick))?;
        let imu_cfg = ImuNobleConfig {
            epochs: if scale == Scale::Quick { 6 } else { 20 },
            ..ImuNobleConfig::small()
        };
        let imu_model = ImuNoble::train(&imu_dataset, &imu_cfg)?;
        let imu_refs: Vec<&ImuPathSample> = imu_dataset.test.iter().collect();
        let imu_features = imu_model.path_features(&imu_refs);
        let imu_key = ShardKey::building(1000); // disjoint from campus buildings

        let mut registry = ShardedRegistry::train_wifi(
            &campaign,
            &model_cfg,
            &RegistryConfig::default(), // per-building WiFi shards
        )?;
        let wifi_shards = registry.len();
        registry.insert(imu_key, Box::new(imu_model));
        let mut catalog = ModelCatalog::from(registry);

        let wifi_features = campaign.features(&campaign.test);
        let fixes: Vec<(ShardKey, Vec<f64>)> = (0..total_fixes)
            .map(|i| {
                if i % 4 == 3 {
                    let j = i % imu_features.rows();
                    (imu_key, imu_features.row(j).to_vec())
                } else {
                    let j = i % wifi_features.rows();
                    (
                        ShardPolicy::PerBuilding.key_of(&campaign.test[j]),
                        wifi_features.row(j).to_vec(),
                    )
                }
            })
            .collect();

        let max_batch = *max_batches.last().unwrap_or(&256);
        let budget_us = *budgets_us.last().unwrap_or(&200);
        let mut best = 0.0f64;
        let mut stats = Vec::new();
        for _ in 0..reps {
            let server = BatchServer::start(
                catalog,
                BatchConfig {
                    max_batch,
                    latency_budget: Duration::from_micros(budget_us),
                    idle_ttl: None,
                    ..BatchConfig::default()
                },
            )?;
            let rate = drive(&server, &fixes, clients, true)?;
            let (s, recovered) = server.shutdown_with_catalog()?;
            catalog = recovered;
            if rate > best {
                best = rate;
                stats = s;
            }
        }
        measurements.push(Measurement {
            mode: "mixed-wifi-imu",
            precision: "exact",
            shards: wifi_shards + 1,
            max_batch,
            budget_us,
            fixes_per_sec: best,
            shard_stats: stats,
        });
    }

    // --- Reduced-precision serving (`BatchConfig::precision`): the same
    // streaming-batched discipline with the workers serving lowered
    // twins. Every tier's answers are gated against the exact tier
    // inline — exact must be bit-identical across reps, f32 within the
    // 1e-4 position gate, int8 within its calibrated decode bound — so
    // the `NOBLE_QUICK=1` CI smoke enforces the accuracy deltas on every
    // push, not just the throughput story. ---
    let mut f32_serving_delta = 0.0f64;
    let mut i8_serving_matches = 1.0f64;
    let mut i8_serving_mean = 0.0f64;
    {
        use noble::InferencePrecision;
        let registry =
            ShardedRegistry::train_wifi(&campaign, &model_cfg, &RegistryConfig::default())?;
        let precision_shards = registry.len();
        let mut catalog = ModelCatalog::from(registry);
        let wifi_features = campaign.features(&campaign.test);
        let fixes: Vec<(ShardKey, Vec<f64>)> = (0..total_fixes)
            .map(|i| {
                let j = i % wifi_features.rows();
                (
                    ShardPolicy::PerBuilding.key_of(&campaign.test[j]),
                    wifi_features.row(j).to_vec(),
                )
            })
            .collect();

        let max_batch = *max_batches.last().unwrap_or(&256);
        let budget_us = *budgets_us.last().unwrap_or(&200);
        let mut exact_answers: Vec<Point> = Vec::new();
        for (precision, label) in [
            (InferencePrecision::Exact, "exact"),
            (InferencePrecision::F32, "f32"),
            (InferencePrecision::Int8, "int8"),
        ] {
            let mut best = 0.0f64;
            let mut stats = Vec::new();
            for _ in 0..reps {
                let server = BatchServer::start(
                    catalog,
                    BatchConfig {
                        max_batch,
                        latency_budget: Duration::from_micros(budget_us),
                        idle_ttl: None,
                        precision,
                        ..BatchConfig::default()
                    },
                )?;
                let (answers, _, rate) = drive_collect(&server, &fixes, clients)?;
                let (s, recovered) = server.shutdown_with_catalog()?;
                // Lowered twins go back through the store as their exact
                // f64 snapshots, so each tier lowers fresh from f64
                // state — twins never re-lower.
                catalog = recovered;
                match precision {
                    InferencePrecision::Exact => {
                        if exact_answers.is_empty() {
                            exact_answers = answers;
                        } else if answers != exact_answers {
                            return Err("exact serving answers diverged between repetitions".into());
                        }
                    }
                    InferencePrecision::F32 => {
                        let delta = answers
                            .iter()
                            .zip(&exact_answers)
                            .map(|(a, b)| a.distance(*b))
                            .fold(0.0, f64::max);
                        f32_serving_delta = f32_serving_delta.max(delta);
                        if delta > 1e-4 {
                            return Err(format!(
                                "f32 serving gate failed: max position delta {delta} > 1e-4"
                            )
                            .into());
                        }
                    }
                    InferencePrecision::Int8 => {
                        let hits = answers
                            .iter()
                            .zip(&exact_answers)
                            .filter(|(a, b)| a == b)
                            .count();
                        let matches = hits as f64 / answers.len().max(1) as f64;
                        let mean = answers
                            .iter()
                            .zip(&exact_answers)
                            .map(|(a, b)| a.distance(*b))
                            .sum::<f64>()
                            / answers.len().max(1) as f64;
                        i8_serving_matches = i8_serving_matches.min(matches);
                        i8_serving_mean = i8_serving_mean.max(mean);
                        if matches < 0.9 || mean > 0.5 {
                            return Err(format!(
                                "int8 serving gate failed: match fraction {matches:.3} \
                                 (need >= 0.9), mean position delta {mean:.3} m (need <= 0.5)"
                            )
                            .into());
                        }
                    }
                }
                if rate > best {
                    best = rate;
                    stats = s;
                }
            }
            measurements.push(Measurement {
                mode: "batched",
                precision: label,
                shards: precision_shards,
                max_batch,
                budget_us,
                fixes_per_sec: best,
                shard_stats: stats,
            });
        }
        drop(catalog);
    }

    // --- Demand-paged oversubscribed serving (ROADMAP "store-aware
    // BatchServer"): many more shards than the catalog budget allows
    // resident. Shard workers fault models in through the shared catalog
    // and spin down under budget pressure (LRU drains) or the idle TTL;
    // answers are asserted bit-identical to the fully-resident server
    // inline, and the JSON rows record fault / spin-down counts plus
    // cold-vs-warm latency percentiles. ---
    let mut paged_rows: Vec<PagedMeasurement> = Vec::new();
    let (paged_shards_target, paged_budget) = match scale {
        Scale::Quick => (8usize, 2usize),
        Scale::Full => (16, 4),
    };
    {
        let paged_fixes = match scale {
            Scale::Quick => 768usize,
            Scale::Full => 4096,
        };
        let shard_total = paged_shards_target;
        // Oversplit the campus into `shard_total` shards: building-floor
        // zones, each further quartered by the low mantissa bits of the
        // sample position (deterministic, and consistent between train
        // and test samples recorded at the same spot).
        let keyer = move |s: &WifiSample| {
            let zone = s.building * floors + s.floor;
            let sub = (((s.position.x.to_bits() & 1) << 1) | (s.position.y.to_bits() & 1)) as usize;
            ShardKey::building((zone * 4 + sub) % shard_total)
        };
        let registry = ShardedRegistry::train_wifi_with(
            &campaign,
            keyer,
            &model_cfg,
            &RegistryConfig::default(),
        )?;
        let registry_keys = registry.keys();
        let shard_count = registry_keys.len();

        // Snapshot every trained shard into the store the paged catalog
        // will fault from (hydration is bit-identical, so the paged
        // server serves the *same models* the resident control serves).
        let mut trained = ModelCatalog::from(registry);
        let store = MemStore::new();
        trained.export_to(&store)?;
        let mut catalog = Some(ModelCatalog::with_store(
            CatalogBudget::Count(paged_budget),
            Box::new(store),
        )?);

        // Per-shard test rows under the same keyer.
        let features = campaign.features(&campaign.test);
        let mut by_shard: BTreeMap<ShardKey, Vec<Vec<f64>>> = BTreeMap::new();
        for (i, sample) in campaign.test.iter().enumerate() {
            let key = keyer(sample);
            if registry_keys.contains(&key) {
                by_shard
                    .entry(key)
                    .or_default()
                    .push(features.row(i).to_vec());
            }
        }
        let shard_keys: Vec<ShardKey> = by_shard.keys().copied().collect();

        // Uniform: blocks of `clients * 4` consecutive fixes per shard,
        // rotating round-robin — every shard revisit past the budget is
        // an evict-then-refault, with warm riders inside each block.
        let uniform: Vec<(ShardKey, Vec<f64>)> = (0..paged_fixes)
            .map(|i| {
                let key = shard_keys[(i / (clients * 4)) % shard_keys.len()];
                let rows = &by_shard[&key];
                (key, rows[i % rows.len()].clone())
            })
            .collect();
        // Skewed: shard popularity ~ 1/(rank+1) over a deterministic
        // stride — popular shards stay resident, the tail keeps faulting.
        let weights: Vec<usize> = (0..shard_keys.len()).map(|r| 1000 / (r + 1)).collect();
        let total_weight: usize = weights.iter().sum();
        let skewed: Vec<(ShardKey, Vec<f64>)> = (0..paged_fixes)
            .map(|i| {
                let mut t = (i * 7919 + 13) % total_weight;
                let mut idx = shard_keys.len() - 1;
                for (j, w) in weights.iter().enumerate() {
                    if t < *w {
                        idx = j;
                        break;
                    }
                    t -= w;
                }
                let key = shard_keys[idx];
                let rows = &by_shard[&key];
                (key, rows[i % rows.len()].clone())
            })
            .collect();

        let serve_cfg = BatchConfig {
            max_batch: 64,
            latency_budget: Duration::from_micros(200),
            idle_ttl: Some(Duration::from_millis(20)),
            ..BatchConfig::default()
        };
        let resident = BatchServer::start(trained, serve_cfg)?;
        for (mode, fixes) in [("paged-uniform", &uniform), ("paged-skewed", &skewed)] {
            let (expected, _, _) = drive_collect(&resident, fixes, clients)?;
            let paged_server =
                BatchServer::start(catalog.take().expect("catalog round-trips"), serve_cfg)?;
            let catalog_before = paged_server.paged_stats().expect("paged server").catalog;
            let (answers, samples, rate) = drive_collect(&paged_server, fixes, clients)?;
            if answers != expected {
                return Err(format!(
                    "{mode}: demand-paged answers diverged from the fully-resident server"
                )
                .into());
            }
            let pstats = paged_server.paged_stats().expect("paged server");
            let (_, recovered) = paged_server.shutdown_with_catalog()?;
            catalog = Some(recovered);
            paged_rows.push(PagedMeasurement {
                mode,
                shards: shard_count,
                budget: paged_budget,
                fixes: fixes.len(),
                fixes_per_sec: rate,
                parity: true,
                faults: pstats.faults,
                idle_spin_downs: pstats.idle_spin_downs,
                drains: pstats.drains,
                parked_requests: pstats.parked_requests,
                catalog: catalog_delta(pstats.catalog, catalog_before),
                cold: LatencySummary::of(samples.iter().filter(|(c, _)| *c).map(|(_, l)| *l)),
                warm: LatencySummary::of(samples.iter().filter(|(c, _)| !*c).map(|(_, l)| *l)),
            });
        }
        resident.shutdown();
    }

    let mut out = String::new();
    out.push_str("SERVING: sharded micro-batching pipeline, fixes/sec end-to-end\n");
    out.push_str(&format!(
        "(hidden_dim={}, waps={}, clients={clients}, total_fixes={total_fixes}, \
         available_parallelism={available})\n\n",
        model_cfg.hidden_dim,
        campaign.num_waps()
    ));
    let mut table = TextTable::new(vec![
        "MODE".into(),
        "PRECISION".into(),
        "SHARDS".into(),
        "MAX_BATCH".into(),
        "BUDGET_US".into(),
        "FIXES/SEC".into(),
        "MEAN_BATCH".into(),
    ]);
    for m in &measurements {
        let mean_batch = if m.shard_stats.is_empty() {
            0.0
        } else {
            m.shard_stats
                .iter()
                .map(|(_, s)| s.mean_batch())
                .sum::<f64>()
                / m.shard_stats.len() as f64
        };
        table.add_row(vec![
            m.mode.to_uppercase(),
            m.precision.to_string(),
            m.shards.to_string(),
            m.max_batch.to_string(),
            m.budget_us.to_string(),
            format!("{:.0}", m.fixes_per_sec),
            format!("{mean_batch:.1}"),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nat {reference_shards} shard(s): batched (max_batch >= 64) = {speedup_at_reference:.2}x \
         single-request serving ({:.0} vs {:.0} fixes/sec)\n",
        speedup_at_reference * single_at_reference,
        single_at_reference,
    ));
    out.push_str(&format!(
        "precision gates: exact bit-identical across reps, f32 max delta \
         {f32_serving_delta:.2e} m (<= 1e-4), int8 match {i8_serving_matches:.3} (>= 0.9) \
         mean delta {i8_serving_mean:.3} m (<= 0.5)\n"
    ));
    if let Some(first) = paged_rows.first() {
        out.push_str(&format!(
            "\nDEMAND-PAGED (oversubscribed): {} shards under a budget of {} resident models, \
             answers bit-identical to the fully-resident server\n",
            first.shards, first.budget
        ));
        for row in &paged_rows {
            out.push_str(&format!(
                "  {:>13}: {:>7.0} fixes/sec | faults={} drains={} idle_spin_downs={} \
                 hydrations={} | cold p50/p99 = {}/{} us ({} fixes) | \
                 warm p50/p99 = {}/{} us ({} fixes)\n",
                row.mode,
                row.fixes_per_sec,
                row.faults,
                row.drains,
                row.idle_spin_downs,
                row.catalog.hydrations,
                row.cold.p50_us,
                row.cold.p99_us,
                row.cold.count,
                row.warm.p50_us,
                row.warm.p99_us,
                row.warm.count,
            ));
        }
    }

    let json = format!(
        "{{\n  \"available_parallelism\": {available},\n  \"hidden_dim\": {},\n  \
         \"num_waps\": {},\n  \"clients\": {clients},\n  \"total_fixes\": {total_fixes},\n  \
         \"reference_shards\": {reference_shards},\n  \
         \"speedup_batched_vs_single\": {speedup_at_reference:.3},\n  \
         \"precision_gates\": {{\"f32_max_position_delta\": {f32_serving_delta:.6e}, \
         \"int8_match_fraction\": {i8_serving_matches:.4}, \
         \"int8_mean_position_delta\": {i8_serving_mean:.4}}},\n  \
         \"measurements\": [\n{}\n  ],\n  \
         \"paged_budget\": {paged_budget},\n  \
         \"paged\": [\n{}\n  ]\n}}\n",
        model_cfg.hidden_dim,
        campaign.num_waps(),
        measurements
            .iter()
            .map(Measurement::json)
            .collect::<Vec<_>>()
            .join(",\n"),
        paged_rows
            .iter()
            .map(PagedMeasurement::json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = write_artifact("BENCH_serving.json", &json)?;
    out.push_str(&format!("wrote {}\n", path.display()));

    println!("{out}");
    Ok(out)
}
