//! Online refresh under fingerprint drift: does live retraining buy
//! accuracy back, and what does the swap cost the serving path?
//!
//! Production WiFi maps drift — APs are moved, re-tuned, obstructed —
//! and a frozen model's error grows. The serving stack's answer is the
//! versioned refresh loop ([`noble_serve::Refresher`]): corrections
//! stream into a bounded buffer, a retrain runs off the serving path,
//! and the new version swaps in atomically at a batch boundary. This
//! runner measures the whole loop on one shard:
//!
//! - **accuracy vs drift** — a deterministic per-WAP RSSI bias is
//!   injected into the online fingerprints; the frozen (version 0)
//!   model and the refreshed (version 1) model are both evaluated on
//!   the drifted and the clean held-out splits. Gate: the refreshed
//!   model must beat the frozen model on drifted traffic.
//! - **swap cost** — the off-path retrain+activate time, plus the
//!   *pickup* time from activation until the hot worker demonstrably
//!   serves the new version (its canary answer flips).
//! - **serving p99 during refresh** — client threads hammer the shard
//!   throughout the concurrent retrain; the p99 must stay bounded
//!   (gate: < 250 ms), because refresh runs entirely off-path and the
//!   swap itself is one pending-slot pickup at a batch boundary.
//! - **rollback parity** — rolling back to version 0 must reproduce the
//!   frozen canary answer bit-for-bit.
//!
//! Results go to stdout and `results/BENCH_refresh.json`.
//! [`Scale::Quick`] shrinks the workload for CI smoke runs.

use crate::config::uji_config;
use crate::latency::LatencySummary;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::report::TextTable;
use noble::wifi::WifiNobleConfig;
use noble_datasets::{uji_campaign, WifiCampaign, WifiSample};
use noble_serve::{
    partition_campaign, BatchConfig, BatchServer, CatalogBudget, ModelCatalog, RefreshConfig,
    Refresher, RegistryConfig, ServeClient, ShardKey, ShardPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Deterministic per-WAP drift bias in dB (SplitMix64-style hash of the
/// WAP index), in `[-drift_db, drift_db)`. No RNG state: the same WAP
/// always drifts the same way, so every phase sees the identical world.
fn wap_bias(wap: usize, drift_db: f64) -> f64 {
    let mut z = (wap as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    (unit * 2.0 - 1.0) * drift_db
}

/// Applies the drift field to a sample's raw RSSI.
fn drifted(sample: &WifiSample, drift_db: f64) -> WifiSample {
    let mut s = sample.clone();
    for (w, v) in s.rssi.iter_mut().enumerate() {
        *v += wap_bias(w, drift_db);
    }
    s
}

/// Mean position error of serving `samples` (featurized by `campaign`)
/// through the live server.
fn mean_error(
    client: &ServeClient,
    campaign: &WifiCampaign,
    key: ShardKey,
    samples: &[WifiSample],
) -> Result<f64, Box<dyn std::error::Error>> {
    let features = campaign.features(samples);
    let mut total = 0.0;
    for (i, sample) in samples.iter().enumerate() {
        let fix = client.localize(key, features.row(i).to_vec())?;
        total += fix.distance(sample.position);
    }
    Ok(total / samples.len().max(1) as f64)
}

/// Hammers `key` with rotating probes until `stop` is set, recording
/// per-request end-to-end latencies.
fn hammer(
    client: &ServeClient,
    key: ShardKey,
    probes: &[Vec<f64>],
    stop: &AtomicBool,
) -> Vec<u128> {
    let mut latencies = Vec::new();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        if client
            .localize(key, probes[i % probes.len()].clone())
            .is_err()
        {
            break;
        }
        latencies.push(t0.elapsed().as_micros());
        i += 1;
    }
    latencies
}

/// Runs the drift/refresh sweep and writes `results/BENCH_refresh.json`.
///
/// # Errors
///
/// Propagates dataset, training, serving and artifact-I/O failures, and
/// aborts when a gate fails: refreshed accuracy must beat the frozen
/// model under drift, the swap must be picked up promptly, serving p99
/// must stay bounded during the concurrent retrain, and rollback must
/// be bit-exact.
pub fn run(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let model_cfg = WifiNobleConfig {
        epochs: if scale == Scale::Quick { 2 } else { 6 },
        patience: None,
        ..WifiNobleConfig::small()
    };
    let reg_cfg = RegistryConfig::default();
    let drift_db = 5.0;
    let (eval_n, correction_n, clients) = match scale {
        Scale::Quick => (40, 120, 2),
        Scale::Full => (150, 400, 4),
    };

    // One refreshed shard; the partition mirrors the registry policy so
    // the shard's own splits drive both corrections and evaluation.
    let parts = partition_campaign(
        &campaign,
        |s| ShardPolicy::PerBuilding.key_of(s),
        reg_cfg.max_train_samples_per_shard,
    );
    let (key, shard) = parts.iter().next().ok_or("campaign produced no shards")?;
    let key = *key;

    let clean_eval: Vec<WifiSample> = shard.test.iter().take(eval_n).cloned().collect();
    let drifted_eval: Vec<WifiSample> = clean_eval.iter().map(|s| drifted(s, drift_db)).collect();
    // Corrections: a surveyor re-walking the reference points in the
    // drifted world — drifted fingerprints with surveyed true positions.
    let corrections: Vec<WifiSample> = shard
        .train
        .iter()
        .take(correction_n)
        .map(|s| drifted(s, drift_db))
        .collect();
    if clean_eval.is_empty() || corrections.is_empty() {
        return Err("shard has no evaluation or correction samples".into());
    }

    let mut catalog = ModelCatalog::new(CatalogBudget::Unbounded)?;
    catalog.register_wifi_campaign(&campaign, &model_cfg, &reg_cfg)?;
    let server = BatchServer::start_paged(
        catalog,
        BatchConfig {
            max_batch: 16,
            latency_budget: Duration::from_micros(200),
            ..BatchConfig::default()
        },
    )?;
    let refresher: Refresher = server.refresher(RefreshConfig::default())?;
    let client = server.client();

    // --- Frozen model (version 0) under drift. ---
    let frozen_clean = mean_error(&client, &campaign, key, &clean_eval)?;
    let frozen_drifted = mean_error(&client, &campaign, key, &drifted_eval)?;
    let canary = campaign.features(&drifted_eval[..1]).row(0).to_vec();
    let canary_v0 = client.localize(key, canary.clone())?;

    // --- Baseline serving latency (no refresh in flight). ---
    let storm_probes: Vec<Vec<f64>> = {
        let features = campaign.features(&drifted_eval);
        (0..drifted_eval.len())
            .map(|i| features.row(i).to_vec())
            .collect()
    };
    let baseline = {
        let stop = AtomicBool::new(false);
        let lat: Vec<Vec<u128>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let c = server.client();
                    let (probes, stop) = (&storm_probes, &stop);
                    scope.spawn(move || hammer(&c, key, probes, stop))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(if scale == Scale::Quick {
                150
            } else {
                600
            }));
            stop.store(true, Ordering::Relaxed);
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        LatencySummary::of(lat.into_iter().flatten())
    };

    // --- Concurrent refresh: retrain + activate while clients hammer. -
    for s in &corrections {
        refresher.observe_correction(key, s.rssi.clone(), s.position)?;
    }
    let stop = AtomicBool::new(false);
    let mut refresh_ms = 0.0;
    let mut swap_pickup_us: u128 = 0;
    let mut outcome_version = 0;
    let lat: Vec<Vec<u128>> = std::thread::scope(
        |scope| -> Result<Vec<Vec<u128>>, Box<dyn std::error::Error>> {
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let c = server.client();
                    let (probes, stop) = (&storm_probes, &stop);
                    scope.spawn(move || hammer(&c, key, probes, stop))
                })
                .collect();
            let t0 = Instant::now();
            let outcome = refresher.refresh(key)?;
            refresh_ms = t0.elapsed().as_secs_f64() * 1e3;
            outcome_version = outcome.version;
            // Pickup: poll the canary until the hot worker's answer
            // flips to the new generation (swap at a batch boundary).
            let t0 = Instant::now();
            loop {
                if client.localize(key, canary.clone())? != canary_v0 {
                    swap_pickup_us = t0.elapsed().as_micros();
                    break;
                }
                if t0.elapsed() > Duration::from_secs(5) {
                    return Err("swap not picked up within 5 s (gate)".into());
                }
            }
            stop.store(true, Ordering::Relaxed);
            Ok(workers
                .into_iter()
                .map(|w| w.join().expect("hammer thread"))
                .collect())
        },
    )?;
    let during = LatencySummary::of(lat.into_iter().flatten());

    // --- Refreshed model (version 1) under the same drift. ---
    let refreshed_clean = mean_error(&client, &campaign, key, &clean_eval)?;
    let refreshed_drifted = mean_error(&client, &campaign, key, &drifted_eval)?;

    // --- Rollback parity: version 0's canary answer, bit-for-bit. ---
    refresher.rollback(key, 0)?;
    let rolled = client.localize(key, canary.clone())?;
    if rolled != canary_v0 {
        return Err(format!(
            "rollback broke bit-parity: canary {rolled} != frozen {canary_v0} (gate)"
        )
        .into());
    }
    refresher.rollback(key, outcome_version)?;
    let versions = refresher.versions(key)?;

    // --- Gates. ---
    if refreshed_drifted >= frozen_drifted {
        return Err(format!(
            "refresh did not recover drift accuracy: refreshed {refreshed_drifted:.2} m \
             >= frozen {frozen_drifted:.2} m (gate)"
        )
        .into());
    }
    if during.p99_us > 250_000 {
        return Err(format!(
            "serving p99 during refresh {} us exceeds the 250 ms gate",
            during.p99_us
        )
        .into());
    }

    // --- Report. ---
    let mut out = String::new();
    out.push_str("ONLINE REFRESH: accuracy under drift, swap cost, serving impact\n");
    out.push_str(&format!(
        "(shard={key}, drift={drift_db} dB, corrections={}, eval={}, clients={clients})\n\n",
        corrections.len(),
        clean_eval.len()
    ));
    let mut table = TextTable::new(vec![
        "MODEL".into(),
        "VERSION".into(),
        "CLEAN_ERR_M".into(),
        "DRIFTED_ERR_M".into(),
    ]);
    table.add_row(vec![
        "frozen".into(),
        "0".into(),
        format!("{frozen_clean:.2}"),
        format!("{frozen_drifted:.2}"),
    ]);
    table.add_row(vec![
        "refreshed".into(),
        outcome_version.to_string(),
        format!("{refreshed_clean:.2}"),
        format!("{refreshed_drifted:.2}"),
    ]);
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "refresh (off-path retrain+activate): {refresh_ms:.1} ms; \
         swap pickup at batch boundary: {swap_pickup_us} us\n"
    ));
    out.push_str(&format!(
        "serving p99: baseline {} us -> during refresh {} us (gate < 250000)\n",
        baseline.p99_us, during.p99_us
    ));
    out.push_str(&format!("archived versions: {versions:?}\n"));
    println!("{out}");

    let json = format!(
        "{{\n  \"experiment\": \"refresh\",\n  \"shard\": \"{key}\",\n  \
         \"drift_db\": {drift_db},\n  \"corrections\": {},\n  \"eval_samples\": {},\n  \
         \"accuracy\": [\n    {{\"phase\": \"frozen\", \"version\": 0, \
         \"clean_err_m\": {frozen_clean:.4}, \"drifted_err_m\": {frozen_drifted:.4}}},\n    \
         {{\"phase\": \"refreshed\", \"version\": {outcome_version}, \
         \"clean_err_m\": {refreshed_clean:.4}, \"drifted_err_m\": {refreshed_drifted:.4}}}\n  ],\n  \
         \"refresh\": {{\"train_activate_ms\": {refresh_ms:.2}, \
         \"swap_pickup_us\": {swap_pickup_us}, \"archived_versions\": {versions:?}, \
         \"refresh_swaps\": {}}},\n  \
         \"latency\": {{\"baseline\": {}, \"during_refresh\": {}}}\n}}\n",
        corrections.len(),
        clean_eval.len(),
        server.paged_stats().map_or(0, |p| p.refresh_swaps),
        baseline.json(),
        during.json()
    );
    write_artifact("BENCH_refresh.json", &json)?;
    server.shutdown();
    Ok(out)
}
