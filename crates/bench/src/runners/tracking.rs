//! Tracking-session capacity: the stateful per-device layer under load.
//!
//! `exp_serving` measures stateless fixes/second; this runner measures
//! the session tier above it — `noble_serve::TrackingServer` holding one
//! live session (trajectory smoother, bounded track buffer, zone
//! hysteresis detector) per synthetic device, with the fix tier
//! demand-paged under a small catalog budget. The drive is the
//! ROADMAP's "millions of users" shape scaled to one process:
//!
//! 1. **ramp** — every device submits a first observation, creating its
//!    session (the concurrent-session high-water mark: 10^5 devices at
//!    full scale, 10^3 under [`Scale::Quick`]);
//! 2. **steady** — more observation rounds over all devices, smoothing
//!    tracks and committing zone events;
//! 3. **churn** — a quarter of the devices go silent; between the
//!    remaining rounds, away-timeout sweeps close their zone
//!    memberships (`Left`) and then evict them.
//!
//! Reported (stdout + `results/BENCH_tracking.json`): session-observation
//! updates/second, the live-session peak, approximate bytes/session, and
//! event-detection latency percentiles (end-to-end submit latency of the
//! observations that committed at least one zone event).

use crate::config::uji_config;
use crate::latency::LatencySummary;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::wifi::tracking::SmootherConfig;
use noble::wifi::WifiNobleConfig;
use noble_datasets::uji_campaign;
use noble_geo::ZoneSet;
use noble_serve::{
    BatchConfig, CatalogBudget, DeviceId, MemStore, ModelCatalog, RegistryConfig, ShardKey,
    ShardPolicy, ShardedRegistry, TrackingServer,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Devices that stop observing when the churn phase begins.
fn is_dropout(device: DeviceId) -> bool {
    device.is_multiple_of(4)
}

/// Runs the session-capacity drive and writes
/// `results/BENCH_tracking.json`.
///
/// # Errors
///
/// Propagates dataset, training, serving and artifact-I/O failures.
pub fn run(scale: Scale) -> RunnerResult {
    // The fix tier is not what is under test: train briefly on the quick
    // campaign and spend the run's budget on session volume.
    let campaign = uji_campaign(&uji_config(Scale::Quick))?;
    let model_cfg = WifiNobleConfig {
        epochs: 2,
        patience: None,
        ..WifiNobleConfig::small()
    };
    let (devices, steady_rounds, churn_rounds, clients) = match scale {
        Scale::Quick => (1_000u64, 2usize, 2usize, 4usize),
        Scale::Full => (100_000, 2, 2, 8),
    };

    let registry = ShardedRegistry::train_wifi(
        &campaign,
        &model_cfg,
        &RegistryConfig {
            policy: ShardPolicy::PerBuilding,
            max_train_samples_per_shard: None,
            parallel_training: true,
        },
    )?;
    let keys = registry.keys();

    // Per-shard observation rows (each device cycles the rows of the
    // building it is pinned to, so consecutive fixes move its track).
    let features = campaign.features(&campaign.test);
    let mut rows_by_key: BTreeMap<ShardKey, Vec<Vec<f64>>> = BTreeMap::new();
    for (i, sample) in campaign.test.iter().enumerate() {
        rows_by_key
            .entry(ShardPolicy::PerBuilding.key_of(sample))
            .or_default()
            .push(features.row(i).to_vec());
    }

    // Demand-paged fix tier: models fault in from the store on each
    // shard's first observation. The budget covers every building —
    // paging *pressure* is exp_serving's subject; here the fix tier just
    // needs to stay off the session layer's critical path.
    let store = MemStore::new();
    ModelCatalog::from(registry).export_to(&store)?;
    let catalog =
        ModelCatalog::with_store(CatalogBudget::Count(keys.len().max(2)), Box::new(store))?;
    // Zero coalescing budget: session clients are synchronous (one
    // observation in flight per device), so holding batches open for
    // riders would just add latency — drain-the-backlog batching wins.
    let cfg = BatchConfig {
        latency_budget: std::time::Duration::ZERO,
        session_shards: 64,
        stability_k: 2,
        away_timeout: Some(1),
        ..BatchConfig::default()
    };
    let server = TrackingServer::start(
        catalog,
        ZoneSet::building_grid(&campaign.map, 2, 2)?,
        Some(campaign.map.clone()),
        SmootherConfig::default(),
        cfg,
    )?;

    // The drive: rounds of one observation per live device, from
    // `clients` threads (devices striped across threads, so per-device
    // submission order is each thread's program order). Logical time is
    // the round index; sweeps run between churn rounds.
    let total_rounds = steady_rounds + churn_rounds;
    let mut event_latencies: Vec<u128> = Vec::new();
    let mut observations = 0u64;
    let mut sweep_events = 0usize;
    let mut live_peak = 0usize;
    let started = Instant::now();
    for round in 0..total_rounds {
        let churn = round >= steady_rounds;
        let at = round as u64;
        let mut collected: Vec<(u64, Vec<u128>)> = Vec::new();
        std::thread::scope(|s| -> Result<(), noble_serve::ServeError> {
            let mut handles = Vec::new();
            for c in 0..clients {
                let client = server.client();
                let keys = &keys;
                let rows_by_key = &rows_by_key;
                handles.push(s.spawn(
                    move || -> Result<(u64, Vec<u128>), noble_serve::ServeError> {
                        let mut latencies = Vec::new();
                        let mut submitted = 0u64;
                        let mut device = c as u64;
                        while device < devices {
                            if !(churn && is_dropout(device)) {
                                let key = keys[device as usize % keys.len()];
                                let rows = &rows_by_key[&key];
                                let row = rows[(device as usize + round) % rows.len()].clone();
                                let begun = Instant::now();
                                let (_, events) = client.submit(device, key, at, row)?;
                                if !events.is_empty() {
                                    latencies.push(begun.elapsed().as_micros());
                                }
                                submitted += 1;
                            }
                            device += clients as u64;
                        }
                        Ok((submitted, latencies))
                    },
                ));
            }
            for h in handles {
                collected.push(h.join().expect("client thread")?);
            }
            Ok(())
        })?;
        for (submitted, latencies) in collected {
            observations += submitted;
            event_latencies.extend(latencies);
        }
        live_peak = live_peak.max(server.session_stats().live);
        if churn {
            // Off the serving path: close memberships of devices silent
            // past the away timeout, then (next sweep) evict them.
            sweep_events += server.sweep(at + 1).len();
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let sessions_per_sec = observations as f64 / elapsed;
    let event_latency = LatencySummary::of(event_latencies);

    let stats = server.session_stats();
    let paged = server.paged_stats().expect("paged fix tier");
    if stats.created != devices {
        return Err(format!("expected {devices} sessions, created {}", stats.created).into());
    }
    if live_peak < devices as usize {
        return Err(format!("live peak {live_peak} below {devices} concurrent sessions").into());
    }

    let mut out = String::new();
    out.push_str("TRACKING: stateful per-device sessions over the demand-paged fix tier\n");
    out.push_str(&format!(
        "(devices={devices}, rounds={total_rounds}, clients={clients}, \
         session_shards={}, stability_k={}, away_timeout={:?})\n\n",
        cfg.session_shards, cfg.stability_k, cfg.away_timeout
    ));
    out.push_str(&format!(
        "  {observations} session observations in {elapsed:.2}s = {sessions_per_sec:.0} updates/sec\n"
    ));
    out.push_str(&format!(
        "  live peak {live_peak} concurrent sessions at ~{} bytes/session \
         (~{:.1} MiB resident session state)\n",
        stats.approx_session_bytes,
        (live_peak * stats.approx_session_bytes) as f64 / (1024.0 * 1024.0)
    ));
    out.push_str(&format!(
        "  zone events: {} entered, {} left ({} from sweeps); {} sessions evicted, {} still live\n",
        stats.entered, stats.left, sweep_events, stats.evicted, stats.live
    ));
    out.push_str(&format!(
        "  event-detection latency p50/p99/max = {}/{}/{} us over {} event-bearing fixes\n",
        event_latency.p50_us, event_latency.p99_us, event_latency.max_us, event_latency.count
    ));
    out.push_str(&format!(
        "  fix tier: {} faults, {} drains, {} parked requests under the paged budget\n",
        paged.faults, paged.drains, paged.parked_requests
    ));

    let json = format!(
        "{{\n  \"devices\": {devices},\n  \"rounds\": {total_rounds},\n  \
         \"clients\": {clients},\n  \"session_shards\": {},\n  \
         \"stability_k\": {},\n  \"away_timeout\": 1,\n  \
         \"observations\": {observations},\n  \"elapsed_s\": {elapsed:.3},\n  \
         \"sessions_per_sec\": {sessions_per_sec:.1},\n  \"live_peak\": {live_peak},\n  \
         \"bytes_per_session\": {},\n  \"event_latency\": {},\n  \
         \"events\": {{\"entered\": {}, \"left\": {}, \"sweep_left\": {sweep_events}}},\n  \
         \"sessions\": {{\"created\": {}, \"evicted\": {}, \"live\": {}}},\n  \
         \"paged\": {{\"faults\": {}, \"drains\": {}, \"idle_spin_downs\": {}, \
         \"parked_requests\": {}}}\n}}\n",
        cfg.session_shards,
        cfg.stability_k,
        stats.approx_session_bytes,
        event_latency.json(),
        stats.entered,
        stats.left,
        stats.created,
        stats.evicted,
        stats.live,
        paged.faults,
        paged.drains,
        paged.idle_spin_downs,
        paged.parked_requests,
    );
    let path = write_artifact("BENCH_tracking.json", &json)?;
    out.push_str(&format!("wrote {}\n", path.display()));

    println!("{out}");
    Ok(out)
}
