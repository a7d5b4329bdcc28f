//! Set-up shared by the workloads: campaigns, trained shards, request
//! pools, the timed and repeated set-up, and the direct kernel probe.

use crate::report::{median, Metrics};
use crate::trace::Tracer;
use crate::Res;
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{hydrate, Localizer, ModelSnapshot, SnapshotLocalizer};
use noble_datasets::{uji_campaign, CampusConfig, UjiConfig, WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    partition_campaign, shard_seed, ShardKey, ShardPolicy, ShardStats, ShardedRegistry,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Training epochs of the full-scale shards. Inference cost depends on
/// the layer shapes (192 WAPs, hidden 128, ~520 outputs), not on how
/// long the weights trained, so a short schedule keeps set-up cheap.
pub const FULL_EPOCHS: usize = 2;

/// The full-scale campaign: 3 buildings x 4 floors x 16 WAPs = 192 WAPs.
pub fn full_campaign_config() -> UjiConfig {
    UjiConfig::default()
}

pub fn full_model_config() -> WifiNobleConfig {
    WifiNobleConfig {
        epochs: FULL_EPOCHS,
        patience: None,
        ..WifiNobleConfig::default()
    }
}

/// The quick-scale campaign: 3 buildings x 2 floors x 6 WAPs = 36 WAPs.
pub fn quick_campaign_config() -> UjiConfig {
    UjiConfig {
        references_per_floor: 25,
        samples_per_reference: 4,
        test_samples_per_floor: 30,
        waps_per_building_floor: 6,
        campus: CampusConfig {
            floors: 2,
            ..CampusConfig::default()
        },
        ..UjiConfig::default()
    }
}

pub fn quick_model_config() -> WifiNobleConfig {
    WifiNobleConfig {
        tau: 3.0,
        coarse_l: Some(12.0),
        hidden_dim: 128,
        epochs: 2,
        patience: None,
        ..WifiNobleConfig::default()
    }
}

/// Wall-clock split of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub campaign_s: f64,
    pub train_s: f64,
    pub snapshot_s: f64,
    pub start_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.campaign_s + self.train_s + self.snapshot_s + self.start_s
    }
}

/// Runs `build` [`SETUP_REPS`] times, tearing down all but the last
/// result, and returns it with the per-part medians and the median
/// total. The peak-RSS mark is reset afterwards, so `peak_rss_mb`
/// measures serving rather than training.
pub fn repeated_setup<T>(
    mut build: impl FnMut(&mut SetupTimes) -> Res<T>,
    mut teardown: impl FnMut(T),
) -> Res<(T, SetupTimes, f64)> {
    let mut all = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let mut times = SetupTimes::default();
        last = Some(build(&mut times)?);
        all.push(times);
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let summary = SetupTimes {
        campaign_s: pick(|t| t.campaign_s),
        train_s: pick(|t| t.train_s),
        snapshot_s: pick(|t| t.snapshot_s),
        start_s: pick(|t| t.start_s),
    };
    let total = pick(SetupTimes::total);
    crate::report::reset_peak_rss();
    Ok((last.expect("at least one set-up ran"), summary, total))
}

pub fn set_setup(m: &mut Metrics, t: &SetupTimes) {
    m.set("setup.campaign_s", t.campaign_s);
    m.set("setup.train_s", t.train_s);
    m.set("setup.snapshot_s", t.snapshot_s);
    m.set("setup.start_s", t.start_s);
}

/// Seconds spent in `f`, added to `slot`.
pub fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// Fingerprints a shard is queried with, and where they were taken.
#[derive(Debug, Clone)]
pub struct Pool {
    pub rows: Vec<Vec<f64>>,
    pub truth: Vec<Point>,
}

/// Held-out (validation + test) fingerprints of every building, keyed
/// by the building's per-building shard key.
pub fn building_pools(campaign: &WifiCampaign) -> BTreeMap<ShardKey, Pool> {
    let held_out: Vec<WifiSample> = campaign.test.iter().chain(&campaign.val).cloned().collect();
    let features = campaign.features(&held_out);
    let mut pools: BTreeMap<ShardKey, Pool> = BTreeMap::new();
    for (i, sample) in held_out.iter().enumerate() {
        let pool = pools
            .entry(ShardPolicy::PerBuilding.key_of(sample))
            .or_insert_with(|| Pool {
                rows: Vec::new(),
                truth: Vec::new(),
            });
        pool.rows.push(features.row(i).to_vec());
        pool.truth.push(sample.position);
    }
    pools
}

/// Trains one model per `(key, building)` pair on that building's
/// partition of `campaign`, with the per-key seed the catalog's lazy
/// training path would use; shards train concurrently.
pub fn train_shards(
    campaign: &WifiCampaign,
    cfg: &WifiNobleConfig,
    keys: &[(ShardKey, ShardKey)],
) -> Res<Vec<WifiNoble>> {
    let parts = partition_campaign(campaign, |s| ShardPolicy::PerBuilding.key_of(s), None);
    let threads = noble_linalg::num_threads().max(1);
    let chunks: Vec<&[(ShardKey, ShardKey)]> = keys.chunks(keys.len().div_ceil(threads)).collect();
    let trained: Vec<Res<Vec<WifiNoble>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let parts = &parts;
                scope.spawn(move || -> Res<Vec<WifiNoble>> {
                    chunk
                        .iter()
                        .map(|(key, building)| {
                            let part = parts.get(building).ok_or("building has no samples")?;
                            let mut shard_cfg = cfg.clone();
                            shard_cfg.seed = shard_seed(cfg.seed, *key);
                            Ok(WifiNoble::train(part, &shard_cfg)?)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("training thread panicked"))
            .collect()
    });
    let mut models = Vec::with_capacity(keys.len());
    for chunk in trained {
        models.extend(chunk?);
    }
    Ok(models)
}

/// Full-scale per-building shards: the models the resident servers
/// serve (hydrated from snapshots) and exact reference copies.
pub struct ResidentShards {
    pub campaign: WifiCampaign,
    pub keys: Vec<ShardKey>,
    pub pools: Vec<Pool>,
    /// Reference copy of each shard's model, in key order.
    pub models: Vec<WifiNoble>,
    /// The serving copies, until a server takes them.
    pub registry: Option<ShardedRegistry>,
}

/// Generates the full-scale campaign, trains one shard per building and
/// loads snapshot-hydrated twins into a registry for a server.
pub fn resident_shards(times: &mut SetupTimes) -> Res<ResidentShards> {
    let campaign = timed(&mut times.campaign_s, || {
        uji_campaign(&full_campaign_config())
    })?;
    let (keys, pools): (Vec<ShardKey>, Vec<Pool>) = building_pools(&campaign).into_iter().unzip();
    let pairs: Vec<(ShardKey, ShardKey)> = keys.iter().map(|k| (*k, *k)).collect();
    let models = timed(&mut times.train_s, || {
        train_shards(&campaign, &full_model_config(), &pairs)
    })?;
    let registry = timed(&mut times.snapshot_s, || -> Res<ShardedRegistry> {
        let mut registry = ShardedRegistry::new();
        for (key, model) in keys.iter().zip(&models) {
            registry.insert(*key, hydrate(&snapshot(model))?);
        }
        Ok(registry)
    })?;
    Ok(ResidentShards {
        campaign,
        keys,
        pools,
        models,
        registry: Some(registry),
    })
}

pub fn snapshot(model: &WifiNoble) -> ModelSnapshot {
    SnapshotLocalizer::snapshot(model)
}

/// Floating-point operations of one fix through the dense layers
/// (computed from layer shapes, not measured).
fn flops_per_fix(model: &WifiNoble) -> f64 {
    model
        .dense_shapes()
        .iter()
        .map(|(i, o)| 2.0 * (*i * *o) as f64)
        .sum()
}

/// Bytes of f64 weights and biases the dense layers read per batch
/// (computed from layer shapes, not measured).
fn weight_bytes(model: &WifiNoble) -> f64 {
    model
        .dense_shapes()
        .iter()
        .map(|(i, o)| ((*i * *o + *o) * 8) as f64)
        .sum()
}

/// Minimum wall time of each direct kernel measurement.
const KERNEL_PROBE_NS: u64 = 60_000_000;

/// Microseconds per fix of direct `localize_batch` calls on `model` in
/// batches of `batch` rows drawn in turn from `rows`.
fn kernel_us_per_fix(
    model: &mut dyn Localizer,
    rows: &[Vec<f64>],
    batch: usize,
    tracer: &mut Tracer,
    req: &mut u64,
) -> Res<f64> {
    let batch = batch.max(1);
    let batches: Vec<Matrix> = (0..rows.len().div_ceil(batch).max(1))
        .map(|b| {
            let chunk: Vec<Vec<f64>> = (0..batch)
                .map(|i| rows[(b * batch + i) % rows.len()].clone())
                .collect();
            Matrix::from_rows(&chunk)
        })
        .collect::<Result<_, _>>()?;
    let started = Instant::now();
    let mut fixes = 0usize;
    let mut i = 0;
    while fixes < batch * 8 || crate::trace::ns_since(started) < KERNEL_PROBE_NS {
        let m = &batches[i % batches.len()];
        *req += 1;
        let out = tracer.time(*req, "kernel.direct", None, || model.localize_batch(m))?;
        std::hint::black_box(out);
        fixes += batch;
        i += 1;
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / fixes as f64)
}

/// The `kernel.*` metrics: layer-shape figures of `model` and direct
/// calls on it at batch 1 and at the run's mean batch.
pub fn set_kernel(
    m: &mut Metrics,
    model: &mut WifiNoble,
    rows: &[Vec<f64>],
    mean_batch: f64,
    tracer: &mut Tracer,
    req: &mut u64,
) -> Res<()> {
    m.set("kernel.flops_per_fix", flops_per_fix(model));
    m.set("kernel.weight_bytes", weight_bytes(model));
    let first = *req + 1;
    m.set(
        "kernel.us_per_fix.b1",
        kernel_us_per_fix(model, rows, 1, tracer, req)?,
    );
    let batch = mean_batch.round() as usize;
    m.set(
        "kernel.us_per_fix.bmean",
        kernel_us_per_fix(model, rows, batch, tracer, req)?,
    );
    let spans = tracer.self_times_of(first..*req + 1);
    m.set(
        "self.kernel_us",
        spans
            .get("kernel.direct")
            .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / 1e3),
    );
    Ok(())
}

/// Fix-tier counters accumulated between two `stats()` snapshots,
/// summed over shards (`max_batch` is the largest seen by the second).
pub fn stats_delta(a: &[(ShardKey, ShardStats)], b: &[(ShardKey, ShardStats)]) -> ShardStats {
    let mut d = ShardStats::default();
    for ((_, x), (_, y)) in a.iter().zip(b) {
        d.requests += y.requests - x.requests;
        d.batches += y.batches - x.batches;
        d.errors += y.errors - x.errors;
        d.total_latency_us += y.total_latency_us - x.total_latency_us;
        d.busy_us += y.busy_us - x.busy_us;
        d.max_batch = d.max_batch.max(y.max_batch);
    }
    d
}

/// The `serve.*` metrics of fix-tier counters accumulated over
/// `wall_us` of `workers` shard workers.
pub fn set_serve(m: &mut Metrics, d: &ShardStats, wall_us: f64, workers: usize) {
    let busy_per_batch = d.busy_us as f64 / d.batches.max(1) as f64;
    m.set("serve.requests", d.requests as f64);
    m.set("serve.batches", d.batches as f64);
    m.set("serve.mean_batch", d.mean_batch());
    m.set("serve.max_batch", d.max_batch as f64);
    m.set("serve.errors", d.errors as f64);
    m.set("serve.queue_us", d.mean_latency_us() - busy_per_batch);
    m.set("serve.busy_us", busy_per_batch);
    m.set(
        "serve.busy_frac",
        d.busy_us as f64 / (wall_us * workers as f64).max(1.0),
    );
}

/// User plus system CPU time of this process in seconds, all threads
/// included, finished ones too. A VM's kernel books the time the host
/// stole from it as steal, not to the process, so contention on the
/// host moves this clock far less than it moves wall-clock time.
pub fn process_cpu_s() -> Res<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name is in parentheses and may hold spaces; after it,
    // utime and stime (fields 14 and 15 of the line) are at 11 and 12.
    let (_, rest) = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Res<f64> {
        Ok(fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()?)
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Clock ticks per second of `/proc` CPU times.
const USER_HZ: f64 = 100.0;

/// What every workload reports end to end.
#[derive(Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// Process CPU seconds spent over the measured phase, and the
    /// correct fixes completed in that time.
    pub cpu_s: f64,
    pub cpu_fixes: u64,
    pub attempted: u64,
    pub correct: u64,
    /// Summed distance of the correct fixes from ground truth.
    pub err_sum_m: f64,
    pub peak_rss_mb: f64,
}

pub fn set_end_to_end(m: &mut Metrics, e: &EndToEnd) {
    m.set("setup_s", e.setup_s);
    m.set("cpu_us_per_fix", e.cpu_s * 1e6 / e.cpu_fixes.max(1) as f64);
    m.set("ok_frac", e.correct as f64 / e.attempted.max(1) as f64);
    m.set("mean_err_m", e.err_sum_m / e.correct.max(1) as f64);
    m.set("peak_rss_mb", e.peak_rss_mb);
}

/// Exact bitwise equality of two fixes.
pub fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// Reference answers of `model` for every row of `pool`.
pub fn reference_answers(
    model: &mut dyn Localizer,
    pool: &Pool,
    tracer: &mut Tracer,
    req: &mut u64,
) -> Res<Vec<Point>> {
    let m = Matrix::from_rows(&pool.rows)?;
    *req += 1;
    Ok(tracer.time(*req, "kernel.reference", None, || model.localize_batch(&m))?)
}

/// The run's provenance line. The revision is read from `./.git` only,
/// so a checkout that is not a repository reports `unknown` rather
/// than the revision of some enclosing one.
pub fn stamp(workload: &str, seed: u64, traced: bool, sizes: &str) -> String {
    let rev = std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# stamp: rev={rev} available_parallelism={parallelism} malloc_arenas={parallelism} \
         profile={profile} workload={workload} seed={seed} trace={} {sizes}",
        u8::from(traced)
    )
}
