//! `paged-refresh`: a closed loop in process into a demand-paged
//! `BatchServer` over a `MemStore`-backed `ModelCatalog` that holds more
//! shards than its budget keeps resident, while a refresher thread feeds
//! corrections and retrains the hottest shard a fixed number of times.

use crate::closed::{self, Fix, Wall};
use crate::fixtures::{
    building_pools, process_cpu_s, quick_campaign_config, quick_model_config, reference_answers,
    repeated_setup, same_bits, set_end_to_end, set_kernel, set_serve, set_setup, snapshot, stamp,
    stats_delta, timed, train_shards, EndToEnd, Pool, SetupTimes,
};
use crate::report::{describe, median, percentile, Metrics};
use crate::schedule::{draw, harmonic_cdf, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, Res};
use noble::wifi::WifiNoble;
use noble::{hydrate, ModelSnapshot};
use noble_datasets::{uji_campaign, WifiCampaign};
use noble_geo::Point;
use noble_serve::{
    partition_campaign, BatchConfig, BatchServer, CatalogBudget, MemStore, ModelCatalog,
    ModelStore, PagedStats, RefreshConfig, Refresher, ServeError, ShardKey, ShardPolicy,
    ShardStats, TrainSpec,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards served; shard `i` is a replica of building `i % 3` with its
/// own seed, so every shard holds a distinct model.
const SHARDS: usize = 16;
/// Models the catalog keeps resident.
const BUDGET: usize = 4;
const WINDOW: usize = 16;
const REFRESH_CYCLES: usize = 4;
const CORRECTIONS_PER_CYCLE: usize = 24;
const WARMUP: Duration = Duration::from_millis(300);

fn serve_config() -> BatchConfig {
    BatchConfig {
        max_batch: 64,
        latency_budget: Duration::ZERO,
        ..BatchConfig::default()
    }
}

/// A store handle the benchmark keeps after the catalog takes its own,
/// so archived versions can be read back for the correctness check.
struct SharedStore(Arc<MemStore>);

impl ModelStore for SharedStore {
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        self.0.put(key, snapshot)
    }
    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
        self.0.get(key)
    }
    fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
        self.0.list()
    }
    fn evict(&self, key: ShardKey) -> Result<bool, ServeError> {
        self.0.evict(key)
    }
    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError> {
        self.0.put_version(key, version, snapshot)
    }
    fn get_version(
        &self,
        key: ShardKey,
        version: u64,
    ) -> Result<Option<ModelSnapshot>, ServeError> {
        self.0.get_version(key, version)
    }
    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.0.versions(key)
    }
}

struct Stack {
    campaign: WifiCampaign,
    keys: Vec<ShardKey>,
    /// Held-out fingerprints per building (shard `i` uses `i % 3`).
    pools: Vec<Pool>,
    store: Arc<MemStore>,
    /// Reference copy of the hottest shard's offline model.
    hot_model: WifiNoble,
    server: BatchServer,
    refresher: Refresher,
}

fn start(times: &mut SetupTimes) -> Res<Stack> {
    let campaign = timed(&mut times.campaign_s, || {
        uji_campaign(&quick_campaign_config())
    })?;
    let (buildings, pools): (Vec<ShardKey>, Vec<Pool>) =
        building_pools(&campaign).into_iter().unzip();
    let keys: Vec<ShardKey> = (0..SHARDS).map(ShardKey::building).collect();
    let pairs: Vec<(ShardKey, ShardKey)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (*k, buildings[i % buildings.len()]))
        .collect();
    let cfg = quick_model_config();
    let mut models = timed(&mut times.train_s, || train_shards(&campaign, &cfg, &pairs))?;
    let store = Arc::new(MemStore::new());
    let catalog = timed(&mut times.snapshot_s, || -> Res<ModelCatalog> {
        for (key, model) in keys.iter().zip(&models) {
            store.put(*key, &snapshot(model))?;
        }
        let mut catalog = ModelCatalog::with_store(
            CatalogBudget::Count(BUDGET),
            Box::new(SharedStore(Arc::clone(&store))),
        )?;
        let parts = partition_campaign(&campaign, |s| ShardPolicy::PerBuilding.key_of(s), None);
        for (key, building) in &pairs {
            catalog.register_spec(
                *key,
                TrainSpec::Wifi {
                    campaign: parts[building].clone(),
                    cfg: cfg.clone(),
                },
            );
        }
        Ok(catalog)
    })?;
    let (server, refresher) = timed(&mut times.start_s, || -> Res<_> {
        let server = BatchServer::start_paged(catalog, serve_config())?;
        let refresher = server.refresher(RefreshConfig::default())?;
        Ok((server, refresher))
    })?;
    Ok(Stack {
        campaign,
        keys,
        pools,
        store,
        hot_model: models.swap_remove(0),
        server,
        refresher,
    })
}

/// One refresh cycle.
struct Cycle {
    start_ns: u64,
    end_ns: u64,
    corrections_used: usize,
}

struct Pass {
    fixes: Vec<Fix>,
    cycles: Vec<Cycle>,
    start_ns: u64,
    end_ns: u64,
    before: (PagedStats, Vec<(ShardKey, ShardStats)>),
    after: (PagedStats, Vec<(ShardKey, ShardStats)>),
    /// Process CPU time from the phase's start until both threads
    /// stopped.
    cpu_s: f64,
}

fn pass(stack: &Stack, seed: u64, stream: u64, seconds: f64, tracer: &mut Tracer) -> Res<Pass> {
    let start_ns = tracer.now() + WARMUP.as_nanos() as u64;
    let deadline_ns = start_ns + (seconds * 1e9) as u64;
    let cdf = harmonic_cdf(SHARDS);
    let snap = || -> Res<(PagedStats, Vec<(ShardKey, ShardStats)>)> {
        Ok((
            stack.server.paged_stats().ok_or("server is not paged")?,
            stack.server.stats(),
        ))
    };
    let (fixes, refreshed, before, cpu_s) = std::thread::scope(|scope| -> Res<_> {
        let client_thread = {
            let client = stack.server.client();
            let mut t = tracer.fork();
            let (cdf, keys, pools) = (&cdf, &stack.keys, &stack.pools);
            scope.spawn(move || {
                let mut rng = Rng::new(seed, stream * 16);
                let pick = || {
                    let shard = draw(&mut rng, cdf);
                    (shard, rng.below(pools[shard % pools.len()].rows.len()))
                };
                let mut out = Vec::new();
                let first_window = ((stream * 16) << 40) + 1;
                closed::run(
                    &client,
                    keys,
                    pools,
                    WINDOW,
                    deadline_ns,
                    &mut t,
                    first_window,
                    pick,
                    |f| out.push(f),
                );
                (out, t)
            })
        };
        let refresh_thread = {
            let mut t = tracer.fork();
            let campaign = &stack.campaign;
            let refresher = &stack.refresher;
            let hot = stack.keys[0];
            scope.spawn(move || -> Res<(Vec<Cycle>, Tracer)> {
                let mut rng = Rng::new(seed, stream * 16 + 1);
                let candidates: Vec<_> = campaign
                    .train
                    .iter()
                    .filter(|s| ShardPolicy::PerBuilding.key_of(s) == hot)
                    .collect();
                let mut cycles = Vec::with_capacity(REFRESH_CYCLES);
                for c in 0..REFRESH_CYCLES {
                    let due = start_ns
                        + ((c as f64 + 0.5) / REFRESH_CYCLES as f64 * seconds * 1e9) as u64;
                    let now = t.now();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let id = ((stream * 16 + 1) << 40) + c as u64;
                    let c0 = t.now();
                    for _ in 0..CORRECTIONS_PER_CYCLE {
                        let s = candidates[rng.below(candidates.len())];
                        refresher.observe_correction(hot, s.rssi.clone(), s.position)?;
                    }
                    let c1 = t.now();
                    let outcome = refresher.refresh(hot)?;
                    let c2 = t.now();
                    t.record(id, "refresh.cycle", None, c0, c2);
                    t.record(id, "refresh.observe", Some("refresh.cycle"), c0, c1);
                    cycles.push(Cycle {
                        start_ns: c0,
                        end_ns: c2,
                        corrections_used: outcome.corrections_used,
                    });
                }
                Ok((cycles, t))
            })
        };
        let now = tracer.now();
        if start_ns > now {
            std::thread::sleep(Duration::from_nanos(start_ns - now));
        }
        let before = snap()?;
        let cpu0 = process_cpu_s()?;
        let (fixes, client_trace) = client_thread.join().expect("client thread panicked");
        let refreshed = refresh_thread.join().expect("refresher thread panicked");
        let cpu_s = process_cpu_s()? - cpu0;
        tracer.merge(client_trace);
        Ok((fixes, refreshed, before, cpu_s))
    })?;
    let (cycles, refresh_trace) = refreshed?;
    tracer.merge(refresh_trace);
    Ok(Pass {
        fixes,
        cycles,
        start_ns,
        end_ns: deadline_ns,
        before,
        after: snap()?,
        cpu_s,
    })
}

/// Every version of every shard the store holds: the active slot plus
/// each archived version, as reference answers over the shard's pool.
fn version_answers(stack: &Stack, tracer: &mut Tracer, req: &mut u64) -> Res<Vec<Vec<Vec<Point>>>> {
    stack
        .keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let pool = &stack.pools[i % stack.pools.len()];
            let mut snapshots: Vec<ModelSnapshot> = stack.store.get(*key)?.into_iter().collect();
            for v in stack.store.versions(*key)? {
                snapshots.extend(stack.store.get_version(*key, v)?);
            }
            snapshots
                .iter()
                .map(|s| -> Res<Vec<Point>> {
                    let mut model = hydrate(s)?;
                    reference_answers(model.as_mut(), pool, tracer, req)
                })
                .collect()
        })
        .collect()
}

struct Summary {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    correct: u64,
    /// Correct fixes completed once the measured phase began, when the
    /// CPU clock was read.
    cpu_fixes: u64,
    wall: Wall,
    cold_ns: Vec<u64>,
    during_refresh_ns: Vec<u64>,
    err_sum_m: f64,
}

fn summarize(p: &Pass, versions: &[Vec<Vec<Point>>], stack: &Stack) -> Summary {
    let (mut failed, mut mismatches, mut correct, mut cpu_fixes) = (0, 0, 0, 0);
    let mut err_sum_m = 0.0;
    let (mut cold_ns, mut during_refresh_ns) = (Vec::new(), Vec::new());
    let mut timed = Vec::with_capacity(p.fixes.len());
    for f in &p.fixes {
        let Some(a) = f.answer else {
            failed += 1;
            continue;
        };
        if !versions[f.shard].iter().any(|v| same_bits(a, v[f.row])) {
            mismatches += 1;
            failed += 1;
            continue;
        }
        correct += 1;
        err_sum_m += a.distance(stack.pools[f.shard % stack.pools.len()].truth[f.row]);
        if f.done_ns >= p.start_ns {
            cpu_fixes += 1;
        }
        if !(p.start_ns..p.end_ns).contains(&f.done_ns) {
            continue;
        }
        let lat = f.done_ns - f.submit_ns;
        timed.push((f.done_ns, lat));
        if f.cold {
            cold_ns.push(lat);
        }
        if p.cycles
            .iter()
            .any(|c| f.submit_ns < c.end_ns && f.done_ns > c.start_ns)
        {
            during_refresh_ns.push(lat);
        }
    }
    cold_ns.sort_unstable();
    during_refresh_ns.sort_unstable();
    Summary {
        attempted: p.fixes.len() as u64,
        failed,
        mismatches,
        correct,
        cpu_fixes,
        wall: closed::wall(&timed, p.start_ns, p.end_ns),
        cold_ns,
        during_refresh_ns,
        err_sum_m,
    }
}

pub fn run(args: &Args) -> Res<Outcome> {
    let (mut stack, setup, setup_s) = repeated_setup(start, |s: Stack| {
        s.server.shutdown();
    })?;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    println!(
        "{}",
        stamp(
            &args.workload,
            args.seed,
            args.trace,
            &format!(
                "waps={} hidden={} shards={SHARDS} budget=count:{BUDGET} popularity=1/(rank+1) \
                 clients=1 window={WINDOW} refresh_cycles={REFRESH_CYCLES} \
                 corrections_per_cycle={CORRECTIONS_PER_CYCLE}",
                stack.campaign.num_waps(),
                quick_model_config().hidden_dim,
            )
        )
    );

    let untraced = if args.trace {
        let mut off = Tracer::new(false, Instant::now());
        Some(pass(&stack, args.seed, 2, args.seconds / 3.0, &mut off)?)
    } else {
        None
    };
    let p = pass(&stack, args.seed, 1, args.seconds, &mut tracer)?;
    let peak_rss_mb = crate::report::peak_rss_mb();
    let mut req = 1u64 << 56;
    let versions = version_answers(&stack, &mut tracer, &mut req)?;
    let s = summarize(&p, &versions, &stack);
    let untraced = untraced.map(|u| summarize(&u, &versions, &stack));
    println!(
        "{}",
        describe("fix latency (submit to reply)", &s.wall.latency_ns)
    );
    println!("{}", describe("cold fixes", &s.cold_ns));
    println!(
        "{}",
        describe("fixes overlapping a refresh", &s.during_refresh_ns)
    );

    let mut m = Metrics::default();
    set_end_to_end(
        &mut m,
        &EndToEnd {
            setup_s,
            cpu_s: p.cpu_s,
            cpu_fixes: s.cpu_fixes,
            attempted: s.attempted,
            correct: s.correct,
            err_sum_m: s.err_sum_m,
            peak_rss_mb,
        },
    );
    closed::set_wall(
        &mut m,
        &s.wall,
        &tracer,
        s.attempted,
        untraced.as_ref().map(|u| &u.wall),
    );
    let ((pa, sa), (pb, sb)) = (&p.before, &p.after);
    let d = stats_delta(sa, sb);
    let wall_us = (p.end_ns - p.start_ns) as f64 / 1e3;
    set_serve(&mut m, &d, wall_us, BUDGET);

    let (ca, cb) = (&pa.catalog, &pb.catalog);
    let warm = s.correct - s.cold_ns.len() as u64;
    println!(
        "catalog: {warm}/{} fixes found their shard hot; leases {} hits / {} misses; \
         faults {} drains {} evictions {}",
        s.correct,
        cb.hits - ca.hits,
        cb.misses - ca.misses,
        pb.faults - pa.faults,
        pb.drains - pa.drains,
        cb.evictions - ca.evictions
    );
    m.set("catalog.faults", (pb.faults - pa.faults) as f64);
    m.set("catalog.drains", (pb.drains - pa.drains) as f64);
    m.set("catalog.hydrations", (cb.hydrations - ca.hydrations) as f64);
    m.set("catalog.evictions", (cb.evictions - ca.evictions) as f64);
    m.set(
        "catalog.parked",
        (pb.parked_requests - pa.parked_requests) as f64,
    );
    m.set("catalog.hit_ratio", warm as f64 / s.correct.max(1) as f64);
    m.set(
        "catalog.cold_p99_us",
        percentile(&s.cold_ns, 99.0) as f64 / 1e3,
    );

    let mut hydrate_us = Vec::with_capacity(SHARDS);
    for key in &stack.keys {
        req += 1;
        let t0 = tracer.now();
        let snapshot = stack.store.get(*key)?.ok_or("stored snapshot vanished")?;
        std::hint::black_box(hydrate(&snapshot)?);
        let t1 = tracer.now();
        tracer.record(req, "store.hydrate", None, t0, t1);
        hydrate_us.push((t1 - t0) as f64 / 1e3);
    }
    m.set("store.hydrate_us", median(&hydrate_us));

    let cycle_ms: Vec<f64> = p
        .cycles
        .iter()
        .map(|c| (c.end_ns - c.start_ns) as f64 / 1e6)
        .collect();
    println!("refresh cycles (ms): {cycle_ms:.1?}");
    m.set("refresh.cycles", p.cycles.len() as f64);
    m.set(
        "refresh.swaps",
        (pb.refresh_swaps - pa.refresh_swaps) as f64,
    );
    m.set(
        "refresh.corrections_used",
        p.cycles.iter().map(|c| c.corrections_used).sum::<usize>() as f64,
    );
    m.set(
        "refresh.during_p99_us",
        percentile(&s.during_refresh_ns, 99.0) as f64 / 1e3,
    );
    m.set("refresh.cycle_p50_ms", median(&cycle_ms));

    set_kernel(
        &mut m,
        &mut stack.hot_model,
        &stack.pools[0].rows,
        d.mean_batch(),
        &mut tracer,
        &mut req,
    )?;
    set_setup(&mut m, &setup);
    let self_times = tracer.self_times();
    let per_span = |layer: &str| {
        self_times
            .get(layer)
            .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / 1e3)
    };
    m.set("self.hydrate_us", per_span("store.hydrate"));
    m.set("self.refresh_ms", per_span("refresh.cycle") / 1e3);
    m.set("trace.spans", tracer.len() as f64);
    stack.server.shutdown();
    Ok(Outcome {
        metrics: m,
        attempted: s.attempted,
        failed: s.failed,
        mismatches: s.mismatches,
        tracer,
    })
}
