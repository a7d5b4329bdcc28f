//! Network-edge overload behavior: open-loop goodput and shed curves.
//!
//! `exp_serving` measures the batch tier from in-process clients that
//! politely wait their turn; this runner measures the wire-protocol
//! edge (`noble-net`) the way production traffic hits it — **open
//! loop**, with Poisson arrivals that keep coming whether or not the
//! server is keeping up. The backend is capacity-pinned: each shard's
//! localizer costs a fixed `busy` sleep per fix, so peak service rate
//! is known exactly (`service_threads / busy`) and the sweep's offered
//! loads are expressed as multiples of it.
//!
//! Two measurement families:
//!
//! 1. **Overload sweep** — one tenant offers 0.25x … 3x of capacity
//!    through a `NetServer` with a bounded admission queue. Per point:
//!    offered/served/shed counts, goodput, and accepted-request latency
//!    percentiles (p50/p99/p999). Past saturation the edge must *shed*,
//!    not queue: the *SLO gate* asserts — not just plots — that every
//!    ≥2x point sheds with typed rejections, keeps goodput at ≥80% of
//!    the sweep's peak, and holds accepted p99 under the queueing bound
//!    implied by the admission watermark.
//! 2. **Fairness pair** — a quiet tenant (5% of capacity) shares the
//!    edge with a 30x-hotter tenant driving it past saturation. The
//!    deficit-round-robin dispatcher plus per-tenant quotas must keep
//!    the quiet tenant's goodput ≥80% while the hot tenant takes all
//!    the quota sheds — also asserted.
//!
//! Results go to stdout and `results/BENCH_net.json`. [`Scale::Quick`]
//! shrinks durations and rates for CI smoke runs.

use crate::latency::LatencySummary;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::{Localizer, LocalizerInfo, NobleError};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_net::{
    run_open_loop, Backend, LoadConfig, NetConfig, NetServer, StatsResponse, TenantLoad,
    TenantOutcome, WireShard,
};
use noble_serve::{BatchConfig, BatchServer, ShardKey, ShardedRegistry};
use std::time::Duration;

/// Fixed-cost localizer: every fix burns exactly `busy` of wall clock,
/// pinning the backend's service rate so offered-load multipliers mean
/// what they say.
struct FixedCostLocalizer {
    dim: usize,
    busy: Duration,
}

impl Localizer for FixedCostLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "fixed-cost",
            site: "bench".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        std::thread::sleep(self.busy);
        Ok(vec![Point::new(1.0, 2.0); features.rows()])
    }
}

/// Sweep sizing at a given scale.
struct NetBenchConfig {
    /// Per-fix service cost.
    busy: Duration,
    /// Edge service workers (the in-flight window into the batch tier).
    service_threads: usize,
    /// Global admission watermark.
    max_queue: usize,
    /// Per-tenant queue bound for the sweep.
    tenant_queue: usize,
    /// Open-loop schedule length per sweep point.
    point_duration: Duration,
    /// Fairness run schedule length.
    fairness_duration: Duration,
}

impl NetBenchConfig {
    fn at(scale: Scale) -> Self {
        match scale {
            // ~1000 fixes/s capacity, 400 ms points: seconds total.
            Scale::Quick => NetBenchConfig {
                busy: Duration::from_millis(2),
                service_threads: 2,
                max_queue: 32,
                tenant_queue: 32,
                point_duration: Duration::from_millis(400),
                fairness_duration: Duration::from_millis(600),
            },
            // ~4000 fixes/s capacity, 2 s points.
            Scale::Full => NetBenchConfig {
                busy: Duration::from_millis(1),
                service_threads: 4,
                max_queue: 64,
                tenant_queue: 64,
                point_duration: Duration::from_secs(2),
                fairness_duration: Duration::from_secs(3),
            },
        }
    }

    /// Deterministic peak service rate, fixes/second.
    fn capacity_rps(&self) -> f64 {
        self.service_threads as f64 / self.busy.as_secs_f64()
    }

    /// Accepted-request p99 bound: worst admission-queue drain time
    /// (`max_queue` requests across the worker pool) plus the service
    /// cost, with generous slack for socket and scheduler jitter.
    fn p99_bound_us(&self) -> u64 {
        let queue_drain = self.busy.as_micros() as u64
            * (self.max_queue as u64 / self.service_threads as u64 + 1);
        5 * queue_drain + 100_000
    }
}

const FEATURE_DIM: usize = 8;

/// Starts a capacity-pinned backend plus edge; caller shuts both down.
///
/// One shard per edge service worker: the batch tier runs one worker
/// per shard, so fewer shards would serialize below the nominal
/// `service_threads / busy` capacity the sweep is calibrated against.
fn start_edge(
    cfg: &NetBenchConfig,
    net: NetConfig,
) -> Result<(NetServer, BatchServer), Box<dyn std::error::Error>> {
    let mut registry = ShardedRegistry::new();
    for building in 0..cfg.service_threads {
        registry.insert(
            ShardKey::building(building),
            Box::new(FixedCostLocalizer {
                dim: FEATURE_DIM,
                busy: cfg.busy,
            }),
        );
    }
    let backend = BatchServer::start(
        registry,
        BatchConfig {
            max_batch: 1,
            latency_budget: Duration::ZERO,
            ..BatchConfig::default()
        },
    )?;
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().expect("loopback addr"),
        Backend::Fix(backend.client()),
        net,
    )?;
    Ok((edge, backend))
}

/// One sweep point's outcome.
struct SweepPoint {
    multiplier: f64,
    offered_rps: f64,
    outcome: TenantOutcome,
    latency: LatencySummary,
    served_rps: f64,
    edge_stats: StatsResponse,
}

impl SweepPoint {
    fn shed(&self) -> u64 {
        self.outcome.shed_overload + self.outcome.shed_quota
    }

    fn json(&self) -> String {
        format!(
            "{{\"multiplier\": {:.2}, \"offered_rps\": {:.1}, \"offered\": {}, \
             \"served\": {}, \"shed_overload\": {}, \"shed_quota\": {}, \"errors\": {}, \
             \"goodput_ratio\": {:.4}, \"served_rps\": {:.1}, \"latency\": {}}}",
            self.multiplier,
            self.offered_rps,
            self.outcome.offered,
            self.outcome.served,
            self.outcome.shed_overload,
            self.outcome.shed_quota,
            self.outcome.errors,
            self.outcome.goodput_ratio(),
            self.served_rps,
            self.latency.json(),
        )
    }
}

fn tenant_json(o: &TenantOutcome, latency: &LatencySummary) -> String {
    format!(
        "{{\"tenant\": \"{}\", \"offered\": {}, \"served\": {}, \"shed_overload\": {}, \
         \"shed_quota\": {}, \"errors\": {}, \"goodput_ratio\": {:.4}, \"latency\": {}}}",
        o.tenant,
        o.offered,
        o.served,
        o.shed_overload,
        o.shed_quota,
        o.errors,
        o.goodput_ratio(),
        latency.json(),
    )
}

/// Runs the open-loop overload sweep and fairness pair; writes
/// `results/BENCH_net.json`.
///
/// # Errors
///
/// Fails on transport errors, artifact I/O, or an SLO gate violation
/// (missing sheds, goodput collapse past saturation, unbounded accepted
/// p99, or a starved quiet tenant).
pub fn run(scale: Scale) -> RunnerResult {
    let cfg = NetBenchConfig::at(scale);
    let capacity = cfg.capacity_rps();
    // One shard per backend worker; the load generator round-robins
    // across them, keeping every worker busy at saturation.
    let shards: Vec<WireShard> = (0..cfg.service_threads as u32)
        .map(|building| WireShard {
            building,
            floor: None,
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "network edge, open loop: capacity {capacity:.0} fixes/s \
         ({} workers x {}us/fix), admission queue {}\n\n",
        cfg.service_threads,
        cfg.busy.as_micros(),
        cfg.max_queue,
    ));

    // --- Overload sweep: one tenant, offered load as a multiple of
    // capacity, fresh edge per point so shed counters are per-point.
    const MULTIPLIERS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 3.0];
    let mut sweep = Vec::new();
    for (i, &multiplier) in MULTIPLIERS.iter().enumerate() {
        let (edge, backend) = start_edge(
            &cfg,
            NetConfig {
                max_queue: cfg.max_queue,
                tenant_queue: cfg.tenant_queue,
                quantum: 8,
                service_threads: cfg.service_threads,
            },
        )?;
        let offered_rps = capacity * multiplier;
        let load = LoadConfig {
            duration: cfg.point_duration,
            tenants: vec![TenantLoad {
                tenant: "sweep".into(),
                rate: offered_rps,
                seed: 0x5EED_0000 + i as u64,
            }],
            shards: shards.clone(),
            fingerprint: vec![0.5; FEATURE_DIM],
        };
        let outcome = run_open_loop(edge.endpoint(), &load)?
            .into_iter()
            .next()
            .expect("one tenant, one outcome");
        let edge_stats = edge.shutdown();
        backend.shutdown();
        let latency = LatencySummary::of(outcome.latencies_us.clone());
        let served_rps = outcome.served as f64 / cfg.point_duration.as_secs_f64();
        sweep.push(SweepPoint {
            multiplier,
            offered_rps,
            outcome,
            latency,
            served_rps,
            edge_stats,
        });
    }

    out.push_str(
        "  mult  offered/s  served/s  goodput  shed_over  shed_quota  p50_us  p99_us  p999_us\n",
    );
    for p in &sweep {
        out.push_str(&format!(
            "  {:>4.2}  {:>9.1}  {:>8.1}  {:>7.3}  {:>9}  {:>10}  {:>6}  {:>6}  {:>7}\n",
            p.multiplier,
            p.offered_rps,
            p.served_rps,
            p.outcome.goodput_ratio(),
            p.outcome.shed_overload,
            p.outcome.shed_quota,
            p.latency.p50_us,
            p.latency.p99_us,
            p.latency.p999_us,
        ));
    }

    // --- SLO gate over the sweep (asserted, not just plotted).
    let peak_served_rps = sweep.iter().map(|p| p.served_rps).fold(0.0, f64::max);
    let p99_bound_us = cfg.p99_bound_us();
    let mut gate_failures = Vec::new();
    for p in &sweep {
        if p.outcome.errors != 0 {
            gate_failures.push(format!(
                "{}x: {} typed serve errors (expected none)",
                p.multiplier, p.outcome.errors
            ));
        }
        let accounted = p.outcome.served + p.shed() + p.outcome.errors;
        if accounted != p.outcome.offered {
            gate_failures.push(format!(
                "{}x: {} of {} offered requests unaccounted for",
                p.multiplier,
                p.outcome.offered - accounted.min(p.outcome.offered),
                p.outcome.offered
            ));
        }
        if p.edge_stats.accepted != p.edge_stats.completed {
            gate_failures.push(format!(
                "{}x: edge leaked admitted requests ({} accepted, {} completed)",
                p.multiplier, p.edge_stats.accepted, p.edge_stats.completed
            ));
        }
        if p.multiplier < 2.0 {
            continue;
        }
        if p.shed() == 0 {
            gate_failures.push(format!(
                "{}x capacity: no typed sheds under overload",
                p.multiplier
            ));
        }
        if p.served_rps < 0.8 * peak_served_rps {
            gate_failures.push(format!(
                "{}x capacity: goodput {:.1}/s fell below 80% of peak {:.1}/s",
                p.multiplier, p.served_rps, peak_served_rps
            ));
        }
        if p.latency.p99_us > u128::from(p99_bound_us) {
            gate_failures.push(format!(
                "{}x capacity: accepted p99 {}us exceeds bound {}us",
                p.multiplier, p.latency.p99_us, p99_bound_us
            ));
        }
    }

    // --- Fairness: quiet tenant vs a 30x-hotter one past saturation.
    // Large global watermark so the per-tenant quota (plus DRR) is the
    // policy under test, small quota so the hot tenant hits it.
    let (edge, backend) = start_edge(
        &cfg,
        NetConfig {
            max_queue: 4096,
            tenant_queue: 8,
            quantum: 2,
            service_threads: cfg.service_threads,
        },
    )?;
    let quiet_rate = capacity * 0.05;
    let hot_rate = capacity * 1.5;
    let load = LoadConfig {
        duration: cfg.fairness_duration,
        tenants: vec![
            TenantLoad {
                tenant: "quiet".into(),
                rate: quiet_rate,
                seed: 0xFA1F_0001,
            },
            TenantLoad {
                tenant: "hot".into(),
                rate: hot_rate,
                seed: 0xFA1F_0002,
            },
        ],
        shards: shards.clone(),
        fingerprint: vec![0.5; FEATURE_DIM],
    };
    let outcomes = run_open_loop(edge.endpoint(), &load)?;
    edge.shutdown();
    backend.shutdown();
    let quiet = &outcomes[0];
    let hot = &outcomes[1];
    let quiet_latency = LatencySummary::of(quiet.latencies_us.clone());
    let hot_latency = LatencySummary::of(hot.latencies_us.clone());
    out.push_str(&format!(
        "\nfairness: quiet {:.0}/s goodput {:.3} (p99 {}us), \
         hot {:.0}/s goodput {:.3}, hot quota sheds {}\n",
        quiet_rate,
        quiet.goodput_ratio(),
        quiet_latency.p99_us,
        hot_rate,
        hot.goodput_ratio(),
        hot.shed_quota,
    ));
    if quiet.goodput_ratio() < 0.8 {
        gate_failures.push(format!(
            "fairness: quiet tenant goodput {:.3} below 0.8 fair share",
            quiet.goodput_ratio()
        ));
    }
    if hot.shed_quota == 0 {
        gate_failures.push("fairness: hot tenant never hit its quota".into());
    }
    if hot.served <= quiet.served {
        gate_failures.push(format!(
            "fairness: hot tenant served {} <= quiet {} (DRR should not invert)",
            hot.served, quiet.served
        ));
    }

    let slo_pass = gate_failures.is_empty();
    out.push_str(&format!(
        "SLO gate: sheds typed past 2x, goodput >= 80% of peak {peak_served_rps:.1}/s, \
         accepted p99 <= {p99_bound_us}us, quiet tenant >= 0.8 goodput -> {}\n",
        if slo_pass { "pass" } else { "FAIL" },
    ));
    for failure in &gate_failures {
        out.push_str(&format!("  SLO violation: {failure}\n"));
    }

    let sweep_json: Vec<String> = sweep.iter().map(SweepPoint::json).collect();
    let json = format!(
        "{{\n  \"scale\": \"{:?}\",\n  \"capacity_rps\": {capacity:.1},\n  \
         \"busy_us\": {},\n  \"service_threads\": {},\n  \
         \"admission\": {{\"max_queue\": {}, \"tenant_queue\": {}, \"quantum\": 8}},\n  \
         \"sweep\": [\n    {}\n  ],\n  \
         \"fairness\": {{\"quiet\": {}, \"hot\": {}}},\n  \
         \"slo\": {{\"peak_served_rps\": {peak_served_rps:.1}, \
         \"min_overload_goodput_frac\": 0.8, \"p99_bound_us\": {p99_bound_us}, \
         \"pass\": {slo_pass}}}\n}}\n",
        scale,
        cfg.busy.as_micros(),
        cfg.service_threads,
        cfg.max_queue,
        cfg.tenant_queue,
        sweep_json.join(",\n    "),
        tenant_json(quiet, &quiet_latency),
        tenant_json(hot, &hot_latency),
    );
    let path = write_artifact("BENCH_net.json", &json)?;
    out.push_str(&format!("wrote {}\n", path.display()));

    println!("{out}");
    if !slo_pass {
        return Err(format!("exp_net SLO gate failed:\n{}", gate_failures.join("\n")).into());
    }
    Ok(out)
}
