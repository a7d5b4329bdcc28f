//! `wire-open`: open-loop Poisson arrivals over one loopback TCP
//! connection into a `NetServer` fronting a resident `TrackingServer`.
//!
//! One sender thread paces the schedule and one receiver thread reads
//! replies (the only two load-generating threads). Offered load climbs a
//! fixed ladder of absolute rates; each rung starts once the previous
//! one has drained. Every request is timed from the moment it was due,
//! so a stalled sender shows up as latency, and the sender's own
//! lateness is reported.

use crate::fixtures::{
    self, process_cpu_s, reference_answers, repeated_setup, same_bits, set_end_to_end, set_kernel,
    set_serve, stamp, timed, EndToEnd, Pool, SetupTimes,
};
use crate::report::{describe, percentile, sliced_percentile, sliced_rate, slices, Metrics};
use crate::schedule::{poisson_arrivals, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, Res};
use noble::wifi::tracking::SmootherConfig;
use noble_geo::{Point, ZoneSet};
use noble_net::{
    Backend, Body, LocalizeRequest, NetClient, NetConfig, NetServer, StatsResponse,
    TrackedSubmitRequest, WireShard,
};
use noble_serve::{BatchConfig, SessionStats, SessionTable, ShardKey, ShardStats, TrackingServer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The ladder: offered fixes per second and each rung's share of the
/// run's seconds. A short warm-up rung leads. The edge's capacity on a
/// 2-core host (about 11 000 fixes/s, down to ~4 000 under heavy CPU
/// steal) lies between the 2 000 and 16 000 rungs, far enough from both
/// that contention does not flip them (a 3 000 rung did flip at 35%
/// steal); the saturated top rung's completion rate is reported as
/// `net.saturated_fps`. No rung holds more than `4 * DEVICES` requests,
/// so a device's next observation is never sent before the rung's
/// backlog has drained past its previous one.
pub const RUNGS: &[(f64, f64)] = &[(1_000.0, 0.03), (2_000.0, 0.75), (16_000.0, 0.09)];

/// The rung `cpu_us_per_fix`, the wall-clock latencies and the latency
/// breakdown use.
const REF_RUNG: usize = 1;

/// Latency limit on the p99 a rung must meet to count towards
/// `wall.max_rate_fps`, in microseconds. It sits above the ~40 ms reply
/// stalls the wire path shows at light load, so a rung fails on a
/// growing queue rather than on whether a few stalls land in its tail.
const P99_LIMIT_US: f64 = 100_000.0;

/// Devices observed by `TrackedSubmit` frames, visited round robin so a
/// device's consecutive observations are ~`DEVICES / 4` requests apart.
const DEVICES: u64 = 10_000;

const TRACKED_SHARE: f64 = 0.25;

const TENANT: &str = "bench";

/// Admission queues deep enough that overload builds a backlog (seen as
/// latency) rather than shedding: no request of this workload should
/// fail.
fn net_config() -> NetConfig {
    NetConfig {
        max_queue: 1 << 16,
        tenant_queue: 1 << 16,
        quantum: 8,
        service_threads: 4,
    }
}

/// No coalescing wait: the edge keeps at most `service_threads`
/// requests in flight, so a batch could never fill while a worker held
/// it open; the wait would only idle the worker.
fn serve_config() -> BatchConfig {
    BatchConfig {
        latency_budget: Duration::ZERO,
        ..BatchConfig::default()
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Due time from the start of its rung.
    due_ns: u64,
    tracked: bool,
    shard: usize,
    row: usize,
    device: u64,
}

/// The schedule of every rung, a pure function of its arguments.
fn plan(
    seed: u64,
    stream: u64,
    seconds: f64,
    rungs: &[(f64, f64)],
    pool_sizes: &[usize],
    device_base: u64,
) -> Vec<Vec<Req>> {
    let mut rng = Rng::new(seed, stream);
    let mut next_device = rng.below(DEVICES as usize) as u64;
    rungs
        .iter()
        .map(|&(rate, share)| {
            let arrivals = poisson_arrivals(&mut rng, rate, (seconds * share * 1e9) as u64);
            arrivals
                .into_iter()
                .map(|due_ns| {
                    let tracked = rng.next_f64() < TRACKED_SHARE;
                    let (shard, device) = if tracked {
                        let d = next_device;
                        next_device = (next_device + 1) % DEVICES;
                        ((d % pool_sizes.len() as u64) as usize, device_base + d)
                    } else {
                        (rng.below(pool_sizes.len()), 0)
                    };
                    Req {
                        due_ns,
                        tracked,
                        shard,
                        row: rng.below(pool_sizes[shard]),
                        device,
                    }
                })
                .collect()
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Answer {
    Fix(Point),
    Tracked { raw: Point, smoothed: Point },
    Rejected,
    Error,
}

fn classify(body: Body) -> Answer {
    match body {
        Body::Fix(f) => Answer::Fix(Point::new(f.x, f.y)),
        Body::Tracked(t) => Answer::Tracked {
            raw: Point::new(t.raw.x, t.raw.y),
            smoothed: Point::new(t.smoothed_x, t.smoothed_y),
        },
        Body::Rejected(_) => Answer::Rejected,
        _ => Answer::Error,
    }
}

/// Counter snapshot of every layer, taken between rungs.
struct Snap {
    at_ns: u64,
    edge: StatsResponse,
    shards: Vec<(ShardKey, ShardStats)>,
    sessions: SessionStats,
    peak_rss_mb: f64,
    /// Process CPU seconds used so far.
    cpu_s: f64,
}

fn snapshot(stack: &Stack, tracer: &mut Tracer, req: u64) -> Res<Snap> {
    let t0 = tracer.now();
    let snap = Snap {
        at_ns: t0,
        edge: stack.edge.stats(),
        shards: stack.tracking.stats(),
        sessions: stack.tracking.session_stats(),
        peak_rss_mb: crate::report::peak_rss_mb(),
        cpu_s: process_cpu_s()?,
    };
    let t1 = tracer.now();
    tracer.record(req, "stats", None, t0, t1);
    Ok(snap)
}

/// Raw observations of one pass over a ladder.
struct Driven {
    rung_start_ns: Vec<u64>,
    /// Per request: socket write start and end.
    sent: Vec<(u64, u64)>,
    /// Per request: reply arrival and answer.
    replies: Vec<(u64, Answer)>,
    /// One before each rung and one after the last.
    snaps: Vec<Snap>,
}

fn fatal(what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(1);
}

fn wait_drained(completed: &AtomicUsize, n: usize) {
    while completed.load(Ordering::Acquire) < n {
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Drives one ladder over a fresh connection.
fn drive(stack: &Stack, plan: &[Vec<Req>], tracer: &mut Tracer, req_base: u64) -> Res<Driven> {
    let (keys, pools) = (&stack.shards.keys, &stack.shards.pools);
    let total: usize = plan.iter().map(Vec::len).sum();
    let completed = AtomicUsize::new(0);
    let (mut tx, mut rx) = NetClient::connect(stack.edge.endpoint())?.split();
    let clock = tracer.fork();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut replies = vec![(0u64, Answer::Error); total];
            let mut seen = vec![false; total];
            for _ in 0..total {
                let frame = rx.recv().unwrap_or_else(|e| fatal("receiving a reply", e));
                let at = clock.now();
                let i = usize::try_from(frame.id)
                    .ok()
                    .and_then(|id| id.checked_sub(1))
                    .filter(|&i| i < total && !seen[i])
                    .unwrap_or_else(|| fatal("reply id", format!("unexpected id {}", frame.id)));
                seen[i] = true;
                replies[i] = (at, classify(frame.body));
                completed.fetch_add(1, Ordering::Release);
            }
            replies
        });

        let mut sent = Vec::with_capacity(total);
        let mut rung_start_ns = Vec::with_capacity(plan.len());
        let mut snaps = Vec::with_capacity(plan.len() + 1);
        let mut index = 0usize;
        for rung in plan {
            wait_drained(&completed, index);
            snaps.push(snapshot(stack, tracer, req_base + index as u64)?);
            let start = tracer.now();
            rung_start_ns.push(start);
            for req in rung {
                let due = start + req.due_ns;
                let now = tracer.now();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let shard = WireShard {
                    building: keys[req.shard].building as u32,
                    floor: None,
                };
                let fingerprint = pools[req.shard].rows[req.row].clone();
                let body = if req.tracked {
                    Body::TrackedSubmit(TrackedSubmitRequest {
                        tenant: TENANT.into(),
                        device: req.device,
                        shard,
                        at: index as u64,
                        fingerprint,
                    })
                } else {
                    Body::Localize(LocalizeRequest {
                        tenant: TENANT.into(),
                        shard,
                        fingerprint,
                    })
                };
                let t0 = tracer.now();
                tx.send(body)
                    .unwrap_or_else(|e| fatal("sending a request", e));
                let t1 = tracer.now();
                let id = req_base + index as u64;
                tracer.record(id, "gen", None, due, t0);
                tracer.record(id, "net.send", Some("wire"), t0, t1);
                sent.push((t0, t1));
                index += 1;
            }
        }
        wait_drained(&completed, index);
        snaps.push(snapshot(stack, tracer, req_base + index as u64)?);
        let replies = receiver.join().expect("receiver thread panicked");
        for (i, ((t0, _), (at, _))) in sent.iter().zip(&replies).enumerate() {
            tracer.record(req_base + i as u64, "wire", None, *t0, *at);
        }
        Ok(Driven {
            rung_start_ns,
            sent,
            replies,
            snaps,
        })
    })
}

/// Per-rung results.
#[derive(Debug, Default)]
struct Rung {
    rate: f64,
    attempted: u64,
    failed: u64,
    correct: u64,
    /// `Localize` latency from due, sorted.
    fix_ns: Vec<u64>,
    /// `(reply time, latency from due)` of each `Localize` fix.
    fix_timed: Vec<(u64, u64)>,
    /// `TrackedSubmit` latency from due, sorted.
    track_ns: Vec<u64>,
    /// All latencies from due, sorted.
    all_ns: Vec<u64>,
    /// `(reply time, latency from due)` of every correct answer.
    all_timed: Vec<(u64, u64)>,
    start_ns: u64,
    /// Sender lateness (write start minus due), sorted.
    late_ns: Vec<u64>,
    /// Socket write time, summed.
    send_ns: u64,
    /// Write start to reply, summed.
    wire_ns: u64,
    /// Latency from due of the rung's last quarter (by due time).
    last_quarter_ns: Vec<u64>,
    /// Rung start to last reply.
    span_ns: u64,
}

impl Rung {
    /// Median over time slices of the rung's p99 from due.
    fn p99_us(&self) -> f64 {
        let s = slices(
            &self.all_timed,
            self.start_ns,
            self.start_ns + self.span_ns + 1,
        );
        sliced_percentile(&s, 99.0) as f64 / 1e3
    }

    /// A backlog is growing when the typical request at the end of the
    /// rung already waits longer than the limit.
    fn backlog_grows(&self) -> bool {
        percentile(&self.last_quarter_ns, 50.0) as f64 / 1e3 > P99_LIMIT_US
    }

    fn passes(&self) -> bool {
        self.failed == 0 && self.p99_us() <= P99_LIMIT_US && !self.backlog_grows()
    }
}

/// Checks every answer and sorts the observations into rungs.
struct Checked {
    rungs: Vec<Rung>,
    mismatches: u64,
    err_sum_m: f64,
    session_observe_ns: u64,
    session_observations: u64,
}

fn check(
    plan: &[Vec<Req>],
    driven: &Driven,
    reference: &[Vec<Point>],
    pools: &[Pool],
    session_table: &SessionTable,
    tracer: &mut Tracer,
    req_base: u64,
) -> Checked {
    let reqs: Vec<(usize, &Req)> = plan
        .iter()
        .enumerate()
        .flat_map(|(r, rung)| rung.iter().map(move |q| (r, q)))
        .collect();
    // A tracked reply that arrives after the same device's next write
    // breaks per-device order.
    let mut out_of_order = vec![false; reqs.len()];
    let mut last_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut disordered_devices = BTreeMap::new();
    for (i, (_, q)) in reqs.iter().enumerate() {
        if !q.tracked {
            continue;
        }
        if let Some(prev) = last_of.insert(q.device, i) {
            if driven.replies[prev].0 > driven.sent[i].0 {
                out_of_order[prev] = true;
                disordered_devices.insert(q.device, ());
            }
        }
    }
    let mut rungs: Vec<Rung> = plan
        .iter()
        .enumerate()
        .map(|(r, _)| Rung {
            rate: RUNGS.get(r).map_or(0.0, |x| x.0),
            start_ns: driven.rung_start_ns[r],
            ..Rung::default()
        })
        .collect();
    let mut mismatches = 0;
    let mut err_sum_m = 0.0;
    let mut session_observe_ns = 0;
    let mut session_observations = 0;
    for (i, (r, q)) in reqs.iter().enumerate() {
        let rung = &mut rungs[*r];
        let due = driven.rung_start_ns[*r] + q.due_ns;
        let (sent0, sent1) = driven.sent[i];
        let (at, answer) = driven.replies[i];
        rung.attempted += 1;
        let expected = reference[q.shard][q.row];
        let ok = match answer {
            Answer::Fix(p) if !q.tracked => same_bits(p, expected),
            Answer::Tracked { raw, smoothed } if q.tracked => {
                let mut ok = same_bits(raw, expected);
                if ok && !disordered_devices.contains_key(&q.device) {
                    let t0 = tracer.now();
                    let (replayed, _, _) = session_table.observe(q.device, i as u64, raw);
                    let t1 = tracer.now();
                    tracer.record(req_base + i as u64, "session.replay", None, t0, t1);
                    session_observe_ns += t1 - t0;
                    session_observations += 1;
                    ok = same_bits(replayed, smoothed);
                }
                ok
            }
            Answer::Rejected | Answer::Error => {
                rung.failed += 1;
                continue;
            }
            _ => false,
        };
        if !ok {
            mismatches += 1;
            rung.failed += 1;
            continue;
        }
        if out_of_order[i] {
            rung.failed += 1;
            continue;
        }
        rung.correct += 1;
        err_sum_m += expected.distance(pools[q.shard].truth[q.row]);
        let lat = at.saturating_sub(due);
        if q.tracked {
            rung.track_ns.push(lat);
        } else {
            rung.fix_ns.push(lat);
            rung.fix_timed.push((at, lat));
        }
        rung.all_ns.push(lat);
        rung.all_timed.push((at, lat));
        rung.late_ns.push(sent0.saturating_sub(due));
        rung.send_ns += sent1 - sent0;
        rung.wire_ns += at.saturating_sub(sent0);
        let rung_len = plan[*r].last().map_or(0, |l| l.due_ns);
        if q.due_ns * 4 >= rung_len * 3 {
            rung.last_quarter_ns.push(lat);
        }
        rung.span_ns = rung
            .span_ns
            .max(at.saturating_sub(driven.rung_start_ns[*r]));
    }
    for rung in &mut rungs {
        rung.fix_ns.sort_unstable();
        rung.track_ns.sort_unstable();
        rung.all_ns.sort_unstable();
        rung.late_ns.sort_unstable();
        rung.last_quarter_ns.sort_unstable();
    }
    Checked {
        rungs,
        mismatches,
        err_sum_m,
        session_observe_ns,
        session_observations,
    }
}

struct Stack {
    shards: fixtures::ResidentShards,
    tracking: TrackingServer,
    edge: NetServer,
}

fn start(times: &mut SetupTimes) -> Res<Stack> {
    let mut shards = fixtures::resident_shards(times)?;
    let registry = shards
        .registry
        .take()
        .expect("fresh shards carry a registry");
    let (tracking, edge) = timed(&mut times.start_s, || -> Res<_> {
        let zones = ZoneSet::building_grid(&shards.campaign.map, 2, 2)?;
        let tracking = TrackingServer::start(
            registry,
            zones,
            Some(shards.campaign.map.clone()),
            SmootherConfig::default(),
            serve_config(),
        )?;
        let edge = NetServer::bind_tcp(
            "127.0.0.1:0".parse()?,
            Backend::Tracking(tracking.client()),
            net_config(),
        )?;
        Ok((tracking, edge))
    })?;
    Ok(Stack {
        shards,
        tracking,
        edge,
    })
}

fn stop(stack: Stack) {
    stack.edge.shutdown();
    stack.tracking.shutdown();
}

pub fn run(args: &Args) -> Res<Outcome> {
    let (mut stack, setup, setup_s) = repeated_setup(start, stop)?;
    let origin = Instant::now();
    let mut tracer = Tracer::new(args.trace, origin);
    let keys = stack.shards.keys.clone();
    let pools = stack.shards.pools.clone();
    let pool_sizes: Vec<usize> = pools.iter().map(|p| p.rows.len()).collect();
    println!(
        "{}",
        stamp(
            &args.workload,
            args.seed,
            args.trace,
            &format!(
                "waps={} hidden={} shards={} budget=resident rungs_fps={:?} ref_rung_fps={} \
                 devices={DEVICES} tracked_share={TRACKED_SHARE} service_threads={} \
                 connections=1 generator_threads=2",
                stack.shards.campaign.num_waps(),
                fixtures::full_model_config().hidden_dim,
                keys.len(),
                RUNGS.iter().map(|r| r.0).collect::<Vec<_>>(),
                RUNGS[REF_RUNG].0,
                net_config().service_threads,
            )
        )
    );

    let reference = references(&mut stack.shards, &mut tracer)?;

    // A traced run first drives the reference rung untraced, so the
    // tracing overhead is the difference between the two passes.
    let mut untraced_p50_us = None;
    if args.trace {
        let rung = [(RUNGS[REF_RUNG].0, RUNGS[REF_RUNG].1 / 2.0)];
        let p = plan(args.seed, 2, args.seconds, &rung, &pool_sizes, DEVICES);
        let mut off = Tracer::new(false, origin);
        let driven = drive(&stack, &p, &mut off, 0)?;
        let table = session_table(&stack.shards)?;
        let checked = check(&p, &driven, &reference, &pools, &table, &mut off, 0);
        let r = &checked.rungs[0];
        let start = driven.rung_start_ns[0];
        let s = slices(&r.fix_timed, start, start + r.span_ns + 1);
        untraced_p50_us = Some(sliced_percentile(&s, 50.0) as f64 / 1e3);
    }

    let req_base = 1 << 32;
    let ladder = plan(args.seed, 1, args.seconds, RUNGS, &pool_sizes, 0);
    let driven = drive(&stack, &ladder, &mut tracer, req_base)?;
    let table = session_table(&stack.shards)?;
    let checked = check(
        &ladder,
        &driven,
        &reference,
        &pools,
        &table,
        &mut tracer,
        req_base,
    );

    let mut m = Metrics::default();
    let rungs = &checked.rungs;
    let attempted: u64 = rungs.iter().map(|r| r.attempted).sum();
    let failed: u64 = rungs.iter().map(|r| r.failed).sum();
    let correct: u64 = rungs.iter().map(|r| r.correct).sum();
    for (r, rung) in rungs.iter().enumerate() {
        println!(
            "rung {r}: offered {:.0}/s attempted {} failed {} sliced p99 {:.1}us backlog_grows={} \
             late_p99 {:.1}us pass={}",
            rung.rate,
            rung.attempted,
            rung.failed,
            rung.p99_us(),
            rung.backlog_grows(),
            percentile(&rung.late_ns, 99.0) as f64 / 1e3,
            rung.passes()
        );
        println!("  {}", describe("  all from due", &rung.all_ns));
    }
    let reference_rung = &rungs[REF_RUNG];
    let top = rungs.last().expect("ladder has rungs");
    println!(
        "{}",
        describe("ref rung Localize from due", &reference_rung.fix_ns)
    );
    println!(
        "{}",
        describe("ref rung TrackedSubmit from due", &reference_rung.track_ns)
    );

    // Per-layer counters: `net.*` and `session.*` over the whole ladder,
    // `serve.*`, CPU time and the latency breakdown at the reference rung.
    let snaps = &driven.snaps;
    let (first, last) = (&snaps[0], &snaps[snaps.len() - 1]);
    let (ref_a, ref_b) = (&snaps[REF_RUNG], &snaps[REF_RUNG + 1]);
    set_end_to_end(
        &mut m,
        &EndToEnd {
            setup_s,
            cpu_s: ref_b.cpu_s - ref_a.cpu_s,
            cpu_fixes: reference_rung.correct,
            attempted,
            correct,
            err_sum_m: checked.err_sum_m,
            // Memory at sustainable load: the mark as the top rung
            // starts. The top rung's backlog is overload behaviour, and
            // its size follows the host's momentary capacity.
            peak_rss_mb: snaps[snaps.len() - 2].peak_rss_mb,
        },
    );

    let ref_start = driven.rung_start_ns[REF_RUNG];
    let ref_end = ref_start + reference_rung.span_ns + 1;
    let ref_slices = slices(&reference_rung.fix_timed, ref_start, ref_end);
    let top_start = driven.rung_start_ns[rungs.len() - 1];
    let top_end = top_start + top.span_ns + 1;
    m.set(
        "wall.fix_p50_us",
        sliced_percentile(&ref_slices, 50.0) as f64 / 1e3,
    );
    m.set(
        "wall.fix_p99_us",
        sliced_percentile(&ref_slices, 99.0) as f64 / 1e3,
    );
    // Open loop: goodput is what the reference load delivered; capacity
    // is what `wall.max_rate_fps` and the saturated top rung report.
    m.set(
        "wall.goodput_fps",
        sliced_rate(
            &slices(&reference_rung.all_timed, ref_start, ref_end),
            ref_start,
            ref_end,
        ),
    );
    m.set(
        "wall.max_rate_fps",
        rungs
            .iter()
            .filter(|r| r.passes())
            .map(|r| r.rate)
            .fold(0.0, f64::max),
    );

    let ref_serve = fixtures::stats_delta(&ref_a.shards, &ref_b.shards);
    let ref_wall_us = (ref_b.at_ns - ref_a.at_ns) as f64 / 1e3;
    set_serve(&mut m, &ref_serve, ref_wall_us, keys.len());
    let ref_n = reference_rung.all_ns.len().max(1) as f64;
    let mean_us = |total_ns: u64| total_ns as f64 / ref_n / 1e3;
    let serve_us = ref_serve.mean_latency_us();
    let edge_us = mean_us(reference_rung.wire_ns) - mean_us(reference_rung.send_ns) - serve_us;
    m.set("gen.sent", attempted as f64);
    m.set(
        "gen.late_p99_us",
        percentile(&reference_rung.late_ns, 99.0) as f64 / 1e3,
    );
    let edge = |f: fn(&StatsResponse) -> u64| (f(&last.edge) - f(&first.edge)) as f64;
    m.set("net.accepted", edge(|s| s.accepted));
    m.set("net.completed", edge(|s| s.completed));
    m.set("net.shed_overload", edge(|s| s.shed_overload));
    m.set("net.shed_quota", edge(|s| s.shed_quota));
    m.set("net.bad_frames", edge(|s| s.bad_frames));
    m.set("net.send_us", mean_us(reference_rung.send_ns));
    m.set("net.edge_us", edge_us);
    m.set(
        "net.saturated_fps",
        sliced_rate(
            &slices(&top.all_timed, top_start, top_end),
            top_start,
            top_end,
        ),
    );
    m.set(
        "session.created",
        (last.sessions.created - first.sessions.created) as f64,
    );
    m.set(
        "session.live_peak",
        snaps
            .iter()
            .map(|s| s.sessions.live.saturating_sub(first.sessions.live))
            .max()
            .unwrap_or(0) as f64,
    );
    m.set(
        "session.events",
        ((last.sessions.entered + last.sessions.left)
            - (first.sessions.entered + first.sessions.left)) as f64,
    );
    m.set(
        "session.observe_us",
        checked.session_observe_ns as f64 / checked.session_observations.max(1) as f64 / 1e3,
    );
    m.set(
        "session.track_p99_us",
        percentile(&reference_rung.track_ns, 99.0) as f64 / 1e3,
    );
    // Only the edge term is derived (wire time minus the socket write
    // and the fix tier's own latency), so the parts add up to the mean
    // by construction: the line shows where time goes, it checks
    // nothing. The request counts are measured independently.
    println!(
        "reconcile (ref rung {:.0}/s): mean latency from due {:.1}us = generator lateness {:.1} \
         + net.send_us {:.1} + net.edge_us {edge_us:.1} (derived) + serve.queue_us {:.1} \
         + serve.busy_us {:.1}; requests sent {} / net.completed {} / serve.requests {}",
        reference_rung.rate,
        mean_us(reference_rung.all_ns.iter().sum()),
        mean_us(reference_rung.late_ns.iter().sum()),
        mean_us(reference_rung.send_ns),
        m.get("serve.queue_us").unwrap_or(0.0),
        m.get("serve.busy_us").unwrap_or(0.0),
        reference_rung.attempted,
        ref_b.edge.completed - ref_a.edge.completed,
        ref_serve.requests,
    );

    let mut req = 1u64 << 48;
    set_kernel(
        &mut m,
        &mut stack.shards.models[0],
        &pools[0].rows,
        ref_serve.mean_batch(),
        &mut tracer,
        &mut req,
    )?;
    fixtures::set_setup(&mut m, &setup);
    let self_times = tracer.self_times();
    // Request spans are compared at the reference rung, like the
    // reconciliation above.
    let ref_first = req_base + ladder[..REF_RUNG].iter().map(Vec::len).sum::<usize>() as u64;
    let ref_spans = tracer.self_times_of(ref_first..ref_first + ladder[REF_RUNG].len() as u64);
    let per = |layer: &str| {
        ref_spans
            .get(layer)
            .map_or(0.0, |&(n, ns)| ns as f64 / n.max(1) as f64 / 1e3)
    };
    m.set("self.gen_us", per("gen"));
    m.set("self.net_send_us", per("net.send"));
    m.set("self.wire_us", per("wire"));
    m.set(
        "self.session_us",
        self_times.get("session.replay").map_or(0.0, |&(_, ns)| {
            ns as f64 / checked.session_observations.max(1) as f64 / 1e3
        }),
    );
    m.set("trace.spans", tracer.len() as f64);
    if let Some(untraced) = untraced_p50_us {
        m.set(
            "trace.overhead_p50_us",
            m.get("wall.fix_p50_us").unwrap_or(0.0) - untraced,
        );
    }
    stop(stack);
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        mismatches: checked.mismatches,
        tracer,
    })
}

fn references(shards: &mut fixtures::ResidentShards, tracer: &mut Tracer) -> Res<Vec<Vec<Point>>> {
    let mut req = 1u64 << 56;
    shards
        .models
        .iter_mut()
        .zip(&shards.pools)
        .map(|(model, pool)| reference_answers(model, pool, tracer, &mut req))
        .collect()
}

/// A session table configured exactly like the server's, for replay.
fn session_table(shards: &fixtures::ResidentShards) -> Res<SessionTable> {
    Ok(SessionTable::new(
        ZoneSet::building_grid(&shards.campaign.map, 2, 2)?,
        Some(shards.campaign.map.clone()),
        SmootherConfig::default(),
        &serve_config(),
    )?)
}
