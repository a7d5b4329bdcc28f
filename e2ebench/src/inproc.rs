//! `inproc-saturate`: a closed loop in process. Two client threads each
//! submit a window of fixes to a resident `BatchServer`, then wait for
//! all of them. No sockets, admission, catalog or sessions: the kernel
//! and batch assembly do nearly all the work.

use crate::closed::{self, Wall};
use crate::fixtures::{
    self, process_cpu_s, reference_answers, repeated_setup, same_bits, set_end_to_end, set_kernel,
    set_serve, set_setup, stamp, stats_delta, timed, EndToEnd, ResidentShards, SetupTimes,
};
use crate::report::{describe, Metrics};
use crate::schedule::Rng;
use crate::trace::Tracer;
use crate::{Args, Outcome, Res};
use noble_geo::Point;
use noble_serve::{BatchConfig, BatchServer, ShardKey, ShardStats};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WINDOW: usize = 64;
/// Unmeasured lead-in: lets lazy set-up and first batches finish.
const WARMUP: Duration = Duration::from_millis(300);

/// Large batches, and no coalescing wait: a closed loop has nothing more
/// to send until its window returns, so waiting for riders only idles.
fn serve_config() -> BatchConfig {
    BatchConfig {
        max_batch: 256,
        latency_budget: Duration::ZERO,
        ..BatchConfig::default()
    }
}

/// One client's checked fixes. Answers are checked as they arrive, and
/// each measured fix keeps only `(completion, latency)`, so the
/// benchmark's own records stay small next to the server's memory.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    correct: u64,
    /// Correct fixes completed once the measured phase began, when the
    /// CPU clock was read.
    cpu_fixes: u64,
    err_sum_m: f64,
    /// Completion (µs after the phase opens) and latency (ns) of each
    /// correct fix completed in the measured phase.
    timed: Vec<(u32, u32)>,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.correct += o.correct;
        self.cpu_fixes += o.cpu_fixes;
        self.err_sum_m += o.err_sum_m;
        self.timed.extend(o.timed);
    }
}

/// One pass: the merged tallies, its measured phase, the fix-tier
/// counters at the phase's ends, the process CPU time spent from the
/// phase's start until the clients stopped, and the RSS mark then.
struct Pass {
    tally: Tally,
    start_ns: u64,
    end_ns: u64,
    before: Vec<(ShardKey, ShardStats)>,
    after: Vec<(ShardKey, ShardStats)>,
    cpu_s: f64,
    peak_rss_mb: f64,
}

fn pass(
    server: &BatchServer,
    shards: &ResidentShards,
    reference: &[Vec<Point>],
    seed: u64,
    stream: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Res<Pass> {
    let start_ns = tracer.now() + WARMUP.as_nanos() as u64;
    let deadline_ns = start_ns + (seconds * 1e9) as u64;
    let (keys, pools) = (&shards.keys, &shards.pools);
    let (tallies, before, cpu_s) = std::thread::scope(|scope| -> Res<_> {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let client = server.client();
                let mut t = tracer.fork();
                let stream = stream * 16 + c as u64;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, stream);
                    let mut tally = Tally::default();
                    let pick = || {
                        let shard = rng.below(pools.len());
                        (shard, rng.below(pools[shard].rows.len()))
                    };
                    let done = |f: closed::Fix| {
                        tally.attempted += 1;
                        match f.answer {
                            Some(a) if same_bits(a, reference[f.shard][f.row]) => {
                                tally.correct += 1;
                                tally.err_sum_m += a.distance(pools[f.shard].truth[f.row]);
                                if f.done_ns >= start_ns {
                                    tally.cpu_fixes += 1;
                                }
                                if (start_ns..deadline_ns).contains(&f.done_ns) {
                                    tally.timed.push((
                                        ((f.done_ns - start_ns) / 1_000) as u32,
                                        (f.done_ns - f.submit_ns).min(u64::from(u32::MAX)) as u32,
                                    ));
                                }
                            }
                            Some(_) => {
                                tally.mismatches += 1;
                                tally.failed += 1;
                            }
                            None => tally.failed += 1,
                        }
                    };
                    let first_window = (stream << 40) + 1;
                    closed::run(
                        &client,
                        keys,
                        pools,
                        WINDOW,
                        deadline_ns,
                        &mut t,
                        first_window,
                        pick,
                        done,
                    );
                    (tally, t)
                })
            })
            .collect();
        let now = tracer.now();
        if start_ns > now {
            std::thread::sleep(Duration::from_nanos(start_ns - now));
        }
        let before = server.stats();
        let cpu0 = process_cpu_s()?;
        let mut tallies = Vec::new();
        for c in clients {
            let (tally, t) = c.join().expect("client thread panicked");
            tallies.push(tally);
            tracer.merge(t);
        }
        Ok((tallies, before, process_cpu_s()? - cpu0))
    })?;
    let peak_rss_mb = crate::report::peak_rss_mb();
    let mut tally = Tally::default();
    for t in tallies {
        tally.add(t);
    }
    Ok(Pass {
        tally,
        start_ns,
        end_ns: deadline_ns,
        before,
        after: server.stats(),
        cpu_s,
        peak_rss_mb,
    })
}

/// Wall-clock latency and goodput of a pass.
fn wall(p: &Pass) -> Wall {
    let timed: Vec<(u64, u64)> = p
        .tally
        .timed
        .iter()
        .map(|&(done_us, lat)| (p.start_ns + u64::from(done_us) * 1_000, u64::from(lat)))
        .collect();
    closed::wall(&timed, p.start_ns, p.end_ns)
}

fn start(times: &mut SetupTimes) -> Res<(ResidentShards, BatchServer)> {
    let mut shards = fixtures::resident_shards(times)?;
    let registry = shards
        .registry
        .take()
        .expect("fresh shards carry a registry");
    let server = timed(&mut times.start_s, || {
        BatchServer::start(registry, serve_config())
    })?;
    Ok((shards, server))
}

pub fn run(args: &Args) -> Res<Outcome> {
    let ((mut shards, server), setup, setup_s) = repeated_setup(start, |(_, s)| {
        s.shutdown();
    })?;
    let mut tracer = Tracer::new(args.trace, Instant::now());
    println!(
        "{}",
        stamp(
            &args.workload,
            args.seed,
            args.trace,
            &format!(
                "waps={} hidden={} shards={} budget=resident clients={CLIENTS} window={WINDOW} \
                 max_batch={}",
                shards.campaign.num_waps(),
                fixtures::full_model_config().hidden_dim,
                shards.keys.len(),
                serve_config().max_batch,
            )
        )
    );
    let mut req = 1u64 << 56;
    let mut reference = Vec::new();
    for (model, pool) in shards.models.iter_mut().zip(&shards.pools) {
        reference.push(reference_answers(model, pool, &mut tracer, &mut req)?);
    }

    // A traced run first measures an untraced pass, so the tracing
    // overhead is the difference between the two.
    let untraced = if args.trace {
        let mut off = Tracer::new(false, Instant::now());
        let p = pass(
            &server,
            &shards,
            &reference,
            args.seed,
            2,
            args.seconds / 3.0,
            &mut off,
        )?;
        Some(wall(&p))
    } else {
        None
    };
    let p = pass(
        &server,
        &shards,
        &reference,
        args.seed,
        1,
        args.seconds,
        &mut tracer,
    )?;
    let w = wall(&p);
    let t = &p.tally;
    println!(
        "{}",
        describe("fix latency (submit to reply)", &w.latency_ns)
    );

    let mut m = Metrics::default();
    set_end_to_end(
        &mut m,
        &EndToEnd {
            setup_s,
            cpu_s: p.cpu_s,
            cpu_fixes: t.cpu_fixes,
            attempted: t.attempted,
            correct: t.correct,
            err_sum_m: t.err_sum_m,
            peak_rss_mb: p.peak_rss_mb,
        },
    );
    closed::set_wall(&mut m, &w, &tracer, t.attempted, untraced.as_ref());
    let d = stats_delta(&p.before, &p.after);
    let wall_us = (p.end_ns - p.start_ns) as f64 / 1e3;
    set_serve(&mut m, &d, wall_us, shards.keys.len());
    set_kernel(
        &mut m,
        &mut shards.models[0],
        &shards.pools[0].rows,
        d.mean_batch(),
        &mut tracer,
        &mut req,
    )?;
    set_setup(&mut m, &setup);
    m.set("trace.spans", tracer.len() as f64);
    server.shutdown();
    Ok(Outcome {
        metrics: m,
        attempted: t.attempted,
        failed: t.failed,
        mismatches: t.mismatches,
        tracer,
    })
}
