//! The closed-loop client of the in-process workloads: submit a window
//! of fixes, wait for all of it, repeat until the deadline.

use crate::fixtures::Pool;
use crate::report::{sliced_percentile, sliced_rate, slices, Metrics};
use crate::trace::Tracer;
use noble_geo::Point;
use noble_serve::{ServeClient, ShardKey};

/// One fix as the client saw it. `shard` indexes the key list; its
/// fingerprints come from pool `shard % pools.len()`.
#[derive(Debug, Clone, Copy)]
pub struct Fix {
    pub shard: usize,
    pub row: usize,
    pub submit_ns: u64,
    pub done_ns: u64,
    pub cold: bool,
    /// `None` when the submit or the wait failed.
    pub answer: Option<Point>,
}

/// Runs windows of `window` fixes until `deadline_ns`. `pick` chooses
/// each fix's shard and row; `done` gets every fix as its reply
/// arrives. Each window records a `serve.submit` and a `serve.wait`
/// span under its own id, counting up from `window_id`.
#[allow(clippy::too_many_arguments)]
pub fn run(
    client: &ServeClient,
    keys: &[ShardKey],
    pools: &[Pool],
    window: usize,
    deadline_ns: u64,
    t: &mut Tracer,
    mut window_id: u64,
    mut pick: impl FnMut() -> (usize, usize),
    mut done: impl FnMut(Fix),
) {
    let mut pending = Vec::with_capacity(window);
    while t.now() < deadline_ns {
        let w0 = t.now();
        for _ in 0..window {
            let (shard, row) = pick();
            let fp = pools[shard % pools.len()].rows[row].clone();
            let submit_ns = t.now();
            pending.push((shard, row, submit_ns, client.submit(keys[shard], fp)));
        }
        let w1 = t.now();
        for (shard, row, submit_ns, p) in pending.drain(..) {
            let (cold, answer) = match p {
                Ok(p) => (p.cold(), p.wait().ok()),
                Err(_) => (false, None),
            };
            done(Fix {
                shard,
                row,
                submit_ns,
                done_ns: t.now(),
                cold,
                answer,
            });
        }
        let w2 = t.now();
        t.record(window_id, "serve.submit", None, w0, w1);
        t.record(window_id, "serve.wait", None, w1, w2);
        window_id += 1;
    }
}

/// Wall-clock latency and goodput of the fixes completed in a measured
/// phase, as medians over time slices.
pub struct Wall {
    pub slices: Vec<Vec<u64>>,
    /// The same latencies, pooled and sorted.
    pub latency_ns: Vec<u64>,
    pub goodput: f64,
}

/// `(completion, latency)` samples of `[start_ns, end_ns)`, summarised.
pub fn wall(timed: &[(u64, u64)], start_ns: u64, end_ns: u64) -> Wall {
    let slices = slices(timed, start_ns, end_ns);
    let mut latency_ns = slices.concat();
    latency_ns.sort_unstable();
    Wall {
        goodput: sliced_rate(&slices, start_ns, end_ns),
        slices,
        latency_ns,
    }
}

/// The wall-clock figures of a closed loop, and, for a traced run, the
/// per-fix self time of its client spans and the tracing overhead
/// against the untraced pass.
pub fn set_wall(m: &mut Metrics, w: &Wall, tracer: &Tracer, fixes: u64, untraced: Option<&Wall>) {
    m.set(
        "wall.fix_p50_us",
        sliced_percentile(&w.slices, 50.0) as f64 / 1e3,
    );
    m.set(
        "wall.fix_p99_us",
        sliced_percentile(&w.slices, 99.0) as f64 / 1e3,
    );
    m.set("wall.goodput_fps", w.goodput);
    let self_times = tracer.self_times();
    let per_fix = |layer: &str| {
        self_times
            .get(layer)
            .map_or(0.0, |&(_, ns)| ns as f64 / fixes.max(1) as f64 / 1e3)
    };
    m.set("self.submit_us", per_fix("serve.submit"));
    m.set("self.wait_us", per_fix("serve.wait"));
    if let Some(u) = untraced {
        m.set(
            "trace.overhead_p50_us",
            (sliced_percentile(&w.slices, 50.0) as f64 - sliced_percentile(&u.slices, 50.0) as f64)
                / 1e3,
        );
        m.set("trace.overhead_goodput_fps", u.goodput - w.goodput);
    }
}
