//! Serving-scale inference throughput: single-sample vs. batched vs.
//! batched + multi-threaded WiFi fixes per second.
//!
//! NObLe's pitch is that classification-style localization is cheap
//! enough for high-rate, many-user serving; this runner measures how far
//! the inference engine is from that. Three modes are compared across
//! batch sizes and thread counts:
//!
//! - **single** — one [`noble::wifi::WifiNoble::localize_one`] call per
//!   fix (the naive serving loop),
//! - **batched** — one [`noble::wifi::WifiNoble::localize_batch`] call
//!   over the whole batch, pinned to one worker thread,
//! - **batched_threaded** — the same batched call with the blocked matmul
//!   kernel fanning out over scoped threads.
//!
//! Each batched mode additionally runs at both precision tiers: `exact`
//! (the f64 model) and `f32` (a lowered twin built once via
//! [`noble::Localizer::try_lower`], off the timed path, exactly as the
//! serving layer does). Before any timing, the f32 twin passes an
//! **accuracy gate** against the exact outputs — within 1e-4 position
//! error — and the runner errors out if the gate fails, so the
//! `NOBLE_QUICK=1` CI smoke enforces it on every push.
//!
//! Results go to stdout as a table and to
//! `results/BENCH_throughput.json` for the perf trajectory. In
//! [`Scale::Quick`] (smoke) mode the sweep shrinks to two batch sizes and
//! at most two thread counts so CI can exercise the parallel path in
//! seconds.

use crate::config::uji_config;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::report::TextTable;
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{InferencePrecision, Localizer};
use noble_datasets::uji_campaign;
use noble_geo::Point;
use noble_linalg::{num_threads, set_num_threads};
use std::time::Instant;

/// One throughput measurement.
#[derive(Debug, Clone)]
struct Measurement {
    mode: &'static str,
    precision: &'static str,
    batch: usize,
    threads: usize,
    fixes_per_sec: f64,
}

impl Measurement {
    fn json(&self) -> String {
        format!(
            "    {{\"mode\": \"{}\", \"precision\": \"{}\", \"batch\": {}, \"threads\": {}, \"fixes_per_sec\": {:.1}, \"us_per_fix\": {:.3}}}",
            self.mode,
            self.precision,
            self.batch,
            self.threads,
            self.fixes_per_sec,
            1e6 / self.fixes_per_sec.max(f64::MIN_POSITIVE)
        )
    }
}

fn max_delta(a: &[Point], b: &[Point]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.distance(*y))
        .fold(0.0, f64::max)
}

/// Times `f` over `reps` repetitions of `fixes` fixes each and returns
/// the best observed fixes/second (best-of filters scheduler noise).
fn best_rate(fixes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        best = best.max(fixes as f64 / elapsed);
    }
    best
}

/// Runs the sweep and writes `results/BENCH_throughput.json`.
///
/// # Errors
///
/// Propagates dataset, training and artifact-I/O failures.
pub fn run(scale: Scale) -> RunnerResult {
    // Model quality is irrelevant here, but matrix shape is the whole
    // story: Full keeps the paper-scaled campaign (192 WAPs, the full
    // class grid) so per-fix compute is serving-representative, while
    // Quick shrinks the campaign for CI. Both keep the paper's hidden
    // width.
    let campaign = uji_campaign(&uji_config(scale))?;
    let cfg = WifiNobleConfig {
        hidden_dim: 128,
        epochs: if scale == Scale::Quick { 2 } else { 5 },
        patience: None,
        ..WifiNobleConfig::small()
    };
    let model = WifiNoble::train(&campaign, &cfg)?;

    // Lower the f32 twin once, off the timed path — the same lifecycle
    // the serving layer uses (lower at hydrate/train time, serve from
    // the immutable twin).
    let f32_twin = Localizer::try_lower(&model, InferencePrecision::F32)
        .ok_or("WifiNoble failed to lower to f32")?;

    // Accuracy gate: the speedup numbers below are meaningless if the
    // fast tier decodes to different positions, so refuse to report
    // them. Runs at Quick scale too — this is the CI smoke's teeth.
    let probe = campaign.features(&campaign.test);
    let exact_fixes = Localizer::localize_batch(&model, &probe)?;
    let f32_fixes = f32_twin.localize_batch(&probe)?;
    let f32_delta = max_delta(&f32_fixes, &exact_fixes);
    if f32_delta > 1e-4 {
        return Err(
            format!("f32 accuracy gate failed: max position delta {f32_delta} > 1e-4").into(),
        );
    }

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (batch_sizes, reps): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![32, 256], 2),
        Scale::Full => (vec![1, 32, 256, 1024], 5),
    };
    let mut thread_counts = vec![1usize];
    let mut t = 2;
    while t < available {
        thread_counts.push(t);
        t *= 2;
    }
    if available > 1 {
        thread_counts.push(available);
    }
    if scale == Scale::Quick {
        // Smoke mode: serial plus one parallel point so CI always
        // exercises the threaded path (even on single-core runners —
        // the scoped pool works fine oversubscribed).
        thread_counts = vec![1, 2];
    }

    // Replicate test fingerprints up to the largest batch.
    let features = campaign.features(&campaign.test);
    let max_batch = batch_sizes.iter().copied().max().unwrap_or(1);
    let rows: Vec<Vec<f64>> = (0..max_batch)
        .map(|i| features.row(i % features.rows()).to_vec())
        .collect();

    let configured_threads = num_threads();
    let mut measurements: Vec<Measurement> = Vec::new();
    for &batch in &batch_sizes {
        let slice = &rows[..batch];

        set_num_threads(1);
        let single = best_rate(batch, reps, || {
            for row in slice {
                model.localize_one(row).expect("localize_one");
            }
        });
        measurements.push(Measurement {
            mode: "single",
            precision: "exact",
            batch,
            threads: 1,
            fixes_per_sec: single,
        });

        let batched = best_rate(batch, reps, || {
            model.localize_batch(slice).expect("localize_batch");
        });
        measurements.push(Measurement {
            mode: "batched",
            precision: "exact",
            batch,
            threads: 1,
            fixes_per_sec: batched,
        });

        for &threads in &thread_counts {
            if threads <= 1 {
                continue;
            }
            set_num_threads(threads);
            let rate = best_rate(batch, reps, || {
                model.localize_batch(slice).expect("localize_batch");
            });
            measurements.push(Measurement {
                mode: "batched_threaded",
                precision: "exact",
                batch,
                threads,
                fixes_per_sec: rate,
            });
        }

        // The f32 tier over the very same rows. The twin takes the
        // identical slice-of-rows interface, so the only difference
        // against the exact `batched` rows above is the kernel tier.
        set_num_threads(1);
        let rate = best_rate(batch, reps, || {
            f32_twin.localize_rows(slice).expect("localize_rows");
        });
        measurements.push(Measurement {
            mode: "batched",
            precision: "f32",
            batch,
            threads: 1,
            fixes_per_sec: rate,
        });
        for &threads in &thread_counts {
            if threads <= 1 {
                continue;
            }
            set_num_threads(threads);
            let rate = best_rate(batch, reps, || {
                f32_twin.localize_rows(slice).expect("localize_rows");
            });
            measurements.push(Measurement {
                mode: "batched_threaded",
                precision: "f32",
                batch,
                threads,
                fixes_per_sec: rate,
            });
        }
        set_num_threads(0);
    }
    // Restore whatever the process had configured before the sweep.
    set_num_threads(if configured_threads == available {
        0
    } else {
        configured_threads
    });

    // Speedups at the reference batch (256 when measured, else the
    // largest batch in the sweep).
    let reference_batch = if batch_sizes.contains(&256) {
        256
    } else {
        max_batch
    };
    let rate_of = |mode: &str, precision: &str| {
        measurements
            .iter()
            .filter(|m| m.mode == mode && m.precision == precision && m.batch == reference_batch)
            .map(|m| m.fixes_per_sec)
            .fold(0.0f64, f64::max)
    };
    let single_ref = rate_of("single", "exact");
    let batched_ref = rate_of("batched", "exact");
    let threaded_ref = rate_of("batched_threaded", "exact").max(batched_ref);
    let speedup_batched = batched_ref / single_ref.max(f64::MIN_POSITIVE);
    let speedup_threaded = threaded_ref / single_ref.max(f64::MIN_POSITIVE);
    // The precision speedup compares best-against-best at the reference
    // batch (each tier free to use its best thread count).
    let best_f32 = rate_of("batched", "f32").max(rate_of("batched_threaded", "f32"));
    let speedup_f32 = best_f32 / threaded_ref.max(f64::MIN_POSITIVE);

    let mut out = String::new();
    out.push_str("THROUGHPUT: WiFi fixes/sec, single vs batched vs batched+threaded\n");
    out.push_str(&format!(
        "(hidden_dim={}, waps={}, available_parallelism={available})\n",
        cfg.hidden_dim,
        campaign.num_waps()
    ));
    out.push_str(&format!(
        "accuracy gate: f32 max delta {f32_delta:.2e} m (<= 1e-4)\n\n"
    ));
    let mut table = TextTable::new(vec![
        "MODE".into(),
        "PRECISION".into(),
        "BATCH".into(),
        "THREADS".into(),
        "FIXES/SEC".into(),
    ]);
    for m in &measurements {
        table.add_row(vec![
            m.mode.to_uppercase(),
            m.precision.to_string(),
            m.batch.to_string(),
            m.threads.to_string(),
            format!("{:.0}", m.fixes_per_sec),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nat batch {reference_batch}: batched = {speedup_batched:.2}x single, \
         batched+threaded = {speedup_threaded:.2}x single\n\
         f32 = {speedup_f32:.2}x exact (best vs best)\n"
    ));

    let json = format!(
        "{{\n  \"available_parallelism\": {available},\n  \"hidden_dim\": {},\n  \
         \"num_waps\": {},\n  \"reference_batch\": {reference_batch},\n  \
         \"speedup_batched_vs_single\": {speedup_batched:.3},\n  \
         \"speedup_batched_threaded_vs_single\": {speedup_threaded:.3},\n  \
         \"speedup_f32_vs_exact\": {speedup_f32:.3},\n  \
         \"accuracy_gates\": {{\"f32_max_position_delta\": {f32_delta:.6e}}},\n  \
         \"measurements\": [\n{}\n  ]\n}}\n",
        cfg.hidden_dim,
        campaign.num_waps(),
        measurements
            .iter()
            .map(Measurement::json)
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = write_artifact("BENCH_throughput.json", &json)?;
    out.push_str(&format!("wrote {}\n", path.display()));

    println!("{out}");
    Ok(out)
}
