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
//! Every mode must give the same answers, so before timing each batch
//! size and thread count the runner holds them to an **exact gate**: the
//! `batched` and `batched_threaded` positions must be bit-identical to
//! `single`'s, and the runner errors out if any differs, so the
//! `NOBLE_QUICK=1` CI smoke enforces it on every push.
//!
//! Results go to stdout as a table and to
//! `results/BENCH_throughput.json` for the perf trajectory, with the
//! core count and scale they were measured at. In
//! [`Scale::Quick`] (smoke) mode the sweep shrinks to two batch sizes and
//! at most two thread counts so CI can exercise the parallel path in
//! seconds.

use crate::config::uji_config;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::report::TextTable;
use noble::wifi::{WifiNoble, WifiNobleConfig, WifiPrediction};
use noble_datasets::uji_campaign;
use noble_linalg::{num_threads, set_num_threads};
use std::time::Instant;

/// One throughput measurement.
#[derive(Debug, Clone)]
struct Measurement {
    mode: &'static str,
    batch: usize,
    threads: usize,
    fixes_per_sec: f64,
}

impl Measurement {
    fn json(&self) -> String {
        format!(
            "    {{\"mode\": \"{}\", \"batch\": {}, \"threads\": {}, \"fixes_per_sec\": {:.1}, \"us_per_fix\": {:.3}}}",
            self.mode,
            self.batch,
            self.threads,
            self.fixes_per_sec,
            1e6 / self.fixes_per_sec.max(f64::MIN_POSITIVE)
        )
    }
}

/// The exact gate: `got` must carry `single`'s answers, classes and
/// position bits alike.
fn check_bits(
    mode: &str,
    batch: usize,
    threads: usize,
    single: &[WifiPrediction],
    got: &[WifiPrediction],
) -> Result<(), String> {
    let bits = |p: &WifiPrediction| {
        let (x, y) = (p.position.x.to_bits(), p.position.y.to_bits());
        (p.building, p.floor, p.fine_class, x, y)
    };
    if got.len() != single.len() || !single.iter().zip(got).all(|(a, b)| bits(a) == bits(b)) {
        return Err(format!(
            "exact gate failed: {mode} answers at batch {batch} on {threads} thread(s) differ from single's"
        ));
    }
    Ok(())
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
        let want = slice
            .iter()
            .map(|row| model.localize_one(row))
            .collect::<Result<Vec<_>, _>>()?;
        let single = best_rate(batch, reps, || {
            for row in slice {
                model.localize_one(row).expect("localize_one");
            }
        });
        measurements.push(Measurement {
            mode: "single",
            batch,
            threads: 1,
            fixes_per_sec: single,
        });

        for &threads in &thread_counts {
            let mode = if threads <= 1 {
                "batched"
            } else {
                "batched_threaded"
            };
            set_num_threads(threads);
            // The exact gate, off the timed path: the speed-ups below are
            // meaningless if a mode answers differently. Runs at Quick
            // scale too — this is the CI smoke's teeth.
            check_bits(mode, batch, threads, &want, &model.localize_batch(slice)?)?;
            let rate = best_rate(batch, reps, || {
                model.localize_batch(slice).expect("localize_batch");
            });
            measurements.push(Measurement {
                mode,
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
    let rate_of = |mode: &str| {
        measurements
            .iter()
            .filter(|m| m.mode == mode && m.batch == reference_batch)
            .map(|m| m.fixes_per_sec)
            .fold(0.0f64, f64::max)
    };
    let single_ref = rate_of("single");
    let batched_ref = rate_of("batched");
    let threaded_ref = rate_of("batched_threaded").max(batched_ref);
    let speedup_batched = batched_ref / single_ref.max(f64::MIN_POSITIVE);
    let speedup_threaded = threaded_ref / single_ref.max(f64::MIN_POSITIVE);

    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let mut out = String::new();
    out.push_str("THROUGHPUT: WiFi fixes/sec, single vs batched vs batched+threaded\n");
    out.push_str(&format!(
        "(hidden_dim={}, waps={}, available_parallelism={available}, scale={scale_name})\n",
        cfg.hidden_dim,
        campaign.num_waps()
    ));
    out.push_str("exact gate: every batched answer is bit-identical to single's\n\n");
    let mut table = TextTable::new(vec![
        "MODE".into(),
        "BATCH".into(),
        "THREADS".into(),
        "FIXES/SEC".into(),
    ]);
    for m in &measurements {
        table.add_row(vec![
            m.mode.to_uppercase(),
            m.batch.to_string(),
            m.threads.to_string(),
            format!("{:.0}", m.fixes_per_sec),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nat batch {reference_batch}: batched = {speedup_batched:.2}x single, \
         batched+threaded = {speedup_threaded:.2}x single\n"
    ));

    let json = format!(
        "{{\n  \"available_parallelism\": {available},\n  \"scale\": \"{scale_name}\",\n  \"hidden_dim\": {},\n  \
         \"num_waps\": {},\n  \"reference_batch\": {reference_batch},\n  \
         \"speedup_batched_vs_single\": {speedup_batched:.3},\n  \
         \"speedup_batched_threaded_vs_single\": {speedup_threaded:.3},\n  \
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
