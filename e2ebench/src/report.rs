//! Metric names, percentile picks and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. `BENCHMARK.json` lists the same names; a test keeps the two in
//! step.

use std::collections::BTreeMap;

/// End-to-end metrics: reported (all of them, every workload) by an
/// untraced run. They are the figures a regression bound can hold on a
/// shared host, so none of them is a wall-clock rate or latency.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_us_per_fix", "us"),
    ("ok_frac", "frac"),
    ("mean_err_m", "m"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: reported (all of them, every workload) by a traced
/// run. A layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.fix_p50_us", "us"),
    ("wall.fix_p99_us", "us"),
    ("wall.goodput_fps", "1/s"),
    ("wall.max_rate_fps", "1/s"),
    ("gen.sent", "count"),
    ("gen.late_p99_us", "us"),
    ("net.accepted", "count"),
    ("net.completed", "count"),
    ("net.shed_overload", "count"),
    ("net.shed_quota", "count"),
    ("net.bad_frames", "count"),
    ("net.send_us", "us"),
    ("net.edge_us", "us"),
    ("net.saturated_fps", "1/s"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "fixes"),
    ("serve.max_batch", "fixes"),
    ("serve.errors", "count"),
    ("serve.queue_us", "us"),
    ("serve.busy_us", "us"),
    ("serve.busy_frac", "frac"),
    ("kernel.us_per_fix.b1", "us"),
    ("kernel.us_per_fix.bmean", "us"),
    ("kernel.flops_per_fix", "flop"),
    ("kernel.weight_bytes", "B"),
    ("catalog.faults", "count"),
    ("catalog.drains", "count"),
    ("catalog.hydrations", "count"),
    ("catalog.evictions", "count"),
    ("catalog.parked", "count"),
    ("catalog.hit_ratio", "frac"),
    ("catalog.cold_p99_us", "us"),
    ("store.hydrate_us", "us"),
    ("session.created", "count"),
    ("session.live_peak", "count"),
    ("session.events", "count"),
    ("session.observe_us", "us"),
    ("session.track_p99_us", "us"),
    ("refresh.cycles", "count"),
    ("refresh.swaps", "count"),
    ("refresh.corrections_used", "count"),
    ("refresh.during_p99_us", "us"),
    ("refresh.cycle_p50_ms", "ms"),
    ("setup.campaign_s", "s"),
    ("setup.train_s", "s"),
    ("setup.snapshot_s", "s"),
    ("setup.start_s", "s"),
    ("self.gen_us", "us"),
    ("self.net_send_us", "us"),
    ("self.wire_us", "us"),
    ("self.submit_us", "us"),
    ("self.wait_us", "us"),
    ("self.kernel_us", "us"),
    ("self.session_us", "us"),
    ("self.hydrate_us", "us"),
    ("self.refresh_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_goodput_fps", "1/s"),
];

/// Percentiles the tail pick may report, highest last.
const TAIL_CANDIDATES: &[f64] = &[50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`0` when empty).
pub fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of `pct` among `n` samples. The epsilon keeps
/// decimal percentiles such as 99.9 from rounding up a whole rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `pct` of `n` samples leaves at least [`MIN_BEYOND`] samples
/// beyond the pick.
fn supports(n: usize, pct: f64) -> bool {
    n > 0 && n - rank(n, pct) >= MIN_BEYOND
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count the pick was made from.
    pub count: usize,
    /// The percentile reported.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: u64,
}

/// Picks the highest supported tail percentile of an ascending slice;
/// `None` when even the median lacks ten samples beyond it.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&pct| supports(sorted.len(), pct))
        .map(|&pct| Tail {
            count: sorted.len(),
            pct,
            value: percentile(sorted, pct),
        })
}

/// One line describing a latency sample: median, p99 and the highest
/// supported tail, with the sample count.
pub fn describe(label: &str, sorted_ns: &[u64]) -> String {
    let us = |ns: u64| ns as f64 / 1e3;
    match tail(sorted_ns) {
        Some(t) => format!(
            "{label}: n={} p50={:.1}us p99={:.1}us tail p{}={:.1}us (>= {MIN_BEYOND} samples beyond)",
            t.count,
            us(percentile(sorted_ns, 50.0)),
            us(percentile(sorted_ns, 99.0)),
            t.pct,
            us(t.value),
        ),
        None => format!("{label}: n={} (too few samples for a tail)", sorted_ns.len()),
    }
}

/// Samples a slice should hold, so its p99 has ten samples beyond it
/// with room to spare.
const SLICE_SAMPLES: usize = 2_000;

/// Most slices a measured phase is cut into.
const MAX_SLICES: usize = 25;

/// Cuts `(time, value)` samples into equal time slices of
/// `[start_ns, end_ns)`, as many as the sample count supports (at most
/// [`MAX_SLICES`]); each slice's values come back sorted. Reporting the
/// median over slices keeps a burst of interference from another
/// process out of the run's figure.
pub fn slices(samples: &[(u64, u64)], start_ns: u64, end_ns: u64) -> Vec<Vec<u64>> {
    let n = (samples.len() / SLICE_SAMPLES).clamp(1, MAX_SLICES);
    let width = (end_ns.saturating_sub(start_ns) / n as u64).max(1);
    let mut out = vec![Vec::new(); n];
    for &(t, v) in samples {
        if (start_ns..end_ns).contains(&t) {
            out[(((t - start_ns) / width) as usize).min(n - 1)].push(v);
        }
    }
    for s in &mut out {
        s.sort_unstable();
    }
    out
}

/// Median over slices of each slice's `pct` percentile.
pub fn sliced_percentile(slices: &[Vec<u64>], pct: f64) -> u64 {
    let per: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, pct) as f64)
        .collect();
    median(&per) as u64
}

/// Median over slices of the samples per second each slice completed.
pub fn sliced_rate(slices: &[Vec<u64>], start_ns: u64, end_ns: u64) -> f64 {
    let secs = end_ns.saturating_sub(start_ns) as f64 / 1e9 / slices.len().max(1) as f64;
    let per: Vec<f64> = slices.iter().map(|s| s.len() as f64 / secs).collect();
    median(&per)
}

/// Median of unsorted values (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Metric values gathered by a run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be declared above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Prints the mode's metrics as `name = value unit` lines (an untraced
/// run adds its `wall.*` figures), then the result object as the last
/// line of standard output. Every end-to-end metric must be present; a
/// per-layer metric a workload does not exercise reports 0.
pub fn print_result(traced: bool, correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let shown = |name: &str| traced == PER_LAYER.iter().any(|(n, _)| *n == name);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(value) = metrics.get(name) {
            if shown(name) || name.starts_with("wall.") {
                println!("{name} = {value} {unit}");
            }
        }
    }
    let names = if traced { PER_LAYER } else { END_TO_END };
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = match metrics.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
}

/// Resets the process's resident-set high-water mark to its current
/// size, so [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux). Where that is not
    // allowed the peak simply includes set-up.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_name_matches_the_allowed_pattern_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name} twice");
        }
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = spec.matches("\"name\":").count();
        let workloads = spec.matches("\"why\":").count();
        assert_eq!(declared - workloads, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(spec.contains("\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\""));
    }

    #[test]
    fn tail_pick_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.count, t.pct, t.value), (1000, 99.0, 990));
        // 10 000 samples support p99.9 (10 beyond) but not p99.99.
        let samples: Vec<u64> = (1..=10_000).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.count, t.pct, t.value), (10_000, 99.9, 9990));
        // 999 samples leave only 9 beyond p99: fall back to p90.
        let samples: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&samples).unwrap().pct, 90.0);
        // Too few for even the median.
        assert_eq!(tail(&[1, 2, 3]), None);
        assert!(describe("x", &[1, 2, 3]).contains("n=3"));
        assert!(describe("x", &(1..=1000).collect::<Vec<u64>>()).contains("n=1000"));
    }

    #[test]
    fn slices_split_by_time_and_report_medians() {
        // 10 000 samples over 10 s: five 2-second slices.
        let samples: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 1_000_000, i % 100)).collect();
        let s = slices(&samples, 0, 10_000_000_000);
        assert_eq!(s.len(), 5);
        assert!(s.iter().all(|x| x.len() == 2_000));
        assert_eq!(sliced_percentile(&s, 50.0), 49);
        assert!((sliced_rate(&s, 0, 10_000_000_000) - 1_000.0).abs() < 1e-9);
        // Samples outside the window are dropped; few samples, one slice.
        let s = slices(&[(5, 1), (50, 2)], 0, 10);
        assert_eq!(s, vec![vec![1]]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 100.0), 4);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
