//! End-to-end benchmark of the NObLe serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload wire-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `README.md` in this directory for why each exists):
//! `wire-open` (open-loop Poisson over loopback TCP into `noble-net`),
//! `inproc-saturate` (closed loop into a resident `BatchServer`) and
//! `paged-refresh` (closed loop into a demand-paged `BatchServer` while
//! a refresher retrains its hottest shard). The last line of standard
//! output is the result object; `--trace 1` prints per-layer metrics in
//! place of the end-to-end ones and writes the recorded spans under
//! `.bench_out/`.

mod closed;
mod fixtures;
mod inproc;
mod paged;
mod report;
mod schedule;
mod trace;
mod wire;

use report::Metrics;
use std::time::Duration;

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// A run is stopped with an error if it has not finished by then.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Requests sent.
    pub attempted: u64,
    /// Requests rejected, answered with an error, answered wrongly, or
    /// answered out of per-device order.
    pub failed: u64,
    /// Answers that differ from the reference bit for bit.
    pub mismatches: u64,
    pub tracer: trace::Tracer,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <wire-open|inproc-saturate|paged-refresh> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    cap_malloc_arenas(std::thread::available_parallelism().map_or(1, |n| n.get()));
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("error: run did not finish within {WATCHDOG:?}");
        std::process::exit(3);
    });
    let run = match args.workload.as_str() {
        "wire-open" => wire::run,
        "inproc-saturate" => inproc::run,
        "paged-refresh" => paged::run,
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let cpu_before = cpu_ticks();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let (Some(a), Some(b)) = (cpu_before, cpu_ticks()) {
        let d: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| y.saturating_sub(*x))
            .collect();
        let total: u64 = d.iter().sum();
        // Field 8 of the `cpu` line is steal: time the host ran others.
        let steal = d.get(7).copied().unwrap_or(0);
        println!(
            "# host: cpu steal {:.1}% of this run's cpu time (high steal slows every figure)",
            100.0 * steal as f64 / total.max(1) as f64
        );
    }
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match outcome.tracer.write(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                outcome.tracer.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let correct = outcome.mismatches == 0;
    report::print_result(
        args.trace,
        correct,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    if !correct {
        eprintln!(
            "error: {} answers differ from the reference",
            outcome.mismatches
        );
        std::process::exit(1);
    }
}

/// Caps glibc's malloc arenas at `n`, the core count; it must run before
/// any other thread starts. By default glibc opens up to 8 arenas per
/// core, and the paged server's short-lived shard workers then spread
/// their allocations over fresh arenas: on a 2-core VM `paged-refresh`
/// spent ~1.7x the CPU per fix, and resident memory varied by ±15%
/// from run to run with which arena each new thread landed in.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn cap_malloc_arenas(n: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only changes allocator tuning, and no other
    // thread exists yet to allocate concurrently.
    unsafe {
        mallopt(M_ARENA_MAX, i32::try_from(n).unwrap_or(i32::MAX));
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn cap_malloc_arenas(_n: usize) {}

/// The aggregate `cpu` line of `/proc/stat`, when readable.
fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(argv("--workload wire-open --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("wire-open", 7, 10.0, true)
        );
        assert!(parse(argv("--workload x --seed -1")).is_err());
        assert!(parse(argv("--seed 1")).is_err());
        assert!(parse(argv("--workload x --seed 1 --trace 2")).is_err());
        assert!(parse(argv("--workload x --seed 1 --bogus 2")).is_err());
    }
}
