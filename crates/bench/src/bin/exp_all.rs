//! Runs every experiment in sequence (the full reproduction pass behind
//! the README's results). Set `NOBLE_QUICK=1` for a fast smoke pass.

type Experiment = (
    &'static str,
    fn(noble_bench::Scale) -> noble_bench::runners::RunnerResult,
);

fn main() {
    let scale = noble_bench::Scale::from_env();
    let experiments: Vec<Experiment> = vec![
        ("fig1", noble_bench::runners::fig1::run),
        ("table1", noble_bench::runners::table1::run),
        ("table2", noble_bench::runners::table2::run),
        ("ipin", noble_bench::runners::ipin::run),
        ("table3", noble_bench::runners::table3::run),
        ("fig4", noble_bench::runners::fig4::run),
        ("fig5", noble_bench::runners::fig5::run),
        ("energy", noble_bench::runners::energy::run),
        ("throughput", noble_bench::runners::throughput::run),
        (
            "ablation_tau",
            noble_bench::runners::ablation::run_tau_sweep,
        ),
        (
            "ablation_labels",
            noble_bench::runners::ablation::run_labels,
        ),
        ("ablation_heads", noble_bench::runners::ablation::run_heads),
        (
            "ablation_decode",
            noble_bench::runners::ablation::run_decode,
        ),
    ];
    let mut failures = 0;
    for (name, run) in experiments {
        println!("=== {name} ===");
        let start = std::time::Instant::now();
        match run(scale) {
            Ok(_) => println!(
                "--- {name} done in {:.1}s ---\n",
                start.elapsed().as_secs_f64()
            ),
            Err(e) => {
                eprintln!("--- {name} FAILED: {e} ---\n");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
