//! Inference latency micro-benchmarks: the measured side of the paper's
//! §IV-C latency claim (2 ms on a TX2 — here, host CPU).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_datasets::{uji_campaign, UjiConfig};

fn bench_inference(c: &mut Criterion) {
    let campaign = uji_campaign(&UjiConfig::small()).expect("campaign");
    let mut cfg = WifiNobleConfig::small();
    cfg.epochs = 5;
    let model = WifiNoble::train(&campaign, &cfg).expect("train");
    let features = campaign.features(&campaign.test);
    let single = features.select_rows(&[0]);

    let mut group = c.benchmark_group("wifi_inference");
    group.bench_function("single_fingerprint", |b| {
        b.iter_batched(
            || model.clone(),
            |m| m.predict(&single).expect("predict"),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("batch_64", |b| {
        let batch = features.select_rows(&(0..64.min(features.rows())).collect::<Vec<_>>());
        b.iter_batched(
            || model.clone(),
            |m| m.predict(&batch).expect("predict"),
            BatchSize::SmallInput,
        )
    });
    let rows: Vec<Vec<f64>> = (0..256)
        .map(|i| features.row(i % features.rows()).to_vec())
        .collect();
    group.bench_function("localize_batch_256_serial", |b| {
        noble_linalg::set_num_threads(1);
        b.iter_batched(
            || model.clone(),
            |m| m.localize_batch(&rows).expect("localize_batch"),
            BatchSize::SmallInput,
        );
        noble_linalg::set_num_threads(0);
    });
    group.bench_function("localize_batch_256_threaded", |b| {
        b.iter_batched(
            || model.clone(),
            |m| m.localize_batch(&rows).expect("localize_batch"),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
