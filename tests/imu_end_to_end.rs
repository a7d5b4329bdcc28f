//! End-to-end IMU tracking: NObLe must beat the regression baseline, and
//! dead-reckoning error must accumulate with path length (the §V premise).

use noble_suite::noble::imu::baselines::{
    DeadReckoning, ImuDeepRegression, ImuRegressionConfig, MapAssistedDeadReckoning,
};
use noble_suite::noble::imu::{ImuNoble, ImuNobleConfig};
use noble_suite::noble_datasets::{ImuConfig, ImuDataset};

fn dataset() -> ImuDataset {
    // The location network needs a healthy ratio of training paths to
    // neighborhood classes (the paper has ~25 paths per class); 30
    // references at tau=2 give ~60 classes for ~1000 training paths.
    let cfg = ImuConfig {
        num_reference_points: 30,
        num_paths: 1600,
        max_path_segments: 6,
        seed: 77,
        ..ImuConfig::default()
    };
    ImuDataset::generate(&cfg).expect("dataset")
}

fn noble_config() -> ImuNobleConfig {
    ImuNobleConfig {
        tau: 2.0,
        hidden_dim: 96,
        displacement_loss_weight: 4.0,
        epochs: 100,
        ..ImuNobleConfig::default()
    }
}

#[test]
fn noble_beats_deep_regression() {
    let dataset = dataset();
    let noble_model = ImuNoble::train(&dataset, &noble_config()).expect("noble");
    let noble_report = noble_model.evaluate(&dataset, &dataset.test).expect("eval");

    let regression = ImuDeepRegression::train(
        &dataset,
        &ImuRegressionConfig {
            hidden_dim: 96,
            epochs: 40,
            ..ImuRegressionConfig::small()
        },
    )
    .expect("regression");
    let regression_summary = regression.evaluate(&dataset.test).expect("eval");

    assert!(
        noble_report.position_error.mean < regression_summary.mean,
        "NObLe {} must beat regression {}",
        noble_report.position_error.mean,
        regression_summary.mean
    );
}

#[test]
fn noble_median_is_far_below_mean() {
    // The paper's Table III signature: median 0.4 m vs mean 2.52 m —
    // correct classifications decode almost exactly.
    let dataset = dataset();
    let noble_model = ImuNoble::train(&dataset, &noble_config()).expect("noble");
    let report = noble_model.evaluate(&dataset, &dataset.test).expect("eval");
    assert!(
        report.position_error.median < report.position_error.mean * 0.6,
        "median {} should be well below mean {}",
        report.position_error.median,
        report.position_error.mean
    );
}

#[test]
fn dead_reckoning_error_accumulates_with_path_length() {
    let dataset = dataset();
    let mut short_errors = Vec::new();
    let mut long_errors = Vec::new();
    for p in dataset.test.iter().chain(&dataset.val) {
        let err = DeadReckoning::predict_one(p).distance(p.end_position);
        if p.segments.len() <= 2 {
            short_errors.push(err);
        } else if p.segments.len() >= 5 {
            long_errors.push(err);
        }
    }
    assert!(!short_errors.is_empty() && !long_errors.is_empty());
    let short_mean: f64 = short_errors.iter().sum::<f64>() / short_errors.len() as f64;
    let long_mean: f64 = long_errors.iter().sum::<f64>() / long_errors.len() as f64;
    assert!(
        long_mean > short_mean,
        "long-path error {long_mean} should exceed short-path error {short_mean}"
    );
}

#[test]
fn map_assistance_keeps_predictions_on_walkway() {
    let dataset = dataset();
    for p in dataset.test.iter().take(50) {
        let pred = MapAssistedDeadReckoning::predict_one(&dataset, p);
        assert!(
            dataset.walkway.is_accessible(pred),
            "map-assisted prediction {pred} left the walkway"
        );
    }
}

#[test]
fn noble_structure_awareness() {
    let dataset = dataset();
    let noble_model = ImuNoble::train(&dataset, &noble_config()).expect("noble");
    let report = noble_model.evaluate(&dataset, &dataset.test).expect("eval");
    assert!(
        report.structure.on_map_fraction > 0.8,
        "on-walkway fraction {}",
        report.structure.on_map_fraction
    );
}
