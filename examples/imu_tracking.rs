//! IMU device tracking: walk a pedestrian around a campus loop, then
//! compare NObLe's end-position tracking against dead reckoning and deep
//! regression (the paper's Table III experiment at demo scale).
//!
//! Run with: `cargo run --release --example imu_tracking`

use noble_suite::noble::imu::baselines::{
    DeadReckoning, ImuDeepRegression, ImuRegressionConfig, MapAssistedDeadReckoning,
};
use noble_suite::noble::imu::{ImuNoble, ImuNobleConfig};
use noble_suite::noble::report::{meters, TextTable};
use noble_suite::noble_datasets::{ImuConfig, ImuDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 160 m x 60 m loop, 100 reference points, 2000 constructed paths.
    let cfg = ImuConfig {
        num_reference_points: 100,
        num_paths: 2000,
        max_path_segments: 10,
        ..ImuConfig::default()
    };
    let dataset = ImuDataset::generate(&cfg)?;
    println!(
        "dataset: {} reference points, {} train / {} val / {} test paths",
        dataset.reference_points.len(),
        dataset.train.len(),
        dataset.val.len(),
        dataset.test.len()
    );

    let mut table = TextTable::new(vec!["MODEL".into(), "MEAN (M)".into(), "MEDIAN (M)".into()]);

    let dr = DeadReckoning::evaluate(&dataset.test)?;
    table.add_row(vec![
        "Dead Reckoning".into(),
        meters(dr.mean),
        meters(dr.median),
    ]);

    let assisted = MapAssistedDeadReckoning::evaluate(&dataset, &dataset.test)?;
    table.add_row(vec![
        "Map-Assisted DR".into(),
        meters(assisted.mean),
        meters(assisted.median),
    ]);

    let regression = ImuDeepRegression::train(&dataset, &ImuRegressionConfig::default())?;
    let reg = regression.evaluate(&dataset.test)?;
    table.add_row(vec![
        "Deep Regression".into(),
        meters(reg.mean),
        meters(reg.median),
    ]);

    let noble_cfg = ImuNobleConfig {
        tau: 1.0,
        displacement_loss_weight: 4.0,
        epochs: 80,
        ..ImuNobleConfig::default()
    };
    let noble_model = ImuNoble::train(&dataset, &noble_cfg)?;
    let report = noble_model.evaluate(&dataset, &dataset.test)?;
    table.add_row(vec![
        "NObLe".into(),
        meters(report.position_error.mean),
        meters(report.position_error.median),
    ]);

    println!("\n{}", table.render());
    println!(
        "NObLe end-class accuracy: {:.1}% | structure: {}",
        report.class_accuracy * 100.0,
        report.structure
    );
    Ok(())
}
