//! Table III: IMU tracking end-position errors.
//!
//! Paper values: Deep Regression 10.41/10.05, map-heuristic system \[8\]
//! 4.3/–, NObLe 2.52/0.4 (mean/median meters). Shape criteria: NObLe <
//! map-assisted dead reckoning < deep regression; NObLe median ≪ mean.

use crate::config::{imu_config, imu_noble_config, imu_regression_config};
use crate::runners::RunnerResult;
use crate::Scale;
use noble::imu::baselines::{DeadReckoning, ImuDeepRegression, MapAssistedDeadReckoning};
use noble::imu::ImuNoble;
use noble::report::{meters, TextTable};
use noble_datasets::ImuDataset;

/// Runs the experiment and renders the table.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run(scale: Scale) -> RunnerResult {
    let dataset = ImuDataset::generate(&imu_config(scale))?;

    let regression = ImuDeepRegression::train(&dataset, &imu_regression_config(scale))?;
    let regression_summary = regression.evaluate(&dataset.test)?;

    let dead_reckoning = DeadReckoning::evaluate(&dataset.test)?;
    let map_assisted = MapAssistedDeadReckoning::evaluate(&dataset, &dataset.test)?;

    let noble_model = ImuNoble::train(&dataset, &imu_noble_config(scale))?;
    let noble_report = noble_model.evaluate(&dataset, &dataset.test)?;

    let mut table = TextTable::new(vec![
        "MODEL".into(),
        "MEAN".into(),
        "MEDIAN".into(),
        "PAPER MEAN".into(),
        "PAPER MEDIAN".into(),
    ]);
    table.add_row(vec![
        "DEEP REGRESSION MODEL".into(),
        meters(regression_summary.mean),
        meters(regression_summary.median),
        "10.41".into(),
        "10.05".into(),
    ]);
    table.add_row(vec![
        "DEAD RECKONING (ref)".into(),
        meters(dead_reckoning.mean),
        meters(dead_reckoning.median),
        "-".into(),
        "-".into(),
    ]);
    table.add_row(vec![
        "MAP-ASSISTED DR (paper [8])".into(),
        meters(map_assisted.mean),
        meters(map_assisted.median),
        "4.30".into(),
        "N/A".into(),
    ]);
    table.add_row(vec![
        "NOBLE".into(),
        meters(noble_report.position_error.mean),
        meters(noble_report.position_error.median),
        "2.52".into(),
        "0.40".into(),
    ]);

    let mut out = String::new();
    out.push_str("TABLE III: position error distance (m) for IMU tracking\n");
    out.push_str(&format!(
        "paths: train={} val={} test={} | refs={} | end classes={}\n\n",
        dataset.train.len(),
        dataset.val.len(),
        dataset.test.len(),
        dataset.reference_points.len(),
        noble_model.quantizer().num_classes()
    ));
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "NObLe end-class accuracy {:.2}% | structure: {}\n",
        noble_report.class_accuracy * 100.0,
        noble_report.structure
    ));
    println!("{out}");
    Ok(out)
}
