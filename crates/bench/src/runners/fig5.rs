//! Fig. 5 (b–d): IMU test paths and predicted end positions.
//!
//! Panel (b) plots test-path ground truth along the walkway; panels (c)
//! and (d) contrast Deep Regression's scattered end-point predictions with
//! NObLe's structure-respecting ones. This runner dumps the corresponding
//! CSVs and prints structure metrics over the walkway band.

use crate::config::{imu_config, imu_noble_config, imu_regression_config};
use crate::runners::fig1::csv_points;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::eval::StructureReport;
use noble::imu::baselines::{DeadReckoning, ImuDeepRegression};
use noble::imu::ImuNoble;
use noble::report::TextTable;
use noble_datasets::{ImuDataset, ImuPathSample};
use noble_geo::Point;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates dataset, training and I/O failures.
pub fn run(scale: Scale) -> RunnerResult {
    let dataset = ImuDataset::generate(&imu_config(scale))?;
    let truth: Vec<Point> = dataset.test.iter().map(|p| p.end_position).collect();

    let regression = ImuDeepRegression::train(&dataset, &imu_regression_config(scale))?;
    let refs: Vec<&ImuPathSample> = dataset.test.iter().collect();
    let regression_preds = regression.predict(&refs)?;

    let dr_preds: Vec<Point> = dataset
        .test
        .iter()
        .map(DeadReckoning::predict_one)
        .collect();

    let noble_model = ImuNoble::train(&dataset, &imu_noble_config(scale))?;
    let noble_preds = noble_model.predict(&refs)?;

    let panels: Vec<(&str, &Vec<Point>)> = vec![
        ("ground_truth", &truth),
        ("deep_regression", &regression_preds),
        ("dead_reckoning", &dr_preds),
        ("noble", &noble_preds),
    ];
    let mut table = TextTable::new(vec![
        "PANEL".into(),
        "ON-WALKWAY %".into(),
        "MEAN OFF (M)".into(),
        "MAX OFF (M)".into(),
    ]);
    let mut out = String::new();
    out.push_str("FIG 5: IMU end-position predictions along the walkway\n\n");
    for (name, preds) in &panels {
        let path = write_artifact(&format!("fig5_{name}.csv"), &csv_points("x,y", preds))?;
        let report = StructureReport::compute(preds, &dataset.walkway)?;
        table.add_row(vec![
            name.to_string(),
            format!("{:.1}", report.on_map_fraction * 100.0),
            format!("{:.2}", report.mean_off_map_distance),
            format!("{:.2}", report.max_off_map_distance),
        ]);
        out.push_str(&format!("csv: {}\n", path.display()));
    }
    out.push('\n');
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}
