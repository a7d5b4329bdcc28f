//! Table I: NObLe classification accuracies and position errors on the
//! UJI-like campaign.
//!
//! Paper values (real UJIIndoorLoc): building 99.74 %, floor 94.25 %,
//! quantize class 61.63 %; mean 4.45 m, median 0.23 m. Shape criteria:
//! building ≥ floor ≫ class accuracy; median ≪ mean.

use crate::config::{uji_config, wifi_noble_config};
use crate::runners::RunnerResult;
use crate::Scale;
use noble::report::{meters, percent, TextTable};
use noble::wifi::WifiNoble;
use noble_datasets::uji_campaign;

/// Runs the experiment and renders the table.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let cfg = wifi_noble_config(scale);
    let model = WifiNoble::train(&campaign, &cfg)?;
    let report = model.evaluate(&campaign, &campaign.test)?;

    let mut out = String::new();
    out.push_str("TABLE I: NObLe performance on the UJI-like campaign\n");
    out.push_str(&format!(
        "(synthetic stand-in; paper values on real UJIIndoorLoc in parentheses)\n\
         train={} val={} test={} waps={} fine-classes={}\n\n",
        campaign.train.len(),
        campaign.val.len(),
        campaign.test.len(),
        campaign.num_waps(),
        model.fine_quantizer().num_classes()
    ));

    let mut acc = TextTable::new(vec![
        "CLASSIFICATION".into(),
        "ACCURACY (%)".into(),
        "PAPER (%)".into(),
    ]);
    acc.add_row(vec![
        "BUILDING".into(),
        percent(report.building_accuracy),
        "99.74".into(),
    ]);
    acc.add_row(vec![
        "FLOOR".into(),
        percent(report.floor_accuracy),
        "94.25".into(),
    ]);
    acc.add_row(vec![
        "QUANTIZE CLASS".into(),
        percent(report.class_accuracy),
        "61.63".into(),
    ]);
    out.push_str(&acc.render());
    out.push('\n');

    let mut err = TextTable::new(vec![
        "POSITION ERROR (M)".into(),
        "MEASURED".into(),
        "PAPER".into(),
    ]);
    err.add_row(vec![
        "MEAN".into(),
        meters(report.position_error.mean),
        "4.45".into(),
    ]);
    err.add_row(vec![
        "MEDIAN".into(),
        meters(report.position_error.median),
        "0.23".into(),
    ]);
    err.add_row(vec![
        "RMSE".into(),
        meters(report.position_error.rmse),
        "-".into(),
    ]);
    err.add_row(vec![
        "P90".into(),
        meters(report.position_error.p90),
        "-".into(),
    ]);
    out.push_str(&err.render());
    out.push('\n');
    out.push_str(&format!("structure: {}\n", report.structure));

    println!("{out}");
    Ok(out)
}
