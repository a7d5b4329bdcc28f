//! §IV-B (text numbers): the IPIN-like single-building site.
//!
//! Paper values: NObLe mean 1.13 m / median 0.046 m; Deep Regression mean
//! 3.83 m; site leaderboard best 3.71 m. Shape criteria: NObLe mean well
//! below Deep Regression; NObLe median near zero.

use crate::config::{ipin_config, regression_config, wifi_noble_config};
use crate::runners::RunnerResult;
use crate::Scale;
use noble::report::{meters, TextTable};
use noble::wifi::baselines::DeepRegression;
use noble::wifi::WifiNoble;
use noble_datasets::ipin_campaign;

/// Runs the experiment and renders the report.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run(scale: Scale) -> RunnerResult {
    let campaign = ipin_campaign(&ipin_config(scale))?;

    let mut noble_cfg = wifi_noble_config(scale);
    // Single small building: finer grid is affordable.
    noble_cfg.tau = match scale {
        Scale::Full => 0.5,
        Scale::Quick => 2.0,
    };
    noble_cfg.coarse_l = Some(noble_cfg.tau * 8.0);
    let noble_model = WifiNoble::train(&campaign, &noble_cfg)?;
    let noble_report = noble_model.evaluate(&campaign, &campaign.test)?;

    let regression = DeepRegression::train(&campaign, &regression_config(scale))?;
    let regression_summary = regression.evaluate(&campaign, &campaign.test, false)?;

    let mut table = TextTable::new(vec![
        "MODEL".into(),
        "MEAN".into(),
        "MEDIAN".into(),
        "PAPER MEAN".into(),
        "PAPER MEDIAN".into(),
    ]);
    table.add_row(vec![
        "NOBLE".into(),
        meters(noble_report.position_error.mean),
        meters(noble_report.position_error.median),
        "1.13".into(),
        "0.046".into(),
    ]);
    table.add_row(vec![
        "DEEP REGRESSION".into(),
        meters(regression_summary.mean),
        meters(regression_summary.median),
        "3.83".into(),
        "-".into(),
    ]);

    let mut out = String::new();
    out.push_str("IPIN-like single building (paper §IV-B text)\n");
    out.push_str(&format!(
        "train={} test={} waps={} | site leaderboard best (paper): 3.71 m mean\n\n",
        campaign.train.len(),
        campaign.test.len(),
        campaign.num_waps()
    ));
    out.push_str(&table.render());
    out.push('\n');
    out.push_str(&format!(
        "building acc {:.2}% floor acc {:.2}% | structure: {}\n",
        noble_report.building_accuracy * 100.0,
        noble_report.floor_accuracy * 100.0,
        noble_report.structure
    ));
    println!("{out}");
    Ok(out)
}
