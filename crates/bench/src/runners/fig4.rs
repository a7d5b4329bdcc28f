//! Fig. 4: predicted-coordinate scatter of the four models.
//!
//! The paper shows Deep Regression spraying predictions off-map (including
//! into courtyards), Regression Projection and Isomap regression
//! intermediate, and NObLe tracing the building rings sharply. This runner
//! dumps one CSV per model and prints the structure metrics that make the
//! visual claim quantitative: on-map fraction and mean off-map distance.
//! Expected ordering: NObLe ≈ Projection > Isomap ≈ LLE > Deep Regression
//! on on-map fraction.

use crate::config::{manifold_config, regression_config, uji_config, wifi_noble_config};
use crate::runners::fig1::csv_points;
use crate::runners::RunnerResult;
use crate::{write_artifact, Scale};
use noble::eval::StructureReport;
use noble::report::TextTable;
use noble::wifi::baselines::{DeepRegression, ManifoldKind, ManifoldRegression};
use noble::wifi::WifiNoble;
use noble_datasets::uji_campaign;
use noble_geo::Point;

/// Runs the experiment.
///
/// # Errors
///
/// Propagates dataset, training and I/O failures.
pub fn run(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let features = campaign.features(&campaign.test);

    let regression = DeepRegression::train(&campaign, &regression_config(scale))?;
    let raw = regression.predict(&features)?;
    let projected = regression.predict_projected(&features, &campaign)?;

    let isomap =
        ManifoldRegression::train(&campaign, &manifold_config(scale, ManifoldKind::Isomap))?;
    let isomap_preds = isomap.predict(&features)?;

    let noble_model = WifiNoble::train(&campaign, &wifi_noble_config(scale))?;
    let noble_preds: Vec<Point> = noble_model
        .predict(&features)?
        .into_iter()
        .map(|p| p.position)
        .collect();

    let models: Vec<(&str, &Vec<Point>)> = vec![
        ("deep_regression", &raw),
        ("regression_projection", &projected),
        ("isomap_regression", &isomap_preds),
        ("noble", &noble_preds),
    ];

    let mut table = TextTable::new(vec![
        "MODEL (Fig. 4 panel)".into(),
        "ON-MAP %".into(),
        "MEAN OFF-MAP (M)".into(),
        "MAX OFF-MAP (M)".into(),
    ]);
    let mut out = String::new();
    out.push_str("FIG 4: predicted coordinates, structure metrics per panel\n\n");
    for (name, preds) in &models {
        let csv = csv_points("x,y", preds);
        let path = write_artifact(&format!("fig4_{name}.csv"), &csv)?;
        let report = StructureReport::compute(preds, &campaign.map)?;
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
