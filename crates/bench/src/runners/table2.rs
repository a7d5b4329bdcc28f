//! Table II: comparative position errors of the baselines on the UJI-like
//! campaign.
//!
//! Paper values (real UJIIndoorLoc): Deep Regression 10.17/7.84, Regression
//! Projection 9.76/7.16, Isomap DR 11.01/7.56, LLE DR 10.05/7.43 (mean/median
//! meters). Shape criteria: all baselines cluster well above NObLe's mean;
//! projection slightly improves on raw regression; manifold variants land in
//! the same band as regression.

use crate::config::{manifold_config, regression_config, uji_config, wifi_noble_config};
use crate::runners::RunnerResult;
use crate::Scale;
use noble::report::{meters, TextTable};
use noble::wifi::baselines::{DeepRegression, KnnFingerprint, ManifoldKind, ManifoldRegression};
use noble::wifi::WifiNoble;
use noble_datasets::uji_campaign;

/// Runs the experiment and renders the table.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;

    let mut table = TextTable::new(vec![
        "MODEL".into(),
        "MEAN".into(),
        "MEDIAN".into(),
        "PAPER MEAN".into(),
        "PAPER MEDIAN".into(),
    ]);

    let regression = DeepRegression::train(&campaign, &regression_config(scale))?;
    let raw = regression.evaluate(&campaign, &campaign.test, false)?;
    table.add_row(vec![
        "DEEP REGRESSION".into(),
        meters(raw.mean),
        meters(raw.median),
        "10.17".into(),
        "7.84".into(),
    ]);
    let projected = regression.evaluate(&campaign, &campaign.test, true)?;
    table.add_row(vec![
        "REGRESSION PROJECTION".into(),
        meters(projected.mean),
        meters(projected.median),
        "9.76".into(),
        "7.16".into(),
    ]);

    let isomap =
        ManifoldRegression::train(&campaign, &manifold_config(scale, ManifoldKind::Isomap))?;
    let isomap_summary = isomap.evaluate(&campaign, &campaign.test)?;
    table.add_row(vec![
        "ISOMAP DEEP REGRESSION".into(),
        meters(isomap_summary.mean),
        meters(isomap_summary.median),
        "11.01".into(),
        "7.56".into(),
    ]);

    let lle = ManifoldRegression::train(&campaign, &manifold_config(scale, ManifoldKind::Lle))?;
    let lle_summary = lle.evaluate(&campaign, &campaign.test)?;
    table.add_row(vec![
        "LLE DEEP REGRESSION".into(),
        meters(lle_summary.mean),
        meters(lle_summary.median),
        "10.05".into(),
        "7.43".into(),
    ]);

    // Reference rows beyond the paper's table: linear PCA embedding,
    // classic WkNN, and NObLe itself, so the comparison is self-contained.
    let pca = ManifoldRegression::train(&campaign, &manifold_config(scale, ManifoldKind::Pca))?;
    let pca_summary = pca.evaluate(&campaign, &campaign.test)?;
    table.add_row(vec![
        "PCA DEEP REGRESSION (ref)".into(),
        meters(pca_summary.mean),
        meters(pca_summary.median),
        "-".into(),
        "-".into(),
    ]);
    let knn = KnnFingerprint::fit(&campaign, 5)?;
    let knn_summary = knn.evaluate(&campaign, &campaign.test)?;
    table.add_row(vec![
        "WKNN FINGERPRINT (ref)".into(),
        meters(knn_summary.mean),
        meters(knn_summary.median),
        "-".into(),
        "-".into(),
    ]);
    let noble_model = WifiNoble::train(&campaign, &wifi_noble_config(scale))?;
    let noble_report = noble_model.evaluate(&campaign, &campaign.test)?;
    table.add_row(vec![
        "NOBLE (Table I)".into(),
        meters(noble_report.position_error.mean),
        meters(noble_report.position_error.median),
        "4.45".into(),
        "0.23".into(),
    ]);

    let mut out = String::new();
    out.push_str("TABLE II: comparative distance errors (m) on the UJI-like campaign\n\n");
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}
