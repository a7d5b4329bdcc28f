//! End-to-end WiFi localization: the paper's headline claim on a small
//! synthetic campaign — NObLe must beat coordinate regression on both
//! accuracy and structure awareness.

use noble_suite::noble::eval::StructureReport;
use noble_suite::noble::wifi::baselines::{DeepRegression, KnnFingerprint, RegressionConfig};
use noble_suite::noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_suite::noble_datasets::{uji_campaign, UjiConfig, WifiCampaign};
use noble_suite::noble_geo::Point;

fn campaign() -> WifiCampaign {
    let mut cfg = UjiConfig::small();
    cfg.references_per_floor = 16;
    cfg.samples_per_reference = 5;
    cfg.waps_per_building_floor = 6;
    cfg.test_samples_per_floor = 25;
    cfg.seed = 2024;
    uji_campaign(&cfg).expect("campaign generation")
}

fn noble_config() -> WifiNobleConfig {
    WifiNobleConfig {
        tau: 3.0,
        coarse_l: Some(12.0),
        hidden_dim: 96,
        epochs: 40,
        patience: None,
        ..WifiNobleConfig::default()
    }
}

#[test]
fn noble_beats_deep_regression_on_position_error() {
    let campaign = campaign();
    let noble_model = WifiNoble::train(&campaign, &noble_config()).expect("noble training");
    let noble_report = noble_model
        .evaluate(&campaign, &campaign.test)
        .expect("noble eval");

    let regression = DeepRegression::train(
        &campaign,
        &RegressionConfig {
            hidden_dim: 96,
            epochs: 40,
            ..RegressionConfig::small()
        },
    )
    .expect("regression training");
    let regression_summary = regression
        .evaluate(&campaign, &campaign.test, false)
        .expect("regression eval");

    assert!(
        noble_report.position_error.mean < regression_summary.mean,
        "NObLe mean {} must beat regression mean {}",
        noble_report.position_error.mean,
        regression_summary.mean
    );
    assert!(
        noble_report.position_error.median < regression_summary.median,
        "NObLe median {} must beat regression median {}",
        noble_report.position_error.median,
        regression_summary.median
    );
}

#[test]
fn noble_predictions_respect_structure() {
    let campaign = campaign();
    let noble_model = WifiNoble::train(&campaign, &noble_config()).expect("noble training");
    let features = campaign.features(&campaign.test);
    let preds: Vec<Point> = noble_model
        .predict(&features)
        .expect("predict")
        .into_iter()
        .map(|p| p.position)
        .collect();
    let structure = StructureReport::compute(&preds, &campaign.map).expect("structure");
    // Class centroids are means of on-map training points inside one cell;
    // allow a small tolerance for centroids of corner cells.
    assert!(
        structure.on_map_fraction > 0.9,
        "NObLe on-map fraction {}",
        structure.on_map_fraction
    );
    assert!(structure.mean_off_map_distance < 1.0);
}

#[test]
fn deep_regression_predicts_off_map_noble_does_not() {
    let campaign = campaign();
    let regression =
        DeepRegression::train(&campaign, &RegressionConfig::small()).expect("training");
    let features = campaign.features(&campaign.test);
    let raw = regression.predict(&features).expect("predict");
    let raw_structure = StructureReport::compute(&raw, &campaign.map).expect("structure");
    // Regression has no notion of the map: a noticeable share of its
    // predictions must land off accessible space (courtyards/gaps).
    assert!(
        raw_structure.on_map_fraction < 0.9,
        "regression on-map fraction suspiciously high: {}",
        raw_structure.on_map_fraction
    );
}

#[test]
fn building_and_floor_heads_are_accurate() {
    let campaign = campaign();
    let noble_model = WifiNoble::train(&campaign, &noble_config()).expect("training");
    let report = noble_model
        .evaluate(&campaign, &campaign.test)
        .expect("eval");
    assert!(
        report.building_accuracy > 0.9,
        "building accuracy {}",
        report.building_accuracy
    );
    assert!(
        report.floor_accuracy > 0.7,
        "floor accuracy {}",
        report.floor_accuracy
    );
}

#[test]
fn noble_competitive_with_knn_radio_map() {
    let campaign = campaign();
    let noble_model = WifiNoble::train(&campaign, &noble_config()).expect("training");
    let noble_report = noble_model
        .evaluate(&campaign, &campaign.test)
        .expect("eval");
    let knn = KnnFingerprint::fit(&campaign, 5).expect("knn");
    let knn_summary = knn.evaluate(&campaign, &campaign.test).expect("knn eval");
    // NObLe should at least be in the same class as WkNN (within 2x).
    assert!(
        noble_report.position_error.mean < knn_summary.mean * 2.0,
        "NObLe {} vs kNN {}",
        noble_report.position_error.mean,
        knn_summary.mean
    );
}
