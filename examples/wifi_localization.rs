//! Full WiFi localization campaign: NObLe against every baseline of the
//! paper's Table II, on one synthetic multi-building campus.
//!
//! Run with: `cargo run --release --example wifi_localization`
//! (add `NOBLE_SMALL=1` to shrink the campaign for a fast demo)

use noble_suite::noble::eval::StructureReport;
use noble_suite::noble::report::{meters, TextTable};
use noble_suite::noble::wifi::baselines::{
    DeepRegression, KnnFingerprint, ManifoldKind, ManifoldRegression, ManifoldRegressionConfig,
    RegressionConfig,
};
use noble_suite::noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_suite::noble_datasets::{uji_campaign, UjiConfig};
use noble_suite::noble_geo::Point;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let small = std::env::var("NOBLE_SMALL").is_ok();
    let campaign = if small {
        uji_campaign(&UjiConfig::small())?
    } else {
        let cfg = UjiConfig {
            references_per_floor: 40,
            samples_per_reference: 5,
            waps_per_building_floor: 10,
            ..UjiConfig::default()
        };
        uji_campaign(&cfg)?
    };
    println!(
        "campaign: {} buildings, {} WAPs, {} train / {} val / {} test fingerprints\n",
        campaign.map.building_count(),
        campaign.num_waps(),
        campaign.train.len(),
        campaign.val.len(),
        campaign.test.len()
    );

    let mut table = TextTable::new(vec![
        "MODEL".into(),
        "MEAN (M)".into(),
        "MEDIAN (M)".into(),
        "ON-MAP %".into(),
    ]);
    let features = campaign.features(&campaign.test);
    let truth: Vec<Point> = campaign.test.iter().map(|s| s.position).collect();

    let structure = |preds: &[Point]| -> Result<String, Box<dyn std::error::Error>> {
        let r = StructureReport::compute(preds, &campaign.map)?;
        Ok(format!("{:.1}", r.on_map_fraction * 100.0))
    };
    let err = |preds: &[Point]| noble_suite::noble::eval::position_error_summary(preds, &truth);

    // NObLe.
    let noble_cfg = if small {
        WifiNobleConfig::small()
    } else {
        WifiNobleConfig {
            tau: 2.0,
            coarse_l: Some(10.0),
            ..WifiNobleConfig::default()
        }
    };
    let noble_model = WifiNoble::train(&campaign, &noble_cfg)?;
    let noble_preds: Vec<Point> = noble_model
        .predict(&features)?
        .into_iter()
        .map(|p| p.position)
        .collect();
    let s = err(&noble_preds)?;
    table.add_row(vec![
        "NObLe".into(),
        meters(s.mean),
        meters(s.median),
        structure(&noble_preds)?,
    ]);

    // Deep regression, raw and projected.
    let reg_cfg = if small {
        RegressionConfig::small()
    } else {
        RegressionConfig::default()
    };
    let regression = DeepRegression::train(&campaign, &reg_cfg)?;
    let raw = regression.predict(&features)?;
    let s = err(&raw)?;
    table.add_row(vec![
        "Deep Regression".into(),
        meters(s.mean),
        meters(s.median),
        structure(&raw)?,
    ]);
    let projected = regression.predict_projected(&features, &campaign)?;
    let s = err(&projected)?;
    table.add_row(vec![
        "Regression Projection".into(),
        meters(s.mean),
        meters(s.median),
        structure(&projected)?,
    ]);

    // Manifold embeddings.
    for kind in [ManifoldKind::Isomap, ManifoldKind::Lle] {
        let cfg = if small {
            ManifoldRegressionConfig::small(kind)
        } else {
            ManifoldRegressionConfig {
                kind,
                ..ManifoldRegressionConfig::default()
            }
        };
        let model = ManifoldRegression::train(&campaign, &cfg)?;
        let preds = model.predict(&features)?;
        let s = err(&preds)?;
        table.add_row(vec![
            format!("{kind:?} Regression"),
            meters(s.mean),
            meters(s.median),
            structure(&preds)?,
        ]);
    }

    // Classic weighted kNN.
    let knn = KnnFingerprint::fit(&campaign, 5)?;
    let knn_preds: Vec<Point> = (0..features.rows())
        .map(|i| knn.predict_one(features.row(i)).0)
        .collect();
    let s = err(&knn_preds)?;
    table.add_row(vec![
        "WkNN Fingerprint".into(),
        meters(s.mean),
        meters(s.median),
        structure(&knn_preds)?,
    ]);

    println!("{}", table.render());
    Ok(())
}
