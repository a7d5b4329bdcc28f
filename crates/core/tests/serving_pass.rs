//! The serving pass of `WifiNoble` — `Localizer::localize_batch`, which
//! computes the fine head alone and skips the first layer's all-zero
//! input groups — must return the bits of the positions
//! `WifiNoble::predict` returns.
//!
//! It is checked on a model with the full-scale benchmark shapes (192
//! WAPs, hidden width 128, ~520 outputs) and on the quick 36-WAP shape,
//! at batches of 1 to 9, 18 and 64 rows taken at several offsets, with
//! NaN, ±inf and all-zero fingerprints mixed in. A model with one
//! non-finite first-layer weight behind a zero input group must give up
//! the skip and answer as `predict` does: `0 * NaN` is `NaN`. CI greps
//! for these test names; do not rename them casually.

use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{Localizer, ModelSnapshot, SnapshotLocalizer};
use noble_datasets::{uji_campaign, CampusConfig, UjiConfig};
use noble_geo::Point;
use noble_linalg::Matrix;
use std::sync::OnceLock;

/// A trained model and its probe fingerprints.
struct Fixture {
    model: WifiNoble,
    features: Matrix,
}

/// The full-scale campaign's shapes: 3 buildings x 4 floors x 16 WAPs =
/// 192 WAPs and the default model. One sample per reference point and
/// one epoch keep training affordable; the shapes, the sparsity of the
/// fingerprints and the fine head's width are what the pass depends on.
fn full_scale() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let campaign = uji_campaign(&UjiConfig {
            samples_per_reference: 1,
            test_samples_per_floor: 12,
            ..UjiConfig::default()
        })
        .unwrap();
        let model = WifiNoble::train(
            &campaign,
            &WifiNobleConfig {
                epochs: 1,
                patience: None,
                ..WifiNobleConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.feature_dim(), 192);
        fixture(model, campaign.features(&campaign.test))
    })
}

/// The quick campaign: 3 buildings x 2 floors x 6 WAPs = 36 WAPs.
fn quick() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let campaign = uji_campaign(&UjiConfig {
            references_per_floor: 25,
            samples_per_reference: 4,
            test_samples_per_floor: 30,
            waps_per_building_floor: 6,
            campus: CampusConfig {
                floors: 2,
                ..CampusConfig::default()
            },
            ..UjiConfig::default()
        })
        .unwrap();
        let model = WifiNoble::train(
            &campaign,
            &WifiNobleConfig {
                tau: 3.0,
                coarse_l: Some(12.0),
                epochs: 2,
                patience: None,
                ..WifiNobleConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.feature_dim(), 36);
        fixture(model, campaign.features(&campaign.test))
    })
}

/// Appends probe rows the campaign never produces: a silent scan (all
/// zeros), and rows carrying NaN, +inf and -inf among zero groups.
fn fixture(model: WifiNoble, test: Matrix) -> Fixture {
    let d = test.cols();
    let mut extra = Matrix::zeros(4, d);
    extra[(1, 5)] = f64::NAN;
    extra[(2, d - 1)] = f64::INFINITY;
    extra[(3, 0)] = f64::NEG_INFINITY;
    extra[(3, d / 2)] = 0.5;
    let features = extra.vstack(&test).unwrap();
    Fixture { model, features }
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

fn predicted_positions(model: &mut WifiNoble, features: &Matrix) -> Vec<Point> {
    model
        .predict(features)
        .unwrap()
        .into_iter()
        .map(|p| p.position)
        .collect()
}

/// Every slice of `batch` rows, at a few offsets, served by
/// `localize_batch` equals the same rows of `predict` over all rows.
fn check_batches(fixture: &Fixture, label: &str) {
    let mut model = fixture.model.clone();
    let features = &fixture.features;
    let m = features.rows();
    let reference = bits(&predicted_positions(&mut model, features));
    assert_eq!(
        bits(&Localizer::localize_batch(&mut model, features).unwrap()),
        reference,
        "{label}: all {m} rows"
    );
    for batch in (1..=9).chain([18, 64]) {
        for start in [0, 1, 3, m / 2, m - batch] {
            let rows: Vec<usize> = (start..start + batch).collect();
            let slice = features.select_rows(&rows);
            let served = bits(&Localizer::localize_batch(&mut model, &slice).unwrap());
            assert_eq!(
                served,
                reference[start..start + batch],
                "{label}: batch {batch} at row {start}"
            );
            assert_eq!(
                served,
                bits(&predicted_positions(&mut model, &slice)),
                "{label}: predict on batch {batch} at row {start}"
            );
        }
    }
}

#[test]
fn fine_head_pass_is_bit_identical_to_predict_on_full_scale_and_quick_models() {
    check_batches(quick(), "quick");
    check_batches(full_scale(), "full-scale");
}

/// `model` with first-layer weight `(wap, unit)` set to `value`, through
/// its snapshot: the parameter blob (magic `NOBL`, version, tensor
/// count, then rows, cols and the row-major f64 weights of the first
/// layer) is patched in place and hydrated, as a store would hand it
/// over.
fn with_first_layer_weight(model: &WifiNoble, wap: usize, unit: usize, value: f64) -> WifiNoble {
    let snapshot = model.snapshot();
    let mut payload = snapshot.payload().to_vec();
    let blob = payload
        .windows(4)
        .position(|w| w == b"NOBL")
        .expect("the payload nests a parameter blob");
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let (rows, cols) = (u32_at(blob + 12), u32_at(blob + 16));
    assert_eq!(rows, model.feature_dim());
    let at = blob + 20 + (wap * cols + unit) * 8;
    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let patched = ModelSnapshot::new(
        snapshot.kind(),
        snapshot.feature_dim(),
        snapshot.class_count(),
        payload,
    );
    WifiNoble::from_snapshot(&patched).unwrap()
}

#[test]
fn a_non_finite_weight_behind_a_zero_group_falls_back_to_the_full_product() {
    let fixture = quick();
    let features = &fixture.features;
    let d = features.cols();
    // The 4-WAP group that is all zeros in the most fingerprints.
    let zero_rows = |g: usize| -> Vec<usize> {
        (0..features.rows())
            .filter(|&i| {
                features.row(i)[g * 4..(g * 4 + 4).min(d)]
                    .iter()
                    .all(|&v| v == 0.0)
            })
            .collect()
    };
    let group = (0..d.div_ceil(4))
        .max_by_key(|&g| zero_rows(g).len())
        .unwrap();
    let silent = zero_rows(group);
    assert!(silent.len() >= 10, "the fixture has sparse fingerprints");
    let class_zero = fixture.model.fine_quantizer().decode(0).unwrap();
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut model = with_first_layer_weight(&fixture.model, group * 4 + 1, 7, value);
        // The same bits as `predict`, batched and one fix at a time.
        let reference = bits(&predicted_positions(&mut model, features));
        let served = bits(&Localizer::localize_batch(&mut model, features).unwrap());
        assert_eq!(served, reference, "{value}: all rows");
        for &i in &silent {
            let one = features.select_rows(&[i]);
            let alone = bits(&Localizer::localize_batch(&mut model, &one).unwrap());
            assert_eq!(alone, reference[i..=i], "{value}: row {i} alone");
            // 0 * NaN and 0 * inf are NaN, so every logit of the row is
            // NaN and the decode falls to class 0: the weight was read.
            assert_eq!(
                alone,
                bits(&[class_zero]),
                "{value}: row {i} skipped the weight"
            );
        }
    }
}
