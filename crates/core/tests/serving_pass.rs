//! The serving pass of `WifiNoble` — `Localizer::localize_batch`, which
//! computes the fine head alone, skips the first layer's all-zero input
//! groups and, on a full-scale head, picks the class through the
//! certified f32 screen — must return the bits of the positions
//! `WifiNoble::predict` returns.
//!
//! It is checked on a model with the full-scale benchmark shapes (192
//! WAPs, hidden width 128, ~520 outputs, screened) and on the quick
//! 36-WAP shape (below the screen's threshold), at batches of 1 to 9, 18
//! and 64 rows taken at several offsets, with NaN, ±inf and all-zero
//! fingerprints mixed in. A model with one non-finite first-layer weight
//! behind a zero input group must give up the skip and answer as
//! `predict` does: `0 * NaN` is `NaN`. The screen is driven to its edges
//! by patching the fine head in a snapshot: a near tie that the f32
//! scores rank the wrong way round, an exact tie (the first index wins),
//! f32 scores that overflow to NaN while the exact logit is finite and
//! wins, and head weights that are not finite or exceed `f32::MAX` (no
//! screen). CI greps for these test names; do not rename them casually.

use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{Localizer, ModelSnapshot, SnapshotLocalizer};
use noble_datasets::{uji_campaign, CampusConfig, UjiConfig};
use noble_geo::Point;
use noble_linalg::{matmul_f32, Matrix, MatrixF32};
use noble_nn::SCREEN_MIN_ROW_FLOPS;
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
    // The screen engages from `k × n` of the last layer: the quick model
    // sits below its threshold, the full-scale one above.
    let head = |f: &Fixture| *f.model.dense_shapes().last().unwrap();
    let (k, n) = head(quick());
    assert!(k * n < SCREEN_MIN_ROW_FLOPS, "quick head {k}x{n}");
    let (k, n) = head(full_scale());
    assert!(k * n >= SCREEN_MIN_ROW_FLOPS, "full-scale head {k}x{n}");
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

/// Byte offsets of the last dense layer's weights (`k × n`, row-major
/// f64) and biases (`n`) in the parameter blob nested in `payload`: the
/// last two tensors, each prefixed by its rows and cols.
fn head_offsets(payload: &[u8]) -> ((usize, usize, usize), usize) {
    let blob = payload
        .windows(4)
        .position(|w| w == b"NOBL")
        .expect("the payload nests a parameter blob");
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let mut at = blob + 12;
    let mut tensors = Vec::new();
    for _ in 0..u32_at(blob + 8) {
        let (rows, cols) = (u32_at(at), u32_at(at + 4));
        tensors.push((at + 8, rows, cols));
        at += 8 + rows * cols * 8;
    }
    let (bias, bias_rows, _) = tensors[tensors.len() - 1];
    assert_eq!(bias_rows, 1);
    (tensors[tensors.len() - 2], bias)
}

/// The last dense layer's weights and biases of `model`.
fn head_of(model: &WifiNoble) -> (Matrix, Vec<f64>) {
    let snapshot = model.snapshot();
    let payload = snapshot.payload();
    let ((at, k, n), bias) = head_offsets(payload);
    let f64_at = |at: usize| f64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
    let w = Matrix::from_fn(k, n, |i, j| f64_at(at + (i * n + j) * 8));
    (w, (0..n).map(|j| f64_at(bias + j * 8)).collect())
}

/// `model` with its last dense layer replaced by `w` and `b`, through its
/// snapshot, as a store would hand it over.
fn with_head(model: &WifiNoble, w: &Matrix, b: &[f64]) -> WifiNoble {
    let snapshot = model.snapshot();
    let mut payload = snapshot.payload().to_vec();
    let ((at, k, n), bias) = head_offsets(&payload);
    assert_eq!(w.shape(), (k, n));
    for (i, v) in w.as_slice().iter().enumerate() {
        payload[at + i * 8..at + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    for (j, v) in b.iter().enumerate() {
        payload[bias + j * 8..bias + j * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
    let patched = ModelSnapshot::new(
        snapshot.kind(),
        snapshot.feature_dim(),
        snapshot.class_count(),
        payload,
    );
    WifiNoble::from_snapshot(&patched).unwrap()
}

/// The fine head's columns in the last layer: the layout is building,
/// floor, fine, then the optional coarse head.
fn fine_columns(model: &WifiNoble) -> std::ops::Range<usize> {
    let total = model.dense_shapes().last().unwrap().1;
    let coarse = model.coarse_quantizer().map_or(0, |q| q.num_classes());
    let start = total - coarse - model.class_count();
    start..start + model.class_count()
}

/// For row `row` of the full-scale fixture: its last-layer input `h`, the
/// exact products `h·W` of the head and their f32 counterparts — the
/// products the exact kernel and the screen's f32 kernel compute.
fn products(model: &WifiNoble, row: usize) -> (Matrix, Vec<f64>, Vec<f64>) {
    let h = model
        .clone()
        .embed(&full_scale().features.select_rows(&[row]))
        .unwrap();
    let (w, _) = head_of(model);
    let exact = h.matmul(&w).unwrap().as_slice().to_vec();
    let f32s = matmul_f32(&MatrixF32::from_f64(&h), &MatrixF32::from_f64(&w)).unwrap();
    let f32s = f32s.as_slice().iter().map(|&v| f64::from(v)).collect();
    (h, exact, f32s)
}

/// The row of the full-scale fixture the patched-head tests aim at: the
/// first campaign fingerprint after the four probe rows.
const TARGET: usize = 4;

#[test]
fn a_near_tie_the_f32_scores_misorder_is_resolved_by_the_exact_logits() {
    let base = &full_scale().model;
    let fine = fine_columns(base);
    let (_, exact, f32s) = products(base, TARGET);
    // The two fine classes whose f32 products err furthest apart.
    let err = |j: usize| f32s[j] - exact[j];
    let c = fine
        .clone()
        .max_by(|&a, &b| err(a).total_cmp(&err(b)))
        .unwrap();
    let d = fine
        .clone()
        .min_by(|&a, &b| err(a).total_cmp(&err(b)))
        .unwrap();
    let spread = err(c) - err(d);
    assert!(spread > 0.0, "the f32 products all err alike");
    // Lift both far above every other class, `d` by half the spread more
    // than `c`: the exact logits rank `d` first, the f32 scores `c`.
    let (w, mut b) = head_of(base);
    let top = fine
        .clone()
        .map(|j| exact[j] + b[j])
        .fold(f64::NEG_INFINITY, f64::max)
        + 1.0;
    b[c] = top - exact[c];
    b[d] = top - exact[d] + spread / 2.0;
    let logit = |j: usize, p: &[f64]| p[j] + b[j];
    assert!(logit(d, &exact) > logit(c, &exact), "exact order");
    assert!(logit(c, &f32s) > logit(d, &f32s), "f32 order");
    assert!(
        fine.clone()
            .all(|j| j == c || logit(c, &f32s) > logit(j, &f32s)),
        "c is the f32 winner"
    );
    let mut model = with_head(base, &w, &b);
    let features = &full_scale().features;
    let predicted = predicted_positions(&mut model, &features.select_rows(&[TARGET]));
    let decode = |j: usize| model.fine_quantizer().decode(j - fine.start).unwrap();
    assert_eq!(bits(&predicted), bits(&[decode(d)]), "predict picks d");
    assert_ne!(bits(&[decode(c)]), bits(&[decode(d)]));
    check_batches(
        &Fixture {
            model,
            features: features.clone(),
        },
        "near tie",
    );
}

#[test]
fn an_exact_tie_goes_to_the_first_class() {
    let base = &full_scale().model;
    let fine = fine_columns(base);
    let (mut w, mut b) = head_of(base);
    // Two far-apart fine classes with the same weights and a bias above
    // every other logit: their logits are equal, bit for bit, in every
    // row, so the first of them is every row's class.
    let (c, d) = (fine.start + 3, fine.end - 2);
    for i in 0..w.rows() {
        w[(i, d)] = w[(i, c)];
    }
    b[c] = 1e3;
    b[d] = 1e3;
    let mut model = with_head(base, &w, &b);
    let features = &full_scale().features;
    let predicted = predicted_positions(&mut model, features);
    let first = model.fine_quantizer().decode(c - fine.start).unwrap();
    // The NaN probe row has no finite logit and decodes to class 0.
    let class_zero = model.fine_quantizer().decode(0).unwrap();
    for (i, p) in predicted.iter().enumerate() {
        let want = if i == 1 { class_zero } else { first };
        assert_eq!(bits(&[*p]), bits(&[want]), "row {i}");
    }
    check_batches(
        &Fixture {
            model,
            features: features.clone(),
        },
        "exact tie",
    );
}

#[test]
fn non_finite_fingerprints_and_overflowing_f32_scores_take_the_exact_path() {
    // The probe rows (NaN, +inf, -inf, all zeros) ride in every batch of
    // the full-scale fixture; here a head column is also patched so that
    // its f32 score overflows to NaN (+inf, then -inf, within the sum)
    // while its exact logit is finite and the largest.
    let base = &full_scale().model;
    let fine = fine_columns(base);
    // Depth groups of four whose |h| sums exceed 1: ±f32::MAX weights
    // over such a group overflow its f32 sum. The first row with two.
    let hidden = base.clone().embed(&full_scale().features).unwrap();
    let mass = |h: &[f64], g: usize| h[g * 4..g * 4 + 4].iter().map(|v| v.abs()).sum::<f64>();
    let heavy =
        |h: &[f64]| -> Vec<usize> { (0..h.len() / 4).filter(|&g| mass(h, g) > 1.05).collect() };
    let row = (0..hidden.rows())
        .find(|&i| heavy(hidden.row(i)).len() >= 2)
        .expect("a row with two heavy groups");
    let h = hidden.row(row);
    let heavy = heavy(h);
    let (up, down) = if mass(h, heavy[0]) > mass(h, heavy[1]) {
        (heavy[0], heavy[1])
    } else {
        (heavy[1], heavy[0])
    };
    let (mut w, b) = head_of(base);
    let d = fine.start + 11;
    let big = f64::from(f32::MAX);
    for (g, sign) in [(up, 1.0), (down, -1.0)] {
        for k in g * 4..g * 4 + 4 {
            w[(k, d)] = sign * big * h[k].signum();
        }
    }
    let mut model = with_head(base, &w, &b);
    let (_, exact, f32s) = products(&model, row);
    assert!(
        f32s[d].is_nan(),
        "row {row}: the f32 score overflows to NaN"
    );
    assert!(
        exact[d].is_finite() && exact[d] > 1e30,
        "row {row}: the exact logit wins"
    );
    let predicted = predicted_positions(&mut model, &full_scale().features.select_rows(&[row]));
    let want = model.fine_quantizer().decode(d - fine.start).unwrap();
    assert_eq!(
        bits(&predicted),
        bits(&[want]),
        "predict picks the patched class"
    );
    check_batches(
        &Fixture {
            model,
            features: full_scale().features.clone(),
        },
        "overflowing f32 scores",
    );
}

#[test]
fn head_weights_that_are_not_finite_or_exceed_f32_leave_the_exact_path() {
    let base = &full_scale().model;
    let fine = fine_columns(base);
    for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e39, -4e38] {
        let (mut w, b) = head_of(base);
        w[(17, fine.start + 5)] = value;
        let model = with_head(base, &w, &b);
        check_batches(
            &Fixture {
                model,
                features: full_scale().features.clone(),
            },
            &format!("head weight {value:e}"),
        );
    }
}
