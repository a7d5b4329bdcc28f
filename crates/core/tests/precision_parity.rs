//! Accuracy gates for the reduced-precision serving tier.
//!
//! Every lowered twin ([`noble::LoweredWifi`], [`noble::LoweredImu`])
//! must track its f64 progenitor within the f32 tier's tolerance: ≤ 1e-4
//! position error on every row (in practice the argmax decode absorbs
//! the ~1e-6 logit drift and positions match exactly; the gate leaves
//! headroom for borderline logit ties).
//!
//! The suite also pins the structural contracts: lowering never
//! perturbs the exact model (before/after snapshots byte-equal, f64
//! outputs bit-identical), a lowered twin's snapshot **is** the
//! progenitor's exact f64 snapshot, and lowered inference is
//! bit-stable across thread counts. CI greps for this suite by name —
//! do not rename it casually.

use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{hydrate, InferencePrecision, Localizer, SnapshotLocalizer};
use noble_datasets::{uji_campaign, ImuConfig, ImuDataset, ImuPathSample, UjiConfig};
use noble_geo::Point;
use noble_linalg::{num_threads, set_num_threads, Matrix};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A trained progenitor with probe features and its exact outputs.
struct Fixture {
    model: Box<dyn Localizer + Sync>,
    features: Matrix,
    exact: Vec<Point>,
}

fn wifi_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        let campaign = uji_campaign(&cfg).unwrap();
        let features = campaign.features(&campaign.test);
        let model = WifiNoble::train(
            &campaign,
            &WifiNobleConfig {
                epochs: 3,
                ..WifiNobleConfig::small()
            },
        )
        .unwrap();
        let exact = Localizer::localize_batch(&model, &features).unwrap();
        Fixture {
            model: Box::new(model),
            features,
            exact,
        }
    })
}

fn imu_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut cfg = ImuConfig::small();
        cfg.num_paths = 200;
        let dataset = ImuDataset::generate(&cfg).unwrap();
        let model = ImuNoble::train(
            &dataset,
            &ImuNobleConfig {
                epochs: 8,
                ..ImuNobleConfig::small()
            },
        )
        .unwrap();
        let refs: Vec<&ImuPathSample> = dataset.test.iter().collect();
        let features = model.path_features(&refs);
        let exact = Localizer::localize_batch(&model, &features).unwrap();
        Fixture {
            model: Box::new(model),
            features,
            exact,
        }
    })
}

fn fixtures() -> [&'static Fixture; 2] {
    [wifi_fixture(), imu_fixture()]
}

fn max_delta(a: &[Point], b: &[Point]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.distance(*y))
        .fold(0.0, f64::max)
}

#[test]
fn f32_twins_track_exact_within_1e4_position_error() {
    for fixture in fixtures() {
        let twin = fixture
            .model
            .try_lower(InferencePrecision::F32)
            .expect("NObLe models lower to f32");
        assert!(twin.info().model.ends_with("-f32"), "{}", twin.info().model);
        let got = twin.localize_batch(&fixture.features).unwrap();
        let delta = max_delta(&got, &fixture.exact);
        assert!(
            delta <= 1e-4,
            "{}: f32 position error {delta} exceeds the 1e-4 gate",
            twin.info().model
        );
    }
}

#[test]
fn exact_path_is_unperturbed_by_lowering() {
    for fixture in fixtures() {
        // Exact is not a lowering target: the model itself is the tier.
        assert!(fixture.model.try_lower(InferencePrecision::Exact).is_none());

        let before = fixture.model.try_snapshot().unwrap();
        let f32_twin = fixture.model.try_lower(InferencePrecision::F32).unwrap();
        f32_twin.localize_batch(&fixture.features).unwrap();
        let after = fixture.model.try_snapshot().unwrap();
        assert_eq!(
            before.to_bytes(),
            after.to_bytes(),
            "lowering or lowered inference perturbed the exact model"
        );

        // And the exact outputs themselves are byte-identical to the
        // reference captured before any lowering existed.
        let hydrated = hydrate(&after).unwrap();
        let got = hydrated.localize_batch(&fixture.features).unwrap();
        assert_eq!(got, fixture.exact, "exact tier drifted");
    }
}

#[test]
fn lowered_twin_snapshot_is_progenitors_exact_snapshot() {
    for fixture in fixtures() {
        let twin = fixture.model.try_lower(InferencePrecision::F32).unwrap();
        let twin_snap = twin
            .try_snapshot()
            .expect("lowered twins stay snapshotable for eviction write-through");
        let exact_snap = fixture.model.try_snapshot().unwrap();
        assert_eq!(
            twin_snap.to_bytes(),
            exact_snap.to_bytes(),
            "a lowered twin must persist its progenitor's exact f64 state"
        );
        // Hydrating that snapshot reproduces the exact tier bit-for-bit.
        let back = hydrate(&twin_snap).unwrap();
        let got = back.localize_batch(&fixture.features).unwrap();
        assert_eq!(got, fixture.exact);
    }
}

#[test]
fn lowered_inference_is_thread_count_bit_stable() {
    let saved = num_threads();
    for fixture in fixtures() {
        let twin = fixture.model.try_lower(InferencePrecision::F32).unwrap();
        set_num_threads(1);
        let single = twin.localize_batch(&fixture.features).unwrap();
        set_num_threads(4);
        let multi = twin.localize_batch(&fixture.features).unwrap();
        assert_eq!(
            single,
            multi,
            "{}: thread count changed lowered outputs",
            twin.info().model
        );
    }
    set_num_threads(saved);
}

#[test]
fn compact_f32_snapshot_shrinks_and_round_trips_within_tolerance() {
    for fixture in fixtures() {
        let exact_snap = fixture.model.try_snapshot().unwrap();
        let compact = {
            // snapshot_with is on the concrete models; go through the
            // typed constructors to reach it.
            match exact_snap.kind() {
                "wifi-noble" => WifiNoble::from_snapshot(&exact_snap)
                    .unwrap()
                    .snapshot_with(noble::ParamEncoding::F32),
                "imu-noble" => ImuNoble::from_snapshot(&exact_snap)
                    .unwrap()
                    .snapshot_with(noble::ParamEncoding::F32),
                kind => panic!("unexpected fixture kind {kind}"),
            }
        };
        // Parameter blobs dominate the payload, so narrowing halves most
        // of it; the quantizer tables and specs stay f64.
        assert!(
            (compact.payload().len() as f64) < 0.75 * exact_snap.payload().len() as f64,
            "{}: compact payload {} not substantially smaller than exact {}",
            exact_snap.kind(),
            compact.payload().len(),
            exact_snap.payload().len()
        );
        // A compact-hydrated model is an f64 model with f32-rounded
        // parameters: decode-level accuracy must hold at the f32 gate.
        let back = hydrate(&compact).unwrap();
        let got = back.localize_batch(&fixture.features).unwrap();
        let delta = max_delta(&got, &fixture.exact);
        assert!(
            delta <= 1e-4,
            "{}: compact round trip position error {delta} exceeds the 1e-4 gate",
            exact_snap.kind()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parity at tolerance holds on arbitrary batch slices, and lowered
    /// twins are batch-shape invariant: localizing a sub-batch returns
    /// exactly the corresponding rows of the full-batch result.
    #[test]
    fn lowered_parity_holds_on_arbitrary_batch_slices(
        kind in 0usize..2,
        start in 0usize..1 << 16,
        len in 1usize..48,
    ) {
        let fixture = fixtures()[kind];
        let n = fixture.features.rows();
        let start = start % n;
        let len = len.min(n - start);

        let twin = fixture.model.try_lower(InferencePrecision::F32).unwrap();
        let full = twin.localize_batch(&fixture.features).unwrap();

        let rows: Vec<Vec<f64>> = (start..start + len)
            .map(|i| fixture.features.row(i).to_vec())
            .collect();
        let sliced = twin.localize_rows(&rows).unwrap();
        prop_assert_eq!(&sliced, &full[start..start + len]);

        let delta = max_delta(&sliced, &fixture.exact[start..start + len]);
        prop_assert!(delta <= 1e-4, "slice position error {delta} exceeds 1e-4");
    }
}
