//! Snapshot round-trip guarantees for every snapshotable model kind.
//!
//! The load-bearing property: `hydrate(snapshot(m))` localizes
//! **bit-identically** to `m` for WifiNoble, ImuNoble and
//! KnnFingerprint. CI greps for this suite by name — do not rename it
//! casually.
//!
//! The adversarial half: corrupt, truncated and version-skewed blobs
//! must decode to the typed [`NobleError::BadSnapshot`] — never a panic,
//! never a huge allocation. Byte flips inside the f64 payload can decode
//! to a *different but valid* model (bits are bits); the property there
//! is "typed error or clean hydrate", and the checksummed file store one
//! layer up is what catches silent payload damage. A network parameter
//! blob in the retired version-3 layout (f32 scalars) is one more
//! version skew.

use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::wifi::{KnnFingerprint, WifiNoble, WifiNobleConfig};
use noble::{hydrate, Localizer, ModelSnapshot, NobleError, SnapshotLocalizer};
use noble_datasets::{uji_campaign, ImuConfig, ImuDataset, ImuPathSample, UjiConfig, WifiCampaign};
use noble_linalg::Matrix;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

fn campaign() -> &'static WifiCampaign {
    static CAMPAIGN: OnceLock<WifiCampaign> = OnceLock::new();
    CAMPAIGN.get_or_init(|| {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        uji_campaign(&cfg).unwrap()
    })
}

fn imu_dataset() -> &'static ImuDataset {
    static DATASET: OnceLock<ImuDataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        let mut cfg = ImuConfig::small();
        cfg.num_paths = 200;
        ImuDataset::generate(&cfg).unwrap()
    })
}

/// One (snapshot, probe features, reference outputs) triple per model
/// kind, trained once and shared by every test and proptest case.
struct Fixture {
    snapshot: ModelSnapshot,
    features: Matrix,
    reference: Vec<noble_geo::Point>,
}

fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let campaign = campaign();
        let wifi_features = campaign.features(&campaign.test);
        let mut out = Vec::new();

        let wifi = WifiNoble::train(
            campaign,
            &WifiNobleConfig {
                epochs: 3,
                ..WifiNobleConfig::small()
            },
        )
        .unwrap();
        out.push(Fixture {
            snapshot: SnapshotLocalizer::snapshot(&wifi),
            reference: Localizer::localize_batch(&wifi, &wifi_features).unwrap(),
            features: wifi_features.clone(),
        });

        let knn = KnnFingerprint::fit(campaign, 4).unwrap();
        let knn_loc: Box<dyn Localizer> = Box::new(knn);
        out.push(Fixture {
            snapshot: knn_loc.try_snapshot().unwrap(),
            reference: knn_loc.localize_batch(&wifi_features).unwrap(),
            features: wifi_features,
        });

        let dataset = imu_dataset();
        let imu = ImuNoble::train(
            dataset,
            &ImuNobleConfig {
                epochs: 8,
                ..ImuNobleConfig::small()
            },
        )
        .unwrap();
        let refs: Vec<&ImuPathSample> = dataset.test.iter().collect();
        let imu_features = imu.path_features(&refs);
        out.push(Fixture {
            snapshot: SnapshotLocalizer::snapshot(&imu),
            reference: Localizer::localize_batch(&imu, &imu_features).unwrap(),
            features: imu_features,
        });
        out
    })
}

#[test]
fn roundtrip_localizes_bit_identically_for_all_kinds() {
    for fixture in fixtures() {
        let encoded = fixture.snapshot.to_bytes();
        let decoded = ModelSnapshot::from_bytes(&encoded).unwrap();
        assert_eq!(decoded, fixture.snapshot);

        let hydrated = hydrate(&decoded)
            .unwrap_or_else(|e| panic!("{} failed to hydrate: {e}", fixture.snapshot.kind()));
        let info = hydrated.info();
        assert_eq!(info.model, fixture.snapshot.kind());
        assert_eq!(info.feature_dim, fixture.snapshot.feature_dim());
        assert_eq!(info.class_count, fixture.snapshot.class_count());

        let got = hydrated.localize_batch(&fixture.features).unwrap();
        assert_eq!(
            got,
            fixture.reference,
            "{}: hydrated model diverged from the original (bit-exactness broken)",
            fixture.snapshot.kind()
        );
    }
}

#[test]
fn double_roundtrip_is_stable() {
    // snapshot(hydrate(snapshot(m))) must byte-equal snapshot(m): no
    // state is lost or mangled by a hydrate.
    for fixture in fixtures() {
        let once = hydrate(&fixture.snapshot).unwrap();
        let again = once
            .try_snapshot()
            .expect("hydrated models stay snapshotable");
        assert_eq!(
            again.to_bytes(),
            fixture.snapshot.to_bytes(),
            "{}: second-generation snapshot drifted",
            fixture.snapshot.kind()
        );
    }
}

#[test]
fn version_skew_is_a_typed_error() {
    for fixture in fixtures() {
        // Container version lives right after the 4-byte magic.
        let mut skewed = fixture.snapshot.to_bytes();
        skewed[4] = skewed[4].wrapping_add(7);
        match ModelSnapshot::from_bytes(&skewed) {
            Err(NobleError::BadSnapshot(msg)) => {
                assert!(msg.contains("version"), "unexpected message: {msg}")
            }
            other => panic!("container version skew not rejected: {other:?}"),
        }
        // Payload version is the first u32 of the payload.
        let mut payload = fixture.snapshot.payload().to_vec();
        payload[0] = payload[0].wrapping_add(9);
        let snap = ModelSnapshot::new(
            fixture.snapshot.kind(),
            fixture.snapshot.feature_dim(),
            fixture.snapshot.class_count(),
            payload,
        );
        match hydrate(&snap) {
            Err(NobleError::BadSnapshot(msg)) => {
                assert!(msg.contains("version"), "unexpected message: {msg}")
            }
            Ok(_) => panic!("{}: payload version skew hydrated", fixture.snapshot.kind()),
            Err(e) => panic!("wrong error type: {e}"),
        }
        // Network parameter blobs of the retired version 3: first with
        // only the version field changed, then re-encoded whole (f32
        // scalars, as the compact writer stored them).
        let kind = fixture.snapshot.kind();
        for reencode in [false, true] {
            let (payload, blobs) = with_version_3_blobs(fixture.snapshot.payload(), reencode);
            if blobs == 0 {
                assert_eq!(
                    kind,
                    noble::wifi::KNN_FINGERPRINT_KIND,
                    "no network blob found"
                );
                continue;
            }
            match hydrate(&with_payload(&fixture.snapshot, payload)) {
                Err(NobleError::BadSnapshot(msg)) => assert!(
                    msg.contains("version 3"),
                    "{kind} (re-encoded: {reencode}): unexpected message: {msg}"
                ),
                Ok(_) => panic!("{kind}: a version-3 parameter blob hydrated"),
                Err(e) => panic!("{kind}: wrong error type: {e}"),
            }
        }
    }
}

/// Rewrites every network parameter blob of `payload` (each one
/// `u64 length | "NOBL" | version 2 | ...`) as version 3: with
/// `reencode`, every scalar narrowed to f32 and the blob re-prefixed
/// with its new length; without it, only the version field. Returns the
/// new payload and the number of blobs rewritten.
fn with_version_3_blobs(payload: &[u8], reencode: bool) -> (Vec<u8>, usize) {
    let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
    let (mut out, mut blobs, mut at) = (Vec::new(), 0, 0);
    for start in 8..payload.len().saturating_sub(8) {
        if start < at || &payload[start..start + 4] != b"NOBL" || u32_at(start + 4) != 2 {
            continue;
        }
        let len = u64::from_le_bytes(payload[start - 8..start].try_into().unwrap()) as usize;
        let end = start + len;
        let mut blob = payload[start..start + 12].to_vec();
        blob[4] = 3;
        let mut pos = start + 12;
        let scalars = |blob: &mut Vec<u8>, pos: &mut usize, n: usize| {
            for _ in 0..n {
                let v = f64::from_le_bytes(payload[*pos..*pos + 8].try_into().unwrap());
                blob.extend_from_slice(&(v as f32).to_le_bytes());
                *pos += 8;
            }
        };
        if reencode {
            for _ in 0..u32_at(start + 8) {
                blob.extend_from_slice(&payload[pos..pos + 8]);
                pos += 8;
                let n = u32_at(pos - 8) * u32_at(pos - 4);
                scalars(&mut blob, &mut pos, n);
            }
            blob.extend_from_slice(&payload[pos..pos + 4]);
            pos += 4;
            for _ in 0..u32_at(pos - 4) {
                blob.extend_from_slice(&payload[pos..pos + 4]);
                pos += 4;
                let n = u32_at(pos - 4);
                scalars(&mut blob, &mut pos, n);
            }
            assert_eq!(pos, end, "the blob parses to its length");
        } else {
            blob.extend_from_slice(&payload[pos..end]);
        }
        out.extend_from_slice(&payload[at..start - 8]);
        out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
        out.extend_from_slice(&blob);
        (at, blobs) = (end, blobs + 1);
    }
    out.extend_from_slice(&payload[at..]);
    (out, blobs)
}

#[test]
fn kind_mismatch_is_a_typed_error() {
    let fixtures = fixtures();
    // Re-label each payload with every *other* kind: hydration must fail
    // with a typed error (the payload parsers disagree), never panic.
    for a in fixtures {
        for b in fixtures {
            if a.snapshot.kind() == b.snapshot.kind() {
                continue;
            }
            let mislabeled = ModelSnapshot::new(
                b.snapshot.kind(),
                a.snapshot.feature_dim(),
                a.snapshot.class_count(),
                a.snapshot.payload().to_vec(),
            );
            assert!(
                matches!(hydrate(&mislabeled), Err(NobleError::BadSnapshot(_))),
                "{} payload labeled {} did not error",
                a.snapshot.kind(),
                b.snapshot.kind()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict prefix of an encoded snapshot is a typed error: the
    /// container pins its total length, so truncation can never parse.
    #[test]
    fn truncated_blob_is_typed_error(kind in 0usize..3, cut in 0usize..1 << 20) {
        let fixture = &fixtures()[kind];
        let bytes = fixture.snapshot.to_bytes();
        let cut = cut % bytes.len();
        match ModelSnapshot::from_bytes(&bytes[..cut]) {
            Err(NobleError::BadSnapshot(_)) => {}
            other => {
                prop_assert!(false, "truncation at {cut} parsed: {other:?}");
            }
        }
    }

    /// A single flipped byte anywhere in the blob either fails with the
    /// typed error or decodes to a *valid* model (flips inside f64
    /// parameter data are legal bit patterns) — it must never panic and
    /// never produce a model whose metadata disagrees with its payload.
    #[test]
    fn corrupted_blob_never_panics(kind in 0usize..3, pos in 0usize..1 << 20, flip in 1u8..=255) {
        flip_is_typed_or_coherent(&fixtures()[kind].snapshot, pos, flip)?;
    }
}

fn with_payload(snap: &ModelSnapshot, payload: Vec<u8>) -> ModelSnapshot {
    ModelSnapshot::new(snap.kind(), snap.feature_dim(), snap.class_count(), payload)
}

/// Flips one byte of `snapshot`'s encoding; decoding and hydrating the
/// result must give the typed error or a coherent model, never a panic.
fn flip_is_typed_or_coherent(
    snapshot: &ModelSnapshot,
    pos: usize,
    flip: u8,
) -> Result<(), TestCaseError> {
    let mut bytes = snapshot.to_bytes();
    let pos = pos % bytes.len();
    bytes[pos] ^= flip;
    match ModelSnapshot::from_bytes(&bytes) {
        Err(NobleError::BadSnapshot(_)) => {}
        Err(e) => {
            prop_assert!(false, "wrong error type: {e}");
        }
        Ok(snap) => match hydrate(&snap) {
            Err(NobleError::BadSnapshot(_)) => {}
            Err(e) => {
                prop_assert!(false, "wrong error type: {e}");
            }
            Ok(model) => {
                // Survived the flip: it must still be a coherent
                // localizer for its declared feature width.
                let info = model.info();
                prop_assert!(info.feature_dim == snap.feature_dim());
                let probe = Matrix::zeros(1, info.feature_dim);
                // May legitimately fail (e.g. NaN weights), but only
                // with a typed error.
                let _ = model.localize_batch(&probe);
            }
        },
    }
    Ok(())
}
