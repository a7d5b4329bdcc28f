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
//! layer up is what catches silent payload damage. Compact
//! (`ParamEncoding::F32`) snapshots get the same truncation and
//! byte-flip treatment through `hydrate`, plus a parameter blob cut
//! mid-tensor.

use noble::imu::{ImuNoble, ImuNobleConfig};
use noble::wifi::{KnnFingerprint, WifiNoble, WifiNobleConfig};
use noble::{hydrate, Localizer, ModelSnapshot, NobleError, ParamEncoding, SnapshotLocalizer};
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
/// kind, trained once and shared by every test and proptest case, plus
/// the same model's compact (`ParamEncoding::F32`) snapshot.
struct Fixture {
    snapshot: ModelSnapshot,
    compact: ModelSnapshot,
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
            compact: wifi.snapshot_with(ParamEncoding::F32),
            reference: Localizer::localize_batch(&wifi, &wifi_features).unwrap(),
            features: wifi_features.clone(),
        });

        let knn = KnnFingerprint::fit(campaign, 4).unwrap();
        let knn_compact = knn.snapshot_with(ParamEncoding::F32);
        let knn_loc: Box<dyn Localizer> = Box::new(knn);
        out.push(Fixture {
            snapshot: knn_loc.try_snapshot().unwrap(),
            compact: knn_compact,
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
            compact: imu.snapshot_with(ParamEncoding::F32),
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
    }
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

    /// Any strict prefix of a compact snapshot's payload fails to
    /// hydrate with the typed error: every reader, down to the f32
    /// parameter decode, checks its length before it reads.
    #[test]
    fn compact_truncated_payload_is_typed_error(which in 0usize..2, cut in 0usize..1 << 20) {
        let snap = &fixtures()[COMPACT_KINDS[which]].compact;
        let cut = cut % snap.payload().len();
        match hydrate(&with_payload(snap, snap.payload()[..cut].to_vec())) {
            Err(NobleError::BadSnapshot(_)) => {}
            Err(e) => {
                prop_assert!(false, "wrong error type: {e}");
            }
            Ok(_) => {
                prop_assert!(false, "compact payload cut at {cut} hydrated");
            }
        }
    }

    /// [`corrupted_blob_never_panics`] for compact snapshots, whose
    /// parameter blobs decode f32 scalars.
    #[test]
    fn compact_corrupted_blob_never_panics(which in 0usize..2, pos in 0usize..1 << 20, flip in 1u8..=255) {
        flip_is_typed_or_coherent(&fixtures()[COMPACT_KINDS[which]].compact, pos, flip)?;
    }
}

/// Fixture indices whose compact snapshot narrows network parameters
/// (the kNN baseline has none, so its compact snapshot is the exact one).
const COMPACT_KINDS: [usize; 2] = [0, 2];

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

/// Cuts every compact parameter blob in the payload through the middle
/// of its first tensor, re-prefixing the blob with its new length so
/// the cut reaches the network reader, which must refuse it with the
/// typed error. (The reader's architecture-size check is what fires
/// here; `noble-nn`'s own serialize tests feed mid-tensor cuts straight
/// to `load_parameters` to reach the bulk decode's bounds check.)
#[test]
fn compact_param_blob_cut_mid_tensor_is_typed_error() {
    const HEADER: usize = 12; // magic, format version, tensor count
    for &kind in &COMPACT_KINDS {
        let snap = &fixtures()[kind].compact;
        let payload = snap.payload();
        let u32_at = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        // Each network's blob is `u64 length | "NOBL" | version 3 | ...`.
        let blobs: Vec<usize> = (8..payload.len() - 8)
            .filter(|&at| &payload[at..at + 4] == b"NOBL" && u32_at(at + 4) == 3)
            .collect();
        assert!(!blobs.is_empty(), "{}: no compact blob found", snap.kind());
        for start in blobs {
            let len = u64::from_le_bytes(payload[start - 8..start].try_into().unwrap()) as usize;
            let (rows, cols) = (u32_at(start + HEADER), u32_at(start + HEADER + 4));
            let first_tensor = (rows * cols) as usize * 4;
            assert!(first_tensor > 4, "{}: first tensor too small", snap.kind());
            let cut = HEADER + 8 + first_tensor / 2 + 1;
            let mut cut_payload = payload[..start - 8].to_vec();
            cut_payload.extend_from_slice(&(cut as u64).to_le_bytes());
            cut_payload.extend_from_slice(&payload[start..start + cut]);
            cut_payload.extend_from_slice(&payload[start + len..]);
            match hydrate(&with_payload(snap, cut_payload)) {
                Err(NobleError::BadSnapshot(_)) => {}
                Err(e) => panic!("{}: wrong error type: {e}", snap.kind()),
                Ok(_) => panic!("{}: blob cut mid-tensor hydrated", snap.kind()),
            }
        }
    }
}
