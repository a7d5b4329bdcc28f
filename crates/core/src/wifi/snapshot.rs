//! Snapshot (de)serialization of the WiFi models: [`WifiNoble`] and the
//! [`KnnFingerprint`] radio-map baseline.
//!
//! Both payloads carry *everything* inference touches — network
//! architecture, parameters with batch-norm running statistics,
//! quantizer tables, radio maps — so a hydrated model localizes
//! **bit-identically** to the one that produced the snapshot (pinned by
//! the `snapshot_roundtrip` suite).

use super::baselines::KnnFingerprint;
use super::model::WifiNoble;
use super::{KNN_FINGERPRINT_KIND, WIFI_NOBLE_KIND};
use crate::snapshot::{
    bad, read_layout, read_mlp, read_quantizer, write_layout, write_mlp_with, write_quantizer,
    ModelSnapshot, SnapReader, SnapWriter,
};
use crate::{NobleError, ParamEncoding, SnapshotLocalizer};
use noble_manifold::KdTree;

/// Payload format version of [`WifiNoble`] snapshots.
const WIFI_PAYLOAD_VERSION: u32 = 1;

/// Payload format version of [`KnnFingerprint`] snapshots.
const KNN_PAYLOAD_VERSION: u32 = 1;

impl SnapshotLocalizer for WifiNoble {
    fn snapshot(&self) -> ModelSnapshot {
        self.snapshot_with(ParamEncoding::F64)
    }

    fn snapshot_with(&self, encoding: ParamEncoding) -> ModelSnapshot {
        let mut w = SnapWriter::new();
        w.u32(WIFI_PAYLOAD_VERSION);
        write_mlp_with(&mut w, &self.mlp, encoding);
        write_layout(&mut w, &self.layout);
        write_quantizer(&mut w, &self.fine);
        match &self.coarse {
            Some(c) => {
                w.u8(1);
                write_quantizer(&mut w, c);
            }
            None => w.u8(0),
        }
        ModelSnapshot::new(
            WIFI_NOBLE_KIND,
            self.feature_dim(),
            self.class_count(),
            w.buf,
        )
    }
}

impl WifiNoble {
    /// Rebuilds a model from a [`WIFI_NOBLE_KIND`] snapshot.
    ///
    /// # Errors
    ///
    /// [`NobleError::BadSnapshot`] on a wrong kind tag, payload version
    /// skew, corruption, or metadata that disagrees with the payload.
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Result<Self, NobleError> {
        if snapshot.kind() != WIFI_NOBLE_KIND {
            return Err(bad(format!(
                "expected a {WIFI_NOBLE_KIND} snapshot, found '{}'",
                snapshot.kind()
            )));
        }
        let mut r = SnapReader::new(snapshot.payload());
        let version = r.u32()?;
        if version != WIFI_PAYLOAD_VERSION {
            return Err(bad(format!(
                "unsupported {WIFI_NOBLE_KIND} payload version {version}"
            )));
        }
        let mlp = read_mlp(&mut r)?;
        let layout = read_layout(&mut r)?;
        let fine = read_quantizer(&mut r)?;
        let coarse = match r.u8()? {
            0 => None,
            1 => Some(read_quantizer(&mut r)?),
            t => return Err(bad(format!("bad coarse-quantizer flag {t}"))),
        };
        r.finish()?;

        let head = |name: &str| {
            layout
                .head_index(name)
                .ok_or_else(|| bad(format!("snapshot layout is missing the '{name}' head")))
        };
        let model = WifiNoble {
            head_building: head("building")?,
            head_floor: head("floor")?,
            head_fine: head("fine")?,
            mlp,
            layout,
            fine,
            coarse,
        };
        if model.mlp.out_dim() != model.layout.total_width() {
            return Err(bad(format!(
                "network output width {} disagrees with layout width {}",
                model.mlp.out_dim(),
                model.layout.total_width()
            )));
        }
        if model.feature_dim() != snapshot.feature_dim()
            || model.class_count() != snapshot.class_count()
        {
            return Err(bad(
                "snapshot header metadata disagrees with payload".to_string()
            ));
        }
        Ok(model)
    }
}

impl SnapshotLocalizer for KnnFingerprint {
    fn snapshot(&self) -> ModelSnapshot {
        let mut w = SnapWriter::new();
        w.u32(KNN_PAYLOAD_VERSION);
        w.u64(self.k as u64);
        w.u64(self.feature_dim as u64);
        // The tree rebuilds deterministically from its point rows, so the
        // radio map is the only geometry that travels.
        w.matrix(self.tree.points());
        w.points(&self.positions);
        w.usizes(&self.buildings);
        w.usizes(&self.floors);
        ModelSnapshot::new(KNN_FINGERPRINT_KIND, self.feature_dim, 0, w.buf)
    }
}

impl KnnFingerprint {
    /// Rebuilds a radio map from a [`KNN_FINGERPRINT_KIND`] snapshot.
    ///
    /// # Errors
    ///
    /// [`NobleError::BadSnapshot`] on a wrong kind tag, version skew,
    /// corruption, or label tables whose lengths disagree with the radio
    /// map.
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Result<Self, NobleError> {
        if snapshot.kind() != KNN_FINGERPRINT_KIND {
            return Err(bad(format!(
                "expected a {KNN_FINGERPRINT_KIND} snapshot, found '{}'",
                snapshot.kind()
            )));
        }
        let mut r = SnapReader::new(snapshot.payload());
        let version = r.u32()?;
        if version != KNN_PAYLOAD_VERSION {
            return Err(bad(format!(
                "unsupported {KNN_FINGERPRINT_KIND} payload version {version}"
            )));
        }
        let k = r.usize()?;
        let feature_dim = r.usize()?;
        let radio_map = r.matrix()?;
        let positions = r.points()?;
        let buildings = r.usizes()?;
        let floors = r.usizes()?;
        r.finish()?;

        if k == 0 {
            return Err(bad("k must be positive".to_string()));
        }
        if radio_map.rows() == 0 {
            return Err(bad("radio map is empty".to_string()));
        }
        if radio_map.cols() != feature_dim {
            return Err(bad(format!(
                "radio map width {} disagrees with feature dim {feature_dim}",
                radio_map.cols()
            )));
        }
        let n = radio_map.rows();
        if positions.len() != n || buildings.len() != n || floors.len() != n {
            return Err(bad(format!(
                "label tables ({}, {}, {}) disagree with {n} radio-map rows",
                positions.len(),
                buildings.len(),
                floors.len()
            )));
        }
        if feature_dim != snapshot.feature_dim() {
            return Err(bad(
                "snapshot header metadata disagrees with payload".to_string()
            ));
        }
        Ok(KnnFingerprint {
            tree: KdTree::build(&radio_map),
            positions,
            buildings,
            floors,
            k,
            feature_dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hydrate, Localizer};
    use noble_datasets::{uji_campaign, UjiConfig};

    #[test]
    fn knn_round_trip_is_bit_identical() {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        let campaign = uji_campaign(&cfg).unwrap();
        let model = KnnFingerprint::fit(&campaign, 4).unwrap();
        let snap = SnapshotLocalizer::snapshot(&model);
        assert_eq!(snap.kind(), KNN_FINGERPRINT_KIND);

        let back = hydrate(&snap).unwrap();
        let features = campaign.features(&campaign.test);
        let original: Box<dyn Localizer> = Box::new(model);
        assert_eq!(
            original.localize_batch(&features).unwrap(),
            back.localize_batch(&features).unwrap()
        );
        assert_eq!(original.info().feature_dim, back.info().feature_dim);
    }

    #[test]
    fn trained_and_hydrated_models_carry_no_optimizer_state() {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        let campaign = uji_campaign(&cfg).unwrap();
        let trained = WifiNoble::train(
            &campaign,
            &crate::wifi::WifiNobleConfig {
                epochs: 2,
                ..crate::wifi::WifiNobleConfig::small()
            },
        )
        .unwrap();
        let hydrated = WifiNoble::from_snapshot(&trained.snapshot()).unwrap();
        for (name, model) in [("trained", &trained), ("hydrated", &hydrated)] {
            for p in model.mlp.params() {
                for buf in [&p.grad, &p.m, &p.v] {
                    assert_eq!(buf.shape(), (0, 0), "{name} model kept optimizer state");
                }
            }
        }
    }

    #[test]
    fn knn_rejects_inconsistent_tables() {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        let campaign = uji_campaign(&cfg).unwrap();
        let model = KnnFingerprint::fit(&campaign, 4).unwrap();
        let snap = SnapshotLocalizer::snapshot(&model);
        // Re-label the payload as the wrong kind.
        let wrong = ModelSnapshot::new(
            WIFI_NOBLE_KIND,
            snap.feature_dim(),
            0,
            snap.payload().to_vec(),
        );
        assert!(KnnFingerprint::from_snapshot(&snap).is_ok());
        assert!(KnnFingerprint::from_snapshot(&wrong).is_err());
        assert!(WifiNoble::from_snapshot(&wrong).is_err()); // corrupt payload
    }
}
