//! WiFi fingerprint localization (paper §IV).
//!
//! [`WifiNoble`] is the paper's system: space quantization of the output
//! coordinates (fine grid `τ`, optional coarse grid `l`), a two-hidden-layer
//! tanh/batch-norm network, and a multi-head output — building and floor
//! softmax heads plus the multi-label neighborhood-class head trained with
//! binary cross-entropy (Fig. 3). Inference decodes the predicted class to
//! its neighborhood's central coordinates.
//!
//! The module is split along the model's life cycle:
//!
//! - [`model`](self) — configuration, architecture and training
//!   ([`WifiNoble::train`]),
//! - decode — the inference paths ([`WifiNoble::predict`],
//!   [`WifiNoble::localize_batch`], probability-weighted decode,
//!   evaluation),
//! - localize — [`crate::Localizer`] impls for NObLe and the baselines,
//!   the serving layer's entry point.
//!
//! The comparison models of Table II live in [`baselines`].

pub mod baselines;
pub mod tracking;

mod decode;
mod localize;
mod model;
mod snapshot;

pub use baselines::KnnFingerprint;
pub use model::{WifiEvalReport, WifiNoble, WifiNobleConfig, WifiPrediction};

/// Snapshot kind tag of [`WifiNoble`] (also its
/// [`crate::LocalizerInfo::model`] label).
pub const WIFI_NOBLE_KIND: &str = "wifi-noble";

/// Snapshot kind tag of [`baselines::KnnFingerprint`].
pub const KNN_FINGERPRINT_KIND: &str = "knn-fingerprint";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localizer::Localizer;
    use noble_datasets::{uji_campaign, UjiConfig, WifiCampaign};

    fn quick_campaign() -> WifiCampaign {
        let mut cfg = UjiConfig::small();
        cfg.seed = 42;
        uji_campaign(&cfg).unwrap()
    }

    #[test]
    fn trains_and_beats_chance() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let report = model.evaluate(&campaign, &campaign.test).unwrap();
        // 3 buildings: chance = 1/3. The model must be far above that.
        assert!(
            report.building_accuracy > 0.8,
            "building accuracy {}",
            report.building_accuracy
        );
        assert!(
            report.position_error.mean < 60.0,
            "mean {}",
            report.position_error.mean
        );
        // Decoded positions are training centroids, hence on the map.
        assert!(report.structure.on_map_fraction > 0.95);
    }

    #[test]
    fn predictions_decode_to_occupied_cells() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let features = campaign.features(&campaign.test[..5.min(campaign.test.len())]);
        let preds = model.predict(&features).unwrap();
        for p in &preds {
            assert!(p.fine_class < model.fine_quantizer().num_classes());
            assert!(p.building < campaign.map.building_count());
        }
    }

    #[test]
    fn localize_batch_matches_per_sample_path() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let features = campaign.features(&campaign.test[..12.min(campaign.test.len())]);
        let rows: Vec<Vec<f64>> = (0..features.rows())
            .map(|i| features.row(i).to_vec())
            .collect();

        let batched = model.localize_batch(&rows).unwrap();
        assert_eq!(batched.len(), rows.len());
        for (row, b) in rows.iter().zip(&batched) {
            let single = model.localize_one(row).unwrap();
            assert_eq!(single.fine_class, b.fine_class);
            assert_eq!(single.building, b.building);
            assert_eq!(single.floor, b.floor);
            // Kernel dispatch is per-row, so the batch ride-along changes
            // nothing — not even the last bit.
            assert_eq!(single.position, b.position);
        }
        // And both agree with the matrix-level predict path.
        let matrix_preds = model.predict(&features).unwrap();
        for (m, b) in matrix_preds.iter().zip(&batched) {
            assert_eq!(m, b);
        }
        assert!(model.localize_batch(&[]).unwrap().is_empty());
        assert!(model.localize_batch(&[vec![0.0], vec![0.0, 1.0]]).is_err());
    }

    #[test]
    fn localizer_trait_matches_inherent_path() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let features = campaign.features(&campaign.test[..8.min(campaign.test.len())]);

        let info = Localizer::info(&model);
        assert_eq!(info.model, "wifi-noble");
        assert_eq!(info.feature_dim, campaign.num_waps());
        assert_eq!(info.class_count, model.fine_quantizer().num_classes());

        let via_trait = Localizer::localize_batch(&model, &features).unwrap();
        let via_predict = model.predict(&features).unwrap();
        assert_eq!(via_trait.len(), via_predict.len());
        for (t, p) in via_trait.iter().zip(&via_predict) {
            assert_eq!(*t, p.position);
        }
        // Width mismatch is a typed error, not a panic.
        let bad = noble_linalg::Matrix::zeros(1, campaign.num_waps() + 1);
        assert!(Localizer::localize_batch(&model, &bad).is_err());
    }

    #[test]
    fn rejects_empty_campaign_and_bad_config() {
        let campaign = quick_campaign();
        let mut empty = campaign.clone();
        empty.train.clear();
        assert!(WifiNoble::train(&empty, &WifiNobleConfig::small()).is_err());

        let mut bad = WifiNobleConfig::small();
        bad.coarse_l = Some(bad.tau); // not strictly coarser
        assert!(WifiNoble::train(&campaign, &bad).is_err());
    }

    #[test]
    fn single_resolution_and_no_adjacency_also_train() {
        let campaign = quick_campaign();
        let mut cfg = WifiNobleConfig::small();
        cfg.coarse_l = None;
        cfg.adjacency_weight = None;
        cfg.epochs = 8;
        let model = WifiNoble::train(&campaign, &cfg).unwrap();
        assert!(model.coarse_quantizer().is_none());
        let report = model.evaluate(&campaign, &campaign.test).unwrap();
        assert!(report.position_error.mean.is_finite());
    }

    #[test]
    fn embedding_has_hidden_width() {
        let campaign = quick_campaign();
        let cfg = WifiNobleConfig::small();
        let model = WifiNoble::train(&campaign, &cfg).unwrap();
        let f = campaign.features(&campaign.test[..3.min(campaign.test.len())]);
        let e = model.embed(&f).unwrap();
        assert_eq!(e.cols(), cfg.hidden_dim);
    }

    #[test]
    fn evaluate_rejects_empty() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        assert!(model.evaluate(&campaign, &[]).is_err());
    }

    #[test]
    fn expected_decode_stays_near_argmax_decode() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let features = campaign.features(&campaign.test[..8.min(campaign.test.len())]);
        let argmax_preds = model.predict(&features).unwrap();
        let expected = model.predict_expected(&features, 3).unwrap();
        assert_eq!(expected.len(), argmax_preds.len());

        // The expectation is a convex combination of fine-cell centroids, so
        // it must stay inside their bounding box, and its distance from the
        // arg-max centroid is bounded by the probability mass the model puts
        // on the *other* top-k cells times the largest centroid spread.
        let centroids: Vec<noble_geo::Point> = (0..model.fine_quantizer().num_classes())
            .map(|c| model.fine_quantizer().decode(c).unwrap())
            .collect();
        let min_x = centroids.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let max_x = centroids
            .iter()
            .map(|p| p.x)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_y = centroids.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
        let max_y = centroids
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max);
        let spread = centroids
            .iter()
            .flat_map(|a| centroids.iter().map(move |b| a.distance(*b)))
            .fold(0.0f64, f64::max);
        for ((pos, confidence), amax) in expected.iter().zip(&argmax_preds) {
            assert!((0.0..=1.0).contains(confidence));
            assert!(
                (min_x - 1e-9..=max_x + 1e-9).contains(&pos.x)
                    && (min_y - 1e-9..=max_y + 1e-9).contains(&pos.y),
                "expected decode {pos} escapes the centroid bounding box"
            );
            assert!(
                pos.distance(amax.position) <= (1.0 - confidence) * spread + 1e-9,
                "expected decode {pos} vs argmax {} exceeds mass bound",
                amax.position
            );
        }
        assert!(model.predict_expected(&features, 0).is_err());
    }

    #[test]
    fn expected_decode_k1_matches_argmax() {
        let campaign = quick_campaign();
        let model = WifiNoble::train(&campaign, &WifiNobleConfig::small()).unwrap();
        let features = campaign.features(&campaign.test[..5.min(campaign.test.len())]);
        let argmax_preds = model.predict(&features).unwrap();
        let top1 = model.predict_expected(&features, 1).unwrap();
        for ((pos, _), amax) in top1.iter().zip(&argmax_preds) {
            assert!(pos.distance(amax.position) < 1e-9);
        }
    }
}
