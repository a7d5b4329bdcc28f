//! Quickstart: train NObLe on a synthetic WiFi fingerprint campaign and
//! localize a held-out scan, in under twenty lines of code.
//!
//! Run with: `cargo run --release --example quickstart`

use noble_suite::noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_suite::noble_datasets::{uji_campaign, UjiConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small three-building campus with simulated RSSI fingerprints.
    let campaign = uji_campaign(&UjiConfig::small())?;

    // Train the structure-aware localizer.
    let model = WifiNoble::train(&campaign, &WifiNobleConfig::small())?;

    // Localize one held-out fingerprint...
    let features = campaign.features(&campaign.test[..1]);
    let prediction = &model.predict(&features)?[0];
    let truth = &campaign.test[0];
    println!(
        "predicted {} in building {} floor {}",
        prediction.position, prediction.building, prediction.floor
    );
    println!(
        "actual    {} in building {} floor {}",
        truth.position, truth.building, truth.floor
    );

    // ...and evaluate the whole held-out set.
    let report = model.evaluate(&campaign, &campaign.test)?;
    println!(
        "test set: mean error {:.2} m, median {:.2} m, building accuracy {:.1}%",
        report.position_error.mean,
        report.position_error.median,
        report.building_accuracy * 100.0
    );
    Ok(())
}
