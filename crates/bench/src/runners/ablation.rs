//! Ablations of NObLe's design choices.
//!
//! - `tau sweep` — the §III-B granularity trade-off: finer grids mean more
//!   classes, lower class accuracy, but lower decode error; position error
//!   is U-shaped in τ.
//! - `labels` — multi-resolution head and adjacency expansion on/off.
//! - `heads` — auxiliary building/floor heads on/off (the paper argues the
//!   joint heads supply geodesic information).
//! - `decode` — cell-center vs sample-mean decode.

use crate::config::{uji_config, wifi_noble_config};
use crate::runners::RunnerResult;
use crate::Scale;
use noble::report::{meters, percent, TextTable};
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble_datasets::{uji_campaign, WifiCampaign};
use noble_quantize::DecodePolicy;

fn eval_config(
    campaign: &WifiCampaign,
    cfg: &WifiNobleConfig,
) -> Result<(f64, f64, f64), Box<dyn std::error::Error>> {
    let mut model = WifiNoble::train(campaign, cfg)?;
    let report = model.evaluate(campaign, &campaign.test)?;
    Ok((
        report.position_error.mean,
        report.position_error.median,
        report.class_accuracy,
    ))
}

/// τ granularity sweep.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run_tau_sweep(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let base = wifi_noble_config(scale);
    let taus: Vec<f64> = match scale {
        Scale::Full => vec![0.5, 1.0, 2.0, 4.0, 8.0],
        Scale::Quick => vec![2.0, 4.0, 8.0],
    };
    let mut table = TextTable::new(vec![
        "TAU (M)".into(),
        "CLASSES".into(),
        "CLASS ACC (%)".into(),
        "MEAN (M)".into(),
        "MEDIAN (M)".into(),
    ]);
    for &tau in &taus {
        let mut cfg = base.clone();
        cfg.tau = tau;
        cfg.coarse_l = Some((tau * 8.0).max(cfg.coarse_l.unwrap_or(8.0)));
        let mut model = WifiNoble::train(&campaign, &cfg)?;
        let report = model.evaluate(&campaign, &campaign.test)?;
        table.add_row(vec![
            format!("{tau:.1}"),
            model.fine_quantizer().num_classes().to_string(),
            percent(report.class_accuracy),
            meters(report.position_error.mean),
            meters(report.position_error.median),
        ]);
    }
    let mut out = String::new();
    out.push_str("ABLATION: quantization granularity (tau sweep)\n\n");
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}

/// Label-construction ablation: multi-resolution and adjacency on/off.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run_labels(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let base = wifi_noble_config(scale);

    // The default config keeps adjacency off (`adjacency_weight: None`);
    // this ablation exercises the paper's multi-hot variant explicitly.
    let variants: Vec<(&str, WifiNobleConfig)> = vec![
        ("multi-res + adjacency (paper §III-B)", {
            let mut c = base.clone();
            c.adjacency_weight = Some(1.0);
            c
        }),
        ("multi-res only (default)", base.clone()),
        ("adjacency only", {
            let mut c = base.clone();
            c.coarse_l = None;
            c.adjacency_weight = Some(1.0);
            c
        }),
        ("neither (single head)", {
            let mut c = base.clone();
            c.coarse_l = None;
            c
        }),
    ];
    let mut table = TextTable::new(vec![
        "VARIANT".into(),
        "MEAN (M)".into(),
        "MEDIAN (M)".into(),
        "CLASS ACC (%)".into(),
    ]);
    for (name, cfg) in &variants {
        let (mean, median, acc) = eval_config(&campaign, cfg)?;
        table.add_row(vec![
            name.to_string(),
            meters(mean),
            meters(median),
            percent(acc),
        ]);
    }
    let mut out = String::new();
    out.push_str("ABLATION: label construction (paper §III-B sparsity remedies)\n\n");
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}

/// Auxiliary-head ablation: building/floor heads on/off.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run_heads(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let base = wifi_noble_config(scale);
    let variants: Vec<(&str, f64)> = vec![("aux heads on", 1.0), ("aux heads off", 0.0)];
    let mut table = TextTable::new(vec![
        "VARIANT".into(),
        "MEAN (M)".into(),
        "MEDIAN (M)".into(),
        "CLASS ACC (%)".into(),
    ]);
    for (name, w) in &variants {
        let mut cfg = base.clone();
        cfg.aux_head_weight = *w;
        let (mean, median, acc) = eval_config(&campaign, &cfg)?;
        table.add_row(vec![
            name.to_string(),
            meters(mean),
            meters(median),
            percent(acc),
        ]);
    }
    let mut out = String::new();
    out.push_str("ABLATION: auxiliary building/floor heads (paper §IV-A)\n\n");
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}

/// Decode-policy ablation: cell center vs training-sample mean.
///
/// # Errors
///
/// Propagates dataset and training failures.
pub fn run_decode(scale: Scale) -> RunnerResult {
    let campaign = uji_campaign(&uji_config(scale))?;
    let base = wifi_noble_config(scale);
    let variants: Vec<(&str, DecodePolicy)> = vec![
        (
            "sample mean (paper's central coords)",
            DecodePolicy::SampleMean,
        ),
        ("cell center", DecodePolicy::CellCenter),
    ];
    let mut table = TextTable::new(vec![
        "VARIANT".into(),
        "MEAN (M)".into(),
        "MEDIAN (M)".into(),
    ]);
    for (name, policy) in &variants {
        let mut cfg = base.clone();
        cfg.decode_policy = *policy;
        let (mean, median, _) = eval_config(&campaign, &cfg)?;
        table.add_row(vec![name.to_string(), meters(mean), meters(median)]);
    }
    let mut out = String::new();
    out.push_str("ABLATION: class decode policy\n\n");
    out.push_str(&table.render());
    println!("{out}");
    Ok(out)
}
