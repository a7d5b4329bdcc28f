//! Benchmark harness for the NObLe reproduction.
//!
//! One runner per table/figure of the paper (the README's experiment
//! index lists the matching `exp_*` binaries):
//!
//! | runner | paper artifact |
//! |---|---|
//! | [`runners::table1`] | Table I — NObLe on the UJI-like campaign |
//! | [`runners::table2`] | Table II — comparative baselines |
//! | [`runners::ipin`] | §IV-B — IPIN-like single building |
//! | [`runners::table3`] | Table III — IMU tracking |
//! | [`runners::fig1`] | Fig. 1 — ground-truth structure dump |
//! | [`runners::fig4`] | Fig. 4 — prediction scatter + structure metrics |
//! | [`runners::fig5`] | Fig. 5 — IMU scatter + structure metrics |
//! | [`runners::energy`] | §IV-C and §V-D — energy measurements |
//! | [`runners::ablation`] | design ablations — τ sweep, labels, aux heads, decode |
//! | [`runners::throughput`] | serving throughput — single vs batched vs threaded fixes/sec, bit-identical across modes |
//!
//! The serving stack above the kernels is measured by `e2ebench/` and
//! gated by the `noble-serve` and `noble-net` integration tests.
//!
//! Each runner honors [`Scale`]: `Scale::Quick` (set `NOBLE_QUICK=1`)
//! shrinks datasets and epochs so the whole suite runs in seconds; the
//! default `Scale::Full` uses the paper-scaled synthetic campaigns.
//! Artifact CSVs are written under `results/`.

pub mod config;
pub mod runners;

pub use config::Scale;

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes an artifact file under `results/`, creating the directory.
///
/// Returns the path written.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_artifact(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(content.as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_round_trip() {
        let p = write_artifact("test_artifact.csv", "a,b\n1,2\n").unwrap();
        let read = std::fs::read_to_string(&p).unwrap();
        assert!(read.contains("1,2"));
        std::fs::remove_file(p).ok();
    }
}
