//! Serving shard workers own their cores: kernels under them run serial.
//!
//! A `ProbeLocalizer` records what `noble_linalg::num_threads()` reports
//! inside `localize_batch`. Under a process-wide override of 4 it must
//! see 1 on the resident and on the demand-paged worker, so a batch never
//! spawns matmul threads on a machine the workers already saturate,
//! while the thread that started the server still sees 4. This suite is
//! its own test binary because the override is process-global.

use noble::{Localizer, LocalizerInfo, NobleError};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    BatchConfig, BatchServer, CatalogBudget, ModelCatalog, ShardKey, ShardedRegistry,
};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

/// Reports the worker count its serving thread sees on every batch.
struct ProbeLocalizer {
    seen: Sender<usize>,
}

impl Localizer for ProbeLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "thread-probe",
            site: "default".into(),
            feature_dim: 2,
            class_count: 0,
        }
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let _ = self.seen.send(noble_linalg::num_threads());
        Ok(vec![Point::new(0.0, 0.0); features.rows()])
    }
}

fn probe() -> (Box<dyn Localizer>, Receiver<usize>) {
    let (seen, rx) = mpsc::channel();
    (Box::new(ProbeLocalizer { seen }), rx)
}

/// Submits a few fixes, waits for their replies and returns every count
/// the worker reported.
fn serve_and_observe(server: &BatchServer, seen: &Receiver<usize>) -> Vec<usize> {
    let client = server.client();
    let pendings: Vec<_> = (0..16)
        .map(|_| {
            client
                .submit(ShardKey::building(0), vec![0.5, 0.5])
                .expect("submit")
        })
        .collect();
    for pending in pendings {
        pending.wait().expect("fix served");
    }
    let counts: Vec<usize> = seen.try_iter().collect();
    assert!(!counts.is_empty(), "the probe never ran");
    counts
}

#[test]
fn shard_workers_run_kernels_serial_while_the_caller_keeps_its_override() {
    noble_linalg::set_num_threads(4);
    let cfg = BatchConfig {
        latency_budget: Duration::from_millis(1),
        ..BatchConfig::default()
    };

    let (model, seen) = probe();
    let mut registry = ShardedRegistry::new();
    registry.insert(ShardKey::building(0), model);
    let server = BatchServer::start(registry, cfg).expect("resident server starts");
    let resident = serve_and_observe(&server, &seen);
    server.shutdown();

    let (model, seen) = probe();
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(1)).expect("catalog");
    catalog
        .insert(ShardKey::building(0), model)
        .expect("insert");
    let server = BatchServer::start(catalog, cfg).expect("paged server starts");
    let paged = serve_and_observe(&server, &seen);
    server.shutdown();

    let caller = noble_linalg::num_threads();
    noble_linalg::set_num_threads(0);
    assert!(
        resident.iter().all(|&n| n == 1),
        "resident worker saw {resident:?}"
    );
    assert!(paged.iter().all(|&n| n == 1), "paged worker saw {paged:?}");
    assert_eq!(caller, 4, "the calling thread keeps the override");
}
