//! Queue-depth / in-flight gauges and typed shutdown rejections.
//!
//! A `GatedLocalizer` blocks inside `localize_batch` until the test
//! releases it, which freezes the server mid-request: gauge values are
//! then exact, not sampled. The same gate pins the two shutdown
//! contracts: a request submitted to a hot shard once shutdown has begun
//! (a registry-started, fully resident server) or parked in a warming
//! queue the shutdown strands (a budgeted catalog) is answered with the
//! typed `ServeError::ShuttingDown`, never a dropped reply.
//!
//! A model that panics inside `localize_batch` is supervised at the batch
//! boundary: its riders get `ServeError::Internal`, its shard keeps
//! answering, the other shards keep theirs, and the gauges settle. One
//! that panics elsewhere never wedges the server: a panicking drain
//! write-through counts as a failed write, so the model stays resident
//! and keeps serving, and a worker that panics in lowering exits through
//! its drop, which releases its slot, its drain and its catalog hold. A
//! store that panics while a worker faults a model in leaves no catalog
//! state behind either.

mod common;

use common::FaultyStore;
use noble::wifi::KnnFingerprint;
use noble::{Localizer, LocalizerInfo, NobleError};
use noble_datasets::{uji_campaign, UjiConfig};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{
    BatchConfig, BatchServer, CatalogBudget, ModelCatalog, ServeError, ServerStats, ShardKey,
    ShardedRegistry,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Blocks in `localize_batch` until the test sends a token; announces
/// each entry so tests know exactly when the worker is frozen.
struct GatedLocalizer {
    dim: usize,
    entered: Sender<()>,
    gate: Mutex<Receiver<()>>,
    out: Point,
}

impl Localizer for GatedLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "gated-test",
            site: "default".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let _ = self.entered.send(());
        let _ = self.gate.lock().map(|gate| gate.recv());
        Ok(vec![self.out; features.rows()])
    }
}

fn gated_registry() -> (ShardedRegistry, Sender<()>, Receiver<()>) {
    let (gate_tx, gate_rx) = std::sync::mpsc::channel();
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let mut registry = ShardedRegistry::new();
    registry.insert(
        ShardKey::building(0),
        Box::new(GatedLocalizer {
            dim: 4,
            entered: entered_tx,
            gate: Mutex::new(gate_rx),
            out: Point::new(3.0, 4.0),
        }),
    );
    (registry, gate_tx, entered_rx)
}

fn one_by_one() -> BatchConfig {
    BatchConfig {
        max_batch: 1,
        latency_budget: Duration::ZERO,
        ..BatchConfig::default()
    }
}

/// With the worker frozen inside a batch, the gauges read exactly:
/// everything submitted is in flight, everything not yet dequeued is
/// queued — and both settle back to zero once the replies land.
#[test]
fn gauges_track_queued_and_in_flight_exactly() {
    let (registry, gate, entered) = gated_registry();
    let server = BatchServer::start(registry, one_by_one()).expect("server starts");
    let client = server.client();

    let pendings: Vec<_> = (0..3)
        .map(|_| {
            client
                .submit(ShardKey::building(0), vec![0.5; 4])
                .expect("submit")
        })
        .collect();
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("worker reaches the model");

    // Worker frozen on request 1: requests 2 and 3 still queued, all
    // three submitted-but-unreplied.
    assert_eq!(
        server.server_stats(),
        ServerStats {
            queue_depth: 2,
            in_flight: 3,
            shards: 1,
        }
    );
    let per_shard = server.stats();
    assert_eq!(per_shard.len(), 1);
    assert_eq!(per_shard[0].1.queue_depth, 2);
    assert_eq!(per_shard[0].1.in_flight, 3);

    for _ in 0..3 {
        gate.send(()).expect("release batch");
    }
    for pending in pendings {
        let point = pending.wait().expect("fix served");
        assert_eq!((point.x, point.y), (3.0, 4.0));
    }
    // The gauge contract: a request's contribution is released before
    // its reply is sent, so replies in hand mean gauges at zero.
    assert_eq!(
        server.server_stats(),
        ServerStats {
            queue_depth: 0,
            in_flight: 0,
            shards: 1,
        }
    );
    server.shutdown();
}

/// A fix submitted to a resident shard once shutdown has begun is
/// answered with the typed shutting-down error, not a dropped reply
/// channel.
#[test]
fn static_shutdown_answers_fixes_parked_behind_the_marker() {
    let (registry, gate, entered) = gated_registry();
    let server = BatchServer::start(registry, one_by_one()).expect("server starts");
    let client = server.client();

    let p0 = client
        .submit(ShardKey::building(0), vec![0.5; 4])
        .expect("submit");
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("worker reaches the model");

    // Shutdown queues its marker while the worker is frozen...
    let stopper = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(50));

    // ...so this fix lands *behind* the marker (or is refused at
    // submit, if the race resolves the other way — both are typed).
    let late = client.submit(ShardKey::building(0), vec![0.5; 4]);

    gate.send(()).expect("release the frozen batch");
    let point = p0.wait().expect("in-service fix completes");
    assert_eq!((point.x, point.y), (3.0, 4.0));
    match late {
        Ok(pending) => assert!(
            matches!(pending.wait(), Err(ServeError::ShuttingDown)),
            "fix behind the shutdown marker must get the typed rejection"
        ),
        Err(e) => assert!(matches!(e, ServeError::ShuttingDown)),
    }
    stopper.join().expect("shutdown thread");
}

/// Paged server, one budget slot: a cold request parked in a warming
/// worker's queue while another shard holds the slot is answered with
/// the typed shutting-down error when shutdown strands it — the
/// warming worker must not fault in (or retrain) a model just to serve
/// stragglers during teardown.
#[test]
fn paged_shutdown_answers_fixes_parked_on_a_warming_shard() {
    let campaign = uji_campaign(&UjiConfig::small()).expect("campaign");
    let knn = KnnFingerprint::fit(&campaign, 3).expect("knn fits");
    let dim = campaign.num_waps();

    let (gate_tx, gate_rx) = std::sync::mpsc::channel();
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let mut catalog = ModelCatalog::new(CatalogBudget::Count(1)).expect("catalog");
    // Insert the snapshotable model first: inserting the (unsnapshotable,
    // hence unevictable) gated model second forces the kNN out to the
    // store, leaving building 1 cold and the single slot gated.
    catalog
        .insert(ShardKey::building(1), Box::new(knn))
        .expect("insert knn");
    catalog
        .insert(
            ShardKey::building(0),
            Box::new(GatedLocalizer {
                dim: 4,
                entered: entered_tx,
                gate: Mutex::new(gate_rx),
                out: Point::new(3.0, 4.0),
            }),
        )
        .expect("insert gated");

    let server = BatchServer::start(catalog, one_by_one()).expect("paged server starts");
    let client = server.client();

    let p0 = client
        .submit(ShardKey::building(0), vec![0.5; 4])
        .expect("submit to the hot shard");
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("hot worker reaches the model");

    // Cold shard: its warming worker cannot admit (the slot is held by
    // the frozen shard) and parks the fix.
    let p1 = client
        .submit(ShardKey::building(1), vec![0.0; dim])
        .expect("submit to the cold shard");
    std::thread::sleep(Duration::from_millis(30));

    let stopper = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));
    gate_tx.send(()).expect("release the frozen batch");

    let point = p0.wait().expect("in-service fix completes");
    assert_eq!((point.x, point.y), (3.0, 4.0));
    assert!(
        matches!(p1.wait(), Err(ServeError::ShuttingDown)),
        "fix stranded on a warming shard must get the typed rejection"
    );
    stopper.join().expect("shutdown thread");
}

/// Answers every fix with the same point.
struct FixedLocalizer {
    dim: usize,
    out: Point,
}

impl Localizer for FixedLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "fixed-test",
            site: "default".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        Ok(vec![self.out; features.rows()])
    }
}

/// Panics on every batch.
struct PanickingLocalizer {
    dim: usize,
}

impl Localizer for PanickingLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "panicking-test",
            site: "default".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&self, _features: &Matrix) -> Result<Vec<Point>, NobleError> {
        panic!("model defect under test");
    }
}

/// One healthy and one panicking shard, neither snapshotable nor
/// retrainable, under a one-slot budget and unbounded. Fixes to the
/// panicking shard get `Internal` (not `ShuttingDown`: the server is up),
/// the healthy shard keeps answering — under `Count(1)` it needs the
/// panicked worker to drain and free the slot — the gauges read 0/0
/// afterwards, and shutdown returns. The scenario runs on its own thread
/// behind a bounded wait, because a wedged worker hangs the test.
#[test]
fn a_panicking_model_gets_typed_errors_and_never_wedges_the_server() {
    for budget in [CatalogBudget::Count(1), CatalogBudget::Unbounded] {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut catalog = ModelCatalog::new(budget).expect("catalog");
            catalog
                .insert(
                    ShardKey::building(0),
                    Box::new(FixedLocalizer {
                        dim: 4,
                        out: Point::new(3.0, 4.0),
                    }),
                )
                .expect("insert the healthy model");
            catalog
                .insert(
                    ShardKey::building(1),
                    Box::new(PanickingLocalizer { dim: 4 }),
                )
                .expect("insert the panicking model");
            let server = BatchServer::start(catalog, one_by_one()).expect("server starts");
            let client = server.client();
            for round in 0..3 {
                let failed = client
                    .submit(ShardKey::building(1), vec![0.5; 4])
                    .expect("submit to the panicking shard")
                    .wait();
                assert!(
                    matches!(failed, Err(ServeError::Internal(_))),
                    "{budget:?} round {round}: {failed:?}"
                );
                let point = client
                    .submit(ShardKey::building(0), vec![0.5; 4])
                    .expect("submit to the healthy shard")
                    .wait()
                    .expect("the healthy shard answers");
                assert_eq!((point.x, point.y), (3.0, 4.0));
            }
            let stats = server.server_stats();
            assert_eq!(
                (stats.queue_depth, stats.in_flight),
                (0, 0),
                "{budget:?}: gauges settle"
            );
            server.shutdown();
            done_tx.send(()).expect("report");
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{budget:?}: the server wedged or a check failed"));
    }
}

/// Where a [`FragileLocalizer`] panics: model code a worker runs outside
/// `localize_batch`.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// In `try_snapshot`, which a drain's write-through calls.
    Snapshot,
    /// In `info`, which a worker calls right after its acquire (and which
    /// neither `insert` nor `start` calls).
    Info,
}

/// Serves `out`, but panics in the model code `fault` names.
struct FragileLocalizer {
    dim: usize,
    out: Point,
    fault: Fault,
}

impl Localizer for FragileLocalizer {
    fn info(&self) -> LocalizerInfo {
        if let Fault::Info = self.fault {
            panic!("info defect under test");
        }
        LocalizerInfo {
            model: "fragile-test",
            site: "default".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        Ok(vec![self.out; features.rows()])
    }

    fn try_snapshot(&self) -> Option<noble::ModelSnapshot> {
        match self.fault {
            Fault::Snapshot => panic!("snapshot defect under test"),
            Fault::Info => None,
        }
    }
}

/// A model that panics in model code outside `localize_batch` never
/// wedges the server, and never loses the model. A panic in the
/// write-through of a drain is a failed write: the model stays resident
/// (pinned: it has no spec and no snapshot) and its later fixes get its
/// bits. A panic in `info` after the acquire takes down only its own
/// worker, whose exit releases its budget slot, its drain in flight and
/// its catalog hold, leaving the model resident; each later worker of
/// that shard panics the same way, so its fixes get a typed error. Under
/// a one-slot budget the healthy shard still gets the slot and answers
/// with its bits, every fix gets exactly one reply, the gauges read 0/0,
/// and the catalog comes back at shutdown holding both models. Each
/// scenario runs on its own thread behind a bounded wait, because a
/// wedged worker hangs the test.
#[test]
fn a_model_that_panics_outside_localize_batch_never_wedges_the_server() {
    let scenarios = [
        (Fault::Snapshot, CatalogBudget::Count(1)),
        (Fault::Info, CatalogBudget::Count(1)),
        (Fault::Info, CatalogBudget::Unbounded),
    ];
    for (fault, budget) in scenarios {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            fragile_model_scenario(fault, budget);
            done_tx.send(()).expect("report");
        });
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| {
                panic!("{fault:?} under {budget:?}: the server wedged or a check failed")
            });
    }
}

fn fragile_model_scenario(fault: Fault, budget: CatalogBudget) {
    let healthy = Point::new(3.0, 4.0);
    let mut catalog = ModelCatalog::new(budget).expect("catalog");
    // The healthy model goes in first: neither model can be stored, so
    // both stay resident (pinned), and inserting the fragile one second
    // never asks it for a snapshot.
    catalog
        .insert(
            ShardKey::building(1),
            Box::new(FixedLocalizer {
                dim: 4,
                out: healthy,
            }),
        )
        .expect("insert the healthy model");
    catalog
        .insert(
            ShardKey::building(0),
            Box::new(FragileLocalizer {
                dim: 4,
                out: Point::new(1.0, 2.0),
                fault,
            }),
        )
        .expect("insert the fragile model");
    let server = BatchServer::start(catalog, one_by_one()).expect("server starts");
    let client = server.client();

    // Each fix counts its replies and reports its outcome.
    let replies: Vec<Arc<AtomicUsize>> = (0..5).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let ask = |fix: usize, building: usize| {
        let (tx, rx) = std::sync::mpsc::channel();
        let count = Arc::clone(&replies[fix]);
        client
            .submit_then(
                ShardKey::building(building),
                vec![0.5; 4],
                move |outcome, _| {
                    count.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send(outcome);
                },
            )
            .expect("submit");
        rx.recv().expect("the fix gets a reply")
    };
    let healthy_bits = |outcome: Result<Point, ServeError>, round: &str| {
        let point = outcome.unwrap_or_else(|e| panic!("{round}: the healthy shard failed: {e}"));
        assert_eq!(
            (point.x.to_bits(), point.y.to_bits()),
            (healthy.x.to_bits(), healthy.y.to_bits()),
            "{round}"
        );
    };
    let fragile = |outcome: Result<Point, ServeError>, round: &str| match fault {
        // The fragile shard serves; draining it for the healthy shard
        // panics in its write-through, and the model stays resident.
        Fault::Snapshot => {
            let point =
                outcome.unwrap_or_else(|e| panic!("{round}: the fragile shard failed: {e}"));
            assert_eq!(
                (point.x.to_bits(), point.y.to_bits()),
                (1.0f64.to_bits(), 2.0f64.to_bits()),
                "{round}"
            );
        }
        // `info` panics right after the acquire, with the fix queued.
        Fault::Info => assert!(
            matches!(outcome, Err(ServeError::Internal(_))),
            "{round}: the panicked shard must get a typed error, got {outcome:?}"
        ),
    };

    fragile(ask(0, 0), "first fix");
    healthy_bits(ask(1, 1), "healthy shard after the panic");
    fragile(ask(2, 0), "the fragile shard again");
    healthy_bits(ask(3, 1), "healthy shard again");
    fragile(ask(4, 0), "the fragile shard a third time");

    assert_eq!(
        server.server_stats(),
        ServerStats {
            queue_depth: 0,
            in_flight: 0,
            shards: 2,
        },
        "{fault:?} under {budget:?}: gauges settle"
    );
    let (_, catalog) = server.shutdown_with_catalog();
    assert_eq!(
        catalog.resident_keys(),
        vec![ShardKey::building(0), ShardKey::building(1)],
        "{fault:?} under {budget:?}: no model is lost"
    );
    for (fix, count) in replies.iter().enumerate() {
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "fix {fix}: exactly one reply"
        );
    }
}

/// A store whose first `get` of one key panics, under a one-slot budget:
/// the worker faulting that key in unwinds inside the catalog's acquire,
/// which marks nothing until the model is resident. Its fix gets
/// `Internal`, and a later fix to the same shard faults the model in
/// again and is served with its bits; the gauges read 0/0 and shutdown
/// returns. The scenario runs on its own thread behind a bounded wait,
/// because a fault-in that left state behind could hang the shard.
#[test]
fn a_store_that_panics_during_a_fault_in_never_wedges_the_shard() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let campaign = uji_campaign(&UjiConfig::small()).expect("campaign");
        let probe = campaign.features(&campaign.test[..1]);
        let fragile = ShardKey::building(0);
        let direct = KnnFingerprint::fit(&campaign, 1).expect("knn fits");
        let want = Localizer::localize_batch(&direct, &probe).expect("direct answer")[0];
        let store = FaultyStore::panicking_on_first_get(fragile);
        let mut catalog =
            ModelCatalog::with_store(CatalogBudget::Count(1), Box::new(store)).expect("catalog");
        // The second insert pushes the first model out to the store, so
        // the fragile shard starts cold and its first fault reads it.
        catalog
            .insert(fragile, Box::new(direct))
            .expect("insert the fragile shard's model");
        catalog
            .insert(
                ShardKey::building(1),
                Box::new(KnnFingerprint::fit(&campaign, 2).expect("knn fits")),
            )
            .expect("insert the other model");
        assert_eq!(catalog.resident_keys(), vec![ShardKey::building(1)]);
        let server = BatchServer::start(catalog, one_by_one()).expect("server starts");
        let client = server.client();
        let ask = |key: ShardKey| {
            client
                .submit(key, probe.row(0).to_vec())
                .expect("submit")
                .wait()
        };
        let failed = ask(fragile);
        assert!(
            matches!(failed, Err(ServeError::Internal(_))),
            "the fix whose fault-in panicked: {failed:?}"
        );
        for round in 0..2 {
            let point = ask(fragile)
                .unwrap_or_else(|e| panic!("round {round}: the shard stayed wedged: {e}"));
            assert_eq!(
                (point.x.to_bits(), point.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "round {round}"
            );
            ask(ShardKey::building(1)).expect("the other shard answers");
        }
        let stats = server.server_stats();
        assert_eq!(
            (stats.queue_depth, stats.in_flight),
            (0, 0),
            "gauges settle"
        );
        server.shutdown();
        done_tx.send(()).expect("report");
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("a panicking store wedged the shard or a check failed"));
}
