//! End-to-end behavior of the network edge under load: typed shedding,
//! per-tenant fairness, observability during overload, bad-frame
//! handling, tracked submits over Unix sockets, and typed shutdown.
//!
//! Capacity is pinned by a `TestLocalizer` that sleeps a fixed delay
//! per batch (`max_batch: 1`, so service rate = 1/delay per shard) —
//! overload is then a choice of arrival rate, not a hope about machine
//! speed. Assertion margins are deliberately loose (2x-plus) so CI
//! scheduling jitter cannot flake them; the *shape* of the behavior
//! (sheds typed, quiet tenant unharmed, every request answered exactly
//! once) is asserted tightly.

use noble::{Localizer, LocalizerInfo, NobleError};
use noble_geo::{Point, Polygon, Zone, ZoneSet};
use noble_linalg::Matrix;
use noble_net::frame::read_frame;
mod common;

use common::{run_open_loop, LoadConfig, TenantLoad, TenantOutcome};
use noble_net::{
    Backend, Body, NetClient, NetConfig, NetError, NetServer, RejectReason, TrackedSubmitRequest,
    WireShard,
};
use noble_serve::{BatchConfig, BatchServer, ShardKey, ShardedRegistry, TrackingServer};
use std::io::Write;
use std::time::Duration;

/// Deterministic-output localizer with a tunable per-batch service
/// delay: the capacity knob for every test below.
struct TestLocalizer {
    dim: usize,
    delay: Duration,
    out: Point,
}

impl Localizer for TestLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "net-test",
            site: "default".into(),
            feature_dim: self.dim,
            class_count: 0,
        }
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        Ok(vec![self.out; features.rows()])
    }
}

/// Buildings `0..shards`, each serving one fix per `delay`.
fn fix_backend(shards: usize, delay: Duration) -> BatchServer {
    let mut registry = ShardedRegistry::new();
    for building in 0..shards {
        registry.insert(
            ShardKey::building(building),
            Box::new(TestLocalizer {
                dim: 4,
                delay,
                out: Point::new(5.0, 5.0),
            }),
        );
    }
    let cfg = BatchConfig {
        max_batch: 1,
        latency_budget: Duration::ZERO,
        ..BatchConfig::default()
    };
    BatchServer::start(registry, cfg).expect("batch server starts")
}

const SHARD: WireShard = WireShard {
    building: 0,
    floor: None,
};

/// Under open-loop arrivals well past capacity the edge sheds with
/// typed rejections, keeps answering stats frames, answers every single
/// request exactly once, and keeps accepted-request latency bounded by
/// the watermark (not by the offered load).
#[test]
fn overload_sheds_typed_and_bounds_accepted_latency() {
    let serve = fix_backend(1, Duration::from_millis(2)); // ~500 req/s capacity
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig {
            max_queue: 16,
            tenant_queue: 16,
            quantum: 4,
            service_threads: 2,
        },
    )
    .expect("edge starts");

    let load = LoadConfig {
        duration: Duration::from_millis(400),
        tenants: vec![TenantLoad {
            tenant: "flood".into(),
            rate: 2500.0, // ~5x capacity
            seed: 7,
        }],
        shards: vec![SHARD],
        fingerprint: vec![0.5; 4],
    };
    let endpoint = edge.endpoint().clone();
    let loadgen = std::thread::spawn(move || run_open_loop(&endpoint, &load));

    // Observability under overload: the stats frame bypasses admission,
    // so it must answer even while the edge sheds.
    let mut observer = NetClient::connect(edge.endpoint()).expect("observer connects");
    let mut saw_load = false;
    for _ in 0..200 {
        match observer.stats().expect("stats answers during overload") {
            Body::Stats(s) if s.accepted > 0 => {
                saw_load = true;
                break;
            }
            Body::Stats(_) => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("stats request answered with {other:?}"),
        }
    }
    assert!(saw_load, "stats frame never observed the running load");

    let outcomes = loadgen.join().expect("loadgen").expect("load run succeeds");
    let o = &outcomes[0];
    let shed = o.shed_overload + o.shed_quota;
    assert!(
        o.offered > 200,
        "open loop offered too little: {}",
        o.offered
    );
    assert_eq!(
        o.served + shed + o.errors,
        o.offered,
        "every offered request must be answered exactly once"
    );
    assert_eq!(o.errors, 0, "no serve errors expected");
    assert!(shed > 0, "5x overload must shed");
    assert!(o.served > 20, "server must keep serving while shedding");

    // Accepted-request latency is bounded by the admission watermark:
    // at most ~16 queued ahead x 2ms service, not by the 5x backlog an
    // unbounded queue would grow. 500ms is a 10x-plus margin for CI.
    let max_us = o.latencies_us.iter().copied().max().unwrap_or(0);
    assert!(
        max_us < 500_000,
        "accepted-request latency unbounded: max {max_us}us"
    );

    // The edge's own counters agree with what the client observed.
    let stats = edge.shutdown();
    assert_eq!(
        stats.accepted, stats.completed,
        "admitted work all answered"
    );
    assert_eq!(stats.shed_overload + stats.shed_quota, shed);
    assert_eq!(stats.bad_frames, 0);
    serve.shutdown();
}

/// The SLO sweep: one tenant offers 0.25x to 3x of a capacity-pinned
/// backend, each point against a fresh edge. Two shards cost 2 ms per
/// fix behind two service threads, so capacity is 1 000 fixes/s. Every
/// point answers each offered request exactly once, with no serve
/// errors. Past saturation (2x and up) the edge sheds with typed
/// rejections, keeps goodput at 80% or more of the sweep's peak, and
/// holds accepted p99 under the admission-queue drain bound. CI greps
/// for this test by name — do not rename it casually.
#[test]
fn goodput_holds_and_p99_stays_bounded_past_saturation() {
    const SERVICE_THREADS: usize = 2;
    const MAX_QUEUE: usize = 32;
    const POINT: Duration = Duration::from_millis(400);
    let busy = Duration::from_millis(2);
    let capacity = SERVICE_THREADS as f64 / busy.as_secs_f64();
    // Worst admission-queue drain (`MAX_QUEUE` requests across the
    // service threads, plus the one in service), 5x, plus 100 ms of
    // socket and scheduler slack.
    let drain_us = busy.as_micros() as u64 * (MAX_QUEUE / SERVICE_THREADS + 1) as u64;
    let p99_bound_us = 5 * drain_us + 100_000;
    // One shard per service thread, so every thread can be busy at once.
    let shards: Vec<WireShard> = (0..SERVICE_THREADS as u32)
        .map(|building| WireShard {
            building,
            floor: None,
        })
        .collect();

    let mut sweep = Vec::new();
    for (i, multiplier) in [0.25, 0.5, 1.0, 2.0, 3.0].into_iter().enumerate() {
        let serve = fix_backend(SERVICE_THREADS, busy);
        let edge = NetServer::bind_tcp(
            "127.0.0.1:0".parse().unwrap(),
            Backend::Fix(serve.client()),
            NetConfig {
                max_queue: MAX_QUEUE,
                tenant_queue: MAX_QUEUE,
                quantum: 8,
                service_threads: SERVICE_THREADS,
            },
        )
        .expect("edge starts");
        let load = LoadConfig {
            duration: POINT,
            tenants: vec![TenantLoad {
                tenant: "sweep".into(),
                rate: capacity * multiplier,
                seed: 0x5EED_0000 + i as u64,
            }],
            shards: shards.clone(),
            fingerprint: vec![0.5; 4],
        };
        let o = run_open_loop(edge.endpoint(), &load)
            .expect("load run succeeds")
            .remove(0);
        let stats = edge.shutdown();
        serve.shutdown();
        assert_eq!(o.errors, 0, "{multiplier}x: no serve errors expected");
        assert_eq!(
            o.served + o.shed_overload + o.shed_quota + o.errors,
            o.offered,
            "{multiplier}x: every offered request must be answered exactly once"
        );
        assert_eq!(
            stats.accepted, stats.completed,
            "{multiplier}x: edge leaked admitted requests"
        );
        sweep.push((multiplier, o));
    }

    let served_rps = |o: &TenantOutcome| o.served as f64 / POINT.as_secs_f64();
    let peak_rps = sweep.iter().map(|(_, o)| served_rps(o)).fold(0.0, f64::max);
    for (multiplier, o) in sweep.iter().filter(|(m, _)| *m >= 2.0) {
        assert!(
            o.shed_overload + o.shed_quota > 0,
            "{multiplier}x: no typed sheds under overload"
        );
        assert!(
            served_rps(o) >= 0.8 * peak_rps,
            "{multiplier}x: goodput {:.1}/s fell below 80% of peak {peak_rps:.1}/s",
            served_rps(o)
        );
        // Nearest-rank p99 of accepted-request latency.
        let mut latencies = o.latencies_us.clone();
        latencies.sort_unstable();
        let rank = ((latencies.len().saturating_sub(1)) as f64 * 0.99).round() as usize;
        let p99_us = latencies.get(rank).copied().unwrap_or(0);
        assert!(
            p99_us <= p99_bound_us,
            "{multiplier}x: accepted p99 {p99_us}us exceeds bound {p99_bound_us}us"
        );
    }
}

/// A 10x-hot tenant cannot push a quiet tenant below its fair share:
/// the quiet tenant's demand is well under capacity, so DRR plus the
/// per-tenant quota must serve essentially all of it while the hot
/// tenant sheds.
#[test]
fn hot_tenant_cannot_starve_quiet_tenant() {
    let serve = fix_backend(1, Duration::from_millis(2)); // ~500 req/s capacity
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig {
            max_queue: 4096, // quota, not the global watermark, does the shedding
            tenant_queue: 8,
            quantum: 2,
            service_threads: 2,
        },
    )
    .expect("edge starts");

    let load = LoadConfig {
        duration: Duration::from_millis(600),
        tenants: vec![
            TenantLoad {
                tenant: "quiet".into(),
                rate: 50.0, // well under a fair half of capacity
                seed: 11,
            },
            TenantLoad {
                tenant: "hot".into(),
                rate: 1500.0, // 3x total capacity, 30x the quiet tenant
                seed: 13,
            },
        ],
        shards: vec![SHARD],
        fingerprint: vec![0.5; 4],
    };
    let outcomes = run_open_loop(edge.endpoint(), &load).expect("load run succeeds");
    let quiet = &outcomes[0];
    let hot = &outcomes[1];
    assert_eq!(
        (quiet.tenant.as_str(), hot.tenant.as_str()),
        ("quiet", "hot"),
        "outcomes come back in the configured tenant order"
    );

    assert!(quiet.offered > 10, "quiet schedule too small");
    assert!(
        quiet.goodput_ratio() >= 0.8,
        "quiet tenant starved: served {}/{} offered",
        quiet.served,
        quiet.offered
    );
    assert!(
        hot.shed_quota > 0,
        "hot tenant's excess must shed on its own quota"
    );
    assert!(
        hot.served > quiet.served,
        "leftover capacity should still flow to the hot tenant"
    );
    // The quiet tenant's own queue never fills, so none of its sheds
    // are quota sheds.
    assert_eq!(quiet.shed_quota, 0, "quiet tenant hit its own quota");

    edge.shutdown();
    serve.shutdown();
}

/// A malformed frame gets one typed `Rejected{BadFrame}` reply (id 0 —
/// the id bytes cannot be trusted) and then the connection closes; the
/// edge counts it.
#[test]
fn bad_frame_gets_typed_rejection_then_close() {
    let serve = fix_backend(1, Duration::ZERO);
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig::default(),
    )
    .expect("edge starts");

    let mut stream = edge.endpoint().connect().expect("raw connect");
    stream.write_all(&[0xFF; 16]).expect("write garbage");
    let reply = read_frame(&mut stream).expect("typed rejection before close");
    assert_eq!(reply.id, 0, "bad-frame rejection must not invent an id");
    match reply.body {
        Body::Rejected(r) => assert_eq!(r.reason, RejectReason::BadFrame),
        other => panic!("expected BadFrame rejection, got {other:?}"),
    }
    match read_frame(&mut stream) {
        Err(NetError::Io(_)) => {}
        other => panic!("connection must close after a bad frame, got {other:?}"),
    }

    // A tracked submit against a fix-only backend is a typed serve
    // error on a *healthy* connection (the frame itself was fine).
    let mut client = NetClient::connect(edge.endpoint()).expect("connect");
    let reply = client
        .call(Body::TrackedSubmit(TrackedSubmitRequest {
            tenant: "t".into(),
            device: 1,
            shard: SHARD,
            at: 0,
            fingerprint: vec![0.5; 4],
        }))
        .expect("call");
    assert!(
        matches!(reply, Body::ServerError(_)),
        "expected typed serve error, got {reply:?}"
    );

    let stats = edge.shutdown();
    assert_eq!(stats.bad_frames, 1);
    serve.shutdown();
}

/// The full tracked path over a Unix socket: raw fix, smoothed track,
/// zone entry events on the wire, session gauges visible, and the
/// socket file cleaned up at shutdown.
#[test]
fn tracked_submit_round_trips_over_unix_socket() {
    let mut registry = ShardedRegistry::new();
    let out = Point::new(5.0, 5.0);
    registry.insert(
        ShardKey::building(0),
        Box::new(TestLocalizer {
            dim: 4,
            delay: Duration::ZERO,
            out,
        }),
    );
    let zones = ZoneSet::new(vec![Zone::new(
        "lab",
        Polygon::rectangle(0.0, 0.0, 10.0, 10.0).expect("rectangle"),
    )]);
    let tracking = TrackingServer::start(
        registry,
        zones,
        None,
        noble::wifi::tracking::SmootherConfig::default(),
        BatchConfig {
            stability_k: 1, // first in-zone fix commits the entry
            ..BatchConfig::default()
        },
    )
    .expect("tracking server starts");

    let path = std::env::temp_dir().join(format!("noble-net-test-{}.sock", std::process::id()));
    let edge = NetServer::bind_unix(
        &path,
        Backend::Tracking(tracking.client()),
        NetConfig::default(),
    )
    .expect("unix edge starts");

    let mut client = NetClient::connect(edge.endpoint()).expect("connect over unix");
    for at in 0..3u64 {
        let reply = client
            .call(Body::TrackedSubmit(TrackedSubmitRequest {
                tenant: "t".into(),
                device: 42,
                shard: SHARD,
                at,
                fingerprint: vec![0.5; 4],
            }))
            .expect("tracked call");
        let Body::Tracked(t) = reply else {
            panic!("expected tracked reply, got {reply:?}");
        };
        assert_eq!((t.raw.x, t.raw.y), (out.x, out.y));
        // Start is lazy: the first fix spawns the shard's worker and
        // parks while it leases the model; later fixes find it hot.
        assert_eq!(
            t.raw.cold,
            at == 0,
            "only the first fix finds the shard cold"
        );
        assert_eq!(t.zone, Some(0), "fix sits inside the only zone");
        if at == 0 {
            assert_eq!(t.events.len(), 1, "first fix commits the zone entry");
            assert_eq!(t.events[0].device, 42);
            assert!(t.events[0].entered);
        } else {
            assert!(t.events.is_empty(), "no further transitions");
        }
        assert!(t.smoothed_x.is_finite() && t.smoothed_y.is_finite());
    }

    // Plain localize works on the same endpoint (routed past sessions).
    match client.localize("t", SHARD, vec![0.5; 4]).expect("localize") {
        Body::Fix(fix) => assert_eq!((fix.x, fix.y), (out.x, out.y)),
        other => panic!("expected fix, got {other:?}"),
    }

    let sessions = tracking.session_stats();
    assert_eq!(sessions.live, 1);
    assert_eq!(sessions.queued_fixes, 0);
    assert_eq!(sessions.in_flight_fixes, 0);

    edge.shutdown();
    assert!(
        std::fs::metadata(&path).is_err(),
        "socket file must be removed at shutdown"
    );
    tracking.shutdown();
}

/// Shutting down with requests still parked in admission answers each
/// of them with a typed serve error — a pipelined client gets exactly
/// one reply per request, never a silently dropped one.
#[test]
fn shutdown_answers_parked_requests_with_typed_errors() {
    let serve = fix_backend(1, Duration::from_millis(40));
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig {
            max_queue: 64,
            tenant_queue: 64,
            quantum: 8,
            service_threads: 1,
        },
    )
    .expect("edge starts");

    let (mut sender, mut receiver) = NetClient::connect(edge.endpoint())
        .expect("connect")
        .split();
    const N: usize = 10;
    for _ in 0..N {
        sender
            .send(Body::Localize(noble_net::LocalizeRequest {
                tenant: "t".into(),
                shard: SHARD,
                fingerprint: vec![0.5; 4],
            }))
            .expect("pipelined send");
    }
    let collector = std::thread::spawn(move || {
        let mut fixes = 0;
        let mut typed_errors = 0;
        for _ in 0..N {
            match receiver.recv().expect("every request gets a reply").body {
                Body::Fix(_) => fixes += 1,
                Body::ServerError(_) => typed_errors += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        (fixes, typed_errors)
    });

    // Let the single worker pick up the first request, then stop the
    // edge with the rest still parked.
    std::thread::sleep(Duration::from_millis(20));
    edge.shutdown();

    let (fixes, typed_errors) = collector.join().expect("collector");
    assert_eq!(fixes + typed_errors, N);
    assert!(fixes >= 1, "in-service request should complete");
    assert!(
        typed_errors >= 1,
        "parked requests must get typed shutdown errors, not dropped replies"
    );
    serve.shutdown();
}

/// A model that panics in every `localize_batch`: the shard worker
/// unwinds with fixes in hand.
struct PanickingLocalizer;

impl Localizer for PanickingLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "net-test-panic",
            site: "default".into(),
            feature_dim: 4,
            class_count: 0,
        }
    }

    fn localize_batch(&mut self, _features: &Matrix) -> Result<Vec<Point>, NobleError> {
        panic!("model fault injected by the test");
    }
}

/// A panicking model behind the edge still gets every request exactly
/// one typed reply: the serving tier supervises the panic and answers
/// each rider a serve error, so the in-flight window is released rather
/// than wedged, and a `Stats` frame reads no fix queued or in flight. Afterwards the
/// edge still answers on the same connection and on a fresh one, and
/// shutdown finds every admitted request completed once. The scenario,
/// reply collection included, runs on its own thread behind a bounded
/// wait (a wedged window would also hang the edge's shutdown), so a
/// wedge fails this test instead of hanging it. CI greps for this test
/// by name.
#[test]
fn panicking_model_behind_the_edge_answers_every_request_once() {
    let (finished_tx, finished) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        panicking_model_scenario();
        let _ = finished_tx.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => scenario.join().expect("scenario thread"),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no outcome within 60 s: the in-flight window wedged")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the scenario failed (its panic is printed above)")
        }
    }
}

fn panicking_model_scenario() {
    let mut registry = ShardedRegistry::new();
    registry.insert(ShardKey::building(0), Box::new(PanickingLocalizer));
    let serve = BatchServer::start(
        registry,
        BatchConfig {
            max_batch: 1,
            latency_budget: Duration::ZERO,
            ..BatchConfig::default()
        },
    )
    .expect("batch server starts");
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig {
            max_queue: 64,
            tenant_queue: 64,
            quantum: 8,
            service_threads: 2,
        },
    )
    .expect("edge starts");

    let (mut sender, mut receiver) = NetClient::connect(edge.endpoint())
        .expect("connect")
        .split();
    const N: usize = 12;
    let localize = || {
        Body::Localize(noble_net::LocalizeRequest {
            tenant: "t".into(),
            shard: SHARD,
            fingerprint: vec![0.5; 4],
        })
    };
    let mut ids = Vec::new();
    for _ in 0..N {
        ids.push(sender.send(localize()).expect("pipelined send"));
    }
    let mut reply = || {
        let frame = receiver.recv().expect("every request gets a reply");
        assert!(
            matches!(frame.body, Body::ServerError(_)),
            "a panicking model must answer a typed serve error, got {:?}",
            frame.body
        );
        frame.id
    };
    let mut answered: Vec<u64> = (0..N).map(|_| reply()).collect();
    answered.sort_unstable();
    assert_eq!(answered, ids, "every request answered exactly once");

    // The window is free again: a later request on the same connection
    // gets its own reply.
    let late = sender.send(localize()).expect("send after the fault");
    assert_eq!(reply(), late);

    let mut observer = NetClient::connect(edge.endpoint()).expect("observer connects");
    match observer.stats().expect("stats answers after the fault") {
        Body::Stats(s) => {
            assert_eq!(s.accepted, N as u64 + 1);
            // The serving tier supervised the panics: with every reply in
            // hand, nothing is left queued or in flight.
            assert_eq!(
                (s.queue_depth, s.in_flight),
                (0, 0),
                "the serving gauges settle after the replies"
            );
        }
        other => panic!("stats request answered with {other:?}"),
    }

    // One release per reply: a request answered twice would push
    // `completed` past `accepted`.
    let stats = edge.shutdown();
    assert_eq!(stats.accepted, N as u64 + 1);
    assert_eq!(
        stats.accepted, stats.completed,
        "every admitted request completed once"
    );
    serve.shutdown();
}

/// Blocks every batch on its gate until the test drops the gate's
/// sender; announces each entry.
struct GatedLocalizer {
    entered: std::sync::mpsc::Sender<()>,
    gate: std::sync::mpsc::Receiver<()>,
}

impl Localizer for GatedLocalizer {
    fn info(&self) -> LocalizerInfo {
        LocalizerInfo {
            model: "net-test-gated",
            site: "default".into(),
            feature_dim: 4,
            class_count: 0,
        }
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let _ = self.entered.send(());
        let _ = self.gate.recv();
        Ok(vec![Point::new(5.0, 5.0); features.rows()])
    }
}

/// A client that pipelines past the in-flight window and then drops its
/// connection while its replies are still owed frees its window: the
/// replies that can no longer be written are still completed, the
/// requests parked behind the window are still pumped, a new connection
/// is served, a `Stats` frame reads nothing queued or in flight, and
/// after shutdown `accepted == completed`. The scenario runs behind a
/// bounded wait, because a leaked window slot would hang it.
#[test]
fn a_client_that_disconnects_mid_reply_frees_its_window() {
    let (finished_tx, finished) = std::sync::mpsc::channel();
    let scenario = std::thread::spawn(move || {
        disconnect_scenario();
        let _ = finished_tx.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => scenario.join().expect("scenario thread"),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("no outcome within 60 s: the in-flight window wedged")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the scenario failed (its panic is printed above)")
        }
    }
}

fn disconnect_scenario() {
    let (gate_tx, gate_rx) = std::sync::mpsc::channel();
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let mut registry = ShardedRegistry::new();
    registry.insert(
        ShardKey::building(0),
        Box::new(GatedLocalizer {
            entered: entered_tx,
            gate: gate_rx,
        }),
    );
    let serve = BatchServer::start(
        registry,
        BatchConfig {
            max_batch: 1,
            latency_budget: Duration::ZERO,
            ..BatchConfig::default()
        },
    )
    .expect("batch server starts");
    let edge = NetServer::bind_tcp(
        "127.0.0.1:0".parse().unwrap(),
        Backend::Fix(serve.client()),
        NetConfig {
            max_queue: 64,
            tenant_queue: 64,
            quantum: 8,
            service_threads: 2,
        },
    )
    .expect("edge starts");
    let localize = || {
        Body::Localize(noble_net::LocalizeRequest {
            tenant: "t".into(),
            shard: SHARD,
            fingerprint: vec![0.5; 4],
        })
    };

    // Pipeline four times the window, with the model frozen on the
    // first, and wait until the edge has admitted every request.
    const N: u64 = 8;
    let (mut sender, receiver) = NetClient::connect(edge.endpoint())
        .expect("connect")
        .split();
    for _ in 0..N {
        sender.send(localize()).expect("pipelined send");
    }
    entered
        .recv_timeout(Duration::from_secs(10))
        .expect("the first request reaches the model");
    let mut observer = NetClient::connect(edge.endpoint()).expect("observer connects");
    let mut admitted = 0;
    for _ in 0..1000 {
        match observer.stats().expect("stats answers") {
            Body::Stats(s) => admitted = s.accepted,
            other => panic!("stats request answered with {other:?}"),
        }
        if admitted == N {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(admitted, N, "the edge admits every pipelined request");

    // The client goes away owing all its replies; then the model runs.
    drop(sender);
    drop(receiver);
    drop(gate_tx);

    let mut fresh = NetClient::connect(edge.endpoint()).expect("a new client connects");
    match fresh
        .call(localize())
        .expect("the new connection is served")
    {
        Body::Fix(fix) => assert_eq!((fix.x, fix.y), (5.0, 5.0)),
        other => panic!("expected a fix, got {other:?}"),
    }
    // Same tenant, one shard, one fix per batch: the new request ran
    // after every request of the dropped connection, so all of them
    // have completed.
    match observer.stats().expect("stats answers") {
        Body::Stats(s) => assert_eq!(
            (s.queue_depth, s.in_flight),
            (0, 0),
            "nothing is left queued or in flight"
        ),
        other => panic!("stats request answered with {other:?}"),
    }
    let stats = edge.shutdown();
    assert_eq!(stats.accepted, N + 1);
    assert_eq!(
        stats.accepted, stats.completed,
        "every admitted request completed once"
    );
    serve.shutdown();
}
