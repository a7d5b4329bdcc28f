//! Open-loop, multi-tenant load generation for the edge's overload
//! tests, built on the crate's public client.
//!
//! **Open loop** means arrivals follow a schedule, not the server:
//! each tenant's sender thread draws Poisson inter-arrival gaps
//! (exponential, from a seeded SplitMix64 stream) and writes request
//! frames at those instants whether or not earlier replies have come
//! back. A closed-loop client slows down when the server does —
//! coordinated omission — and measures flattering latencies at
//! saturation; an open-loop generator keeps offering load past
//! capacity, which is the only way goodput-vs-offered-load curves and
//! shed rates mean anything.
//!
//! Each tenant runs one pipelined connection: the sender half paces and
//! stamps ids, a receiver half consumes replies in completion order and
//! correlates ids back to send times (handed over an in-process channel,
//! so the receiver observes every send record before its reply can
//! race it). Every request gets exactly one reply — served, rejected,
//! or typed serve error — so the receiver knows precisely when it is
//! done.

use noble_net::{Body, Endpoint, LocalizeRequest, NetClient, NetError, RejectReason, WireShard};
use std::collections::BTreeMap;
use std::sync::mpsc::{self, TryRecvError};
use std::time::{Duration, Instant};

/// One tenant's offered load.
#[derive(Debug, Clone)]
pub struct TenantLoad {
    /// Tenant name (the admission-control billing key).
    pub tenant: String,
    /// Mean arrival rate, requests per second (Poisson).
    pub rate: f64,
    /// RNG seed for this tenant's arrival stream.
    pub seed: u64,
}

/// An open-loop run: how long, which tenants, what requests.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Wall-clock duration of the arrival schedule.
    pub duration: Duration,
    /// Tenants generating concurrently, each on its own connection.
    pub tenants: Vec<TenantLoad>,
    /// Shards to target, round-robin per tenant.
    pub shards: Vec<WireShard>,
    /// Fingerprint template sent with every request.
    pub fingerprint: Vec<f64>,
}

/// What one tenant experienced.
#[derive(Debug, Clone, Default)]
pub struct TenantOutcome {
    /// Tenant name.
    pub tenant: String,
    /// Requests the schedule offered (sent on the wire).
    pub offered: u64,
    /// Requests served with a fix (goodput).
    pub served: u64,
    /// Typed `Rejected{Overloaded}` replies.
    pub shed_overload: u64,
    /// Typed `Rejected{TenantQuota}` replies.
    pub shed_quota: u64,
    /// Typed serve-error replies (unknown shard, shutdown, ...).
    pub errors: u64,
    /// Send-to-reply latency of each **served** request, microseconds,
    /// in completion order.
    pub latencies_us: Vec<u64>,
}

impl TenantOutcome {
    /// Served fraction of offered load.
    pub fn goodput_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.served as f64 / self.offered as f64
        }
    }
}

/// SplitMix64: tiny, seedable, uniform — all the arrival schedule needs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One exponential inter-arrival gap for a Poisson process at `rate`/s.
fn exp_gap(rate: f64, rng: &mut SplitMix64) -> Duration {
    // 1 - u is in (0, 1], so the log is finite and non-positive.
    let gap = -(1.0 - rng.next_f64()).ln() / rate;
    Duration::from_secs_f64(gap)
}

/// Runs the open-loop schedule against `endpoint` and returns one
/// outcome per tenant (same order as [`LoadConfig::tenants`]).
///
/// # Errors
///
/// [`NetError::Io`] for connect/transport failures; a rate or shard
/// list that cannot generate load is reported as
/// [`std::io::ErrorKind::InvalidInput`].
pub fn run_open_loop(
    endpoint: &Endpoint,
    cfg: &LoadConfig,
) -> Result<Vec<TenantOutcome>, NetError> {
    if cfg.shards.is_empty() || !cfg.tenants.iter().all(|t| t.rate > 0.0) {
        return Err(NetError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "load config needs at least one shard and positive tenant rates",
        )));
    }
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tenant in &cfg.tenants {
            let client = NetClient::connect(endpoint)?;
            handles.push(scope.spawn(move || run_tenant(client, tenant, cfg)));
        }
        let mut outcomes = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok(result) => outcomes.push(result?),
                Err(_) => {
                    return Err(NetError::Io(std::io::Error::other(
                        "load generator thread panicked",
                    )))
                }
            }
        }
        Ok(outcomes)
    })
}

/// Classifies one reply into the tenant's outcome. `stamp` was taken
/// just before the request's socket write, `recv_at` just after its
/// reply was read, so the difference is the full send-to-reply latency
/// (`Instant::duration_since` saturates to zero, so a pathological
/// clock cannot panic here).
fn settle(outcome: &mut TenantOutcome, stamp: Instant, recv_at: Instant, body: Body) {
    match body {
        Body::Fix(_) => {
            outcome.served += 1;
            outcome.latencies_us.push(
                recv_at
                    .duration_since(stamp)
                    .as_micros()
                    .min(u128::from(u64::MAX)) as u64,
            );
        }
        Body::Rejected(r) => match r.reason {
            RejectReason::Overloaded => outcome.shed_overload += 1,
            RejectReason::TenantQuota => outcome.shed_quota += 1,
            RejectReason::BadFrame => outcome.errors += 1,
        },
        _ => outcome.errors += 1,
    }
}

/// One tenant's sender + receiver pair over one pipelined connection.
fn run_tenant(
    client: NetClient,
    load: &TenantLoad,
    cfg: &LoadConfig,
) -> Result<TenantOutcome, NetError> {
    let (mut sender, mut receiver) = client.split();
    let (meta_tx, meta_rx) = mpsc::channel::<(u64, Instant)>();

    std::thread::scope(|scope| {
        let send_half = scope.spawn(move || -> Result<u64, NetError> {
            let mut rng = SplitMix64(load.seed);
            let mut offered = 0u64;
            let started = Instant::now();
            let mut next = Duration::ZERO;
            loop {
                next += exp_gap(load.rate, &mut rng);
                if next >= cfg.duration {
                    break;
                }
                let elapsed = started.elapsed();
                if next > elapsed {
                    std::thread::sleep(next - elapsed);
                }
                let shard = cfg.shards[(offered as usize) % cfg.shards.len()];
                let body = Body::Localize(LocalizeRequest {
                    tenant: load.tenant.clone(),
                    shard,
                    fingerprint: cfg.fingerprint.clone(),
                });
                // The send record trails the socket write (the id is
                // only known after it), so a fast reply can beat its
                // record to the receiver — the receiver's early-reply
                // buffer absorbs that race. The stamp itself is taken
                // before the write so it bounds the true send time.
                let stamp = Instant::now();
                let id = sender.send(body)?;
                let _ = meta_tx.send((id, stamp));
                offered += 1;
            }
            drop(meta_tx);
            Ok(offered)
        });

        let mut outcome = TenantOutcome {
            tenant: load.tenant.clone(),
            ..TenantOutcome::default()
        };
        // Requests whose send record arrived but whose reply has not.
        let mut pending: BTreeMap<u64, Instant> = BTreeMap::new();
        // Replies that beat their own send record over the in-process
        // channel (an immediate shed can outrun it); settled as soon as
        // the record shows up, with the latency measured to the moment
        // the reply was actually read.
        let mut early: BTreeMap<u64, (Instant, Body)> = BTreeMap::new();
        let mut meta_open = true;
        let absorb = |id: u64,
                      stamp: Instant,
                      pending: &mut BTreeMap<u64, Instant>,
                      early: &mut BTreeMap<u64, (Instant, Body)>,
                      outcome: &mut TenantOutcome| {
            match early.remove(&id) {
                Some((recv_at, body)) => settle(outcome, stamp, recv_at, body),
                None => {
                    pending.insert(id, stamp);
                }
            }
        };
        loop {
            // Absorb new send records without blocking.
            loop {
                match meta_rx.try_recv() {
                    Ok((id, stamp)) => {
                        absorb(id, stamp, &mut pending, &mut early, &mut outcome);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        meta_open = false;
                        break;
                    }
                }
            }
            if pending.is_empty() {
                if !meta_open {
                    break;
                }
                // Nothing outstanding: block for the next send record
                // (or the sender finishing) instead of the socket.
                match meta_rx.recv() {
                    Ok((id, stamp)) => {
                        absorb(id, stamp, &mut pending, &mut early, &mut outcome);
                    }
                    Err(_) => {
                        meta_open = false;
                    }
                }
                continue;
            }
            let frame = receiver.recv()?;
            let recv_at = Instant::now();
            match pending.remove(&frame.id) {
                Some(stamp) => settle(&mut outcome, stamp, recv_at, frame.body),
                // Not pending: either the send record is still in the
                // channel (park the reply until it lands) or the frame
                // is a stray the schedule never sent (id 0 bad-frame);
                // strays sit in the buffer without blocking termination.
                None => {
                    early.insert(frame.id, (recv_at, frame.body));
                }
            }
        }

        match send_half.join() {
            Ok(offered) => outcome.offered = offered?,
            Err(_) => {
                return Err(NetError::Io(std::io::Error::other(
                    "tenant sender thread panicked",
                )))
            }
        }
        Ok(outcome)
    })
}
