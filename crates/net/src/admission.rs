//! Admission control: bounded per-tenant queues, a global overload
//! watermark, deficit-round-robin dispatch, and the in-flight window.
//!
//! The state machine per request:
//!
//! ```text
//!                       offer()
//!   decoded frame ───────────────► per-tenant bounded queue
//!        │    │                          │
//!        │    │ tenant queue full        │ claim(): DRR, while the
//!        │    ▼                          ▼ window has room
//!        │  Rejected{TenantQuota}     in service ──► completion ──► reply frame
//!        │                                              │ release()
//!        │ global watermark exceeded                    ▼
//!        ▼                                      window slot freed
//!      Rejected{Overloaded}
//! ```
//!
//! **Watermark.** `offer` admits while `queued + serve_in_flight <
//! max_queue`, where `serve_in_flight` is the serving tier's live gauge
//! ([`noble_serve::ServeClient::server_stats`]) — so the shed decision
//! sees work already submitted into the batch server, not just what is
//! still waiting here. Past the watermark every request is
//! shed with a typed [`RejectReason::Overloaded`] *before* any queue
//! grows, which is what keeps accepted-request latency bounded under
//! open-loop overload: the queues cannot build beyond the watermark, so
//! queueing delay is capped at roughly `max_queue / service_rate`.
//!
//! **Per-tenant bound.** Each tenant's queue is capped at
//! `tenant_queue`; a tenant whose arrival rate exceeds its drain rate
//! fills its own queue and sheds with [`RejectReason::TenantQuota`]
//! without consuming the global watermark headroom other tenants need.
//! The quota check runs *before* the global check so a hot tenant's
//! excess is always billed to the tenant, not the server.
//!
//! **Fairness.** Dispatch is deficit round robin with unit request cost:
//! each active tenant in turn gets up to `quantum` requests served
//! before the turn rotates, so a tenant offering 10x the load gets at
//! most `quantum` consecutive grants before every other active tenant
//! gets its own `quantum` — service is near-equal across backlogged
//! tenants regardless of arrival ratios (pinned by the
//! `overload_behavior` fairness test).
//!
//! **Window.** `claim` hands out the next request only while fewer than
//! `window` are in service; `release` frees a slot once a request's
//! reply is in its outbox. Both run under the same lock as the queues,
//! so a request offered while the window is full is claimed by whichever
//! release comes next.

use crate::frame::{Frame, RejectReason, Rejection};
use crate::sync::{relock, rewait};
use noble_serve::ShardKey;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// One admitted request, parked until the edge claims it for service.
pub(crate) struct WorkItem {
    /// Request id, echoed on the reply frame.
    pub id: u64,
    /// The originating connection's outbox.
    pub reply: Sender<Frame>,
    /// What to execute.
    pub request: Request,
}

/// The serving work a frame asked for, with wire types already lowered
/// to serving types.
pub(crate) enum Request {
    Localize {
        key: ShardKey,
        fingerprint: Vec<f64>,
    },
    Tracked {
        device: u64,
        key: ShardKey,
        at: u64,
        fingerprint: Vec<f64>,
    },
}

/// Why `offer` refused a request.
pub(crate) enum Refusal {
    /// Shed with a typed wire rejection.
    Reject(Rejection),
    /// The server is stopping; the caller answers with the typed
    /// shutting-down serve error.
    ShuttingDown,
}

/// Monotone edge counters (lock-free; read by the Stats frame).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub completed: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_quota: AtomicU64,
    pub bad_frames: AtomicU64,
}

/// One tenant's bounded queue plus its DRR turn state.
struct TenantQueue {
    /// The tenant's name, shared with the DRR ring (no copy per turn).
    name: Arc<str>,
    queue: VecDeque<WorkItem>,
    /// Requests left in the tenant's current turn; `0` = not mid-turn.
    deficit: u32,
}

/// Scheduler state under one short-held lock.
struct Sched {
    tenants: BTreeMap<Arc<str>, TenantQueue>,
    /// Round-robin ring of tenants with non-empty queues.
    order: VecDeque<Arc<str>>,
    /// Total requests parked across all tenant queues.
    queued: usize,
    /// Requests claimed and not yet released.
    in_service: usize,
    stopped: bool,
}

/// The admission gate, DRR dispatcher and in-flight window between
/// connection readers and the serving tier.
pub(crate) struct Admission {
    max_queue: usize,
    tenant_queue: usize,
    quantum: u32,
    state: Mutex<Sched>,
    /// Signalled when the last in-service request is released.
    idle: Condvar,
    pub(crate) counters: Counters,
}

impl Admission {
    pub(crate) fn new(max_queue: usize, tenant_queue: usize, quantum: u32) -> Self {
        Admission {
            max_queue: max_queue.max(1),
            tenant_queue: tenant_queue.max(1),
            quantum: quantum.max(1),
            state: Mutex::new(Sched {
                tenants: BTreeMap::new(),
                order: VecDeque::new(),
                queued: 0,
                in_service: 0,
                stopped: false,
            }),
            idle: Condvar::new(),
            counters: Counters::default(),
        }
    }

    /// Requests currently parked in tenant queues.
    pub(crate) fn depth(&self) -> usize {
        relock(&self.state).queued
    }

    /// Admits or sheds one request. `serve_in_flight` is the serving
    /// tier's live in-flight gauge, folded into the global watermark so
    /// shedding accounts for work already dispatched downstream.
    pub(crate) fn offer(
        &self,
        tenant: &str,
        serve_in_flight: u64,
        item: WorkItem,
    ) -> Result<(), Refusal> {
        let mut s = relock(&self.state);
        if s.stopped {
            return Err(Refusal::ShuttingDown);
        }
        let tenant_depth = s.tenants.get(tenant).map_or(0, |t| t.queue.len());
        if tenant_depth >= self.tenant_queue {
            self.counters.shed_quota.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Reject(Rejection {
                reason: RejectReason::TenantQuota,
                detail: format!(
                    "tenant `{tenant}` queue full ({tenant_depth}/{})",
                    self.tenant_queue
                ),
            }));
        }
        if s.queued as u64 + serve_in_flight >= self.max_queue as u64 {
            self.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(Refusal::Reject(Rejection {
                reason: RejectReason::Overloaded,
                detail: format!(
                    "overloaded: {} queued + {serve_in_flight} in flight >= {} watermark",
                    s.queued, self.max_queue
                ),
            }));
        }
        // The name is allocated once, on the tenant's first request; an
        // activation shares it with the ring.
        let activated = match s.tenants.get_mut(tenant) {
            Some(tq) => {
                tq.queue.push_back(item);
                (tq.queue.len() == 1).then(|| Arc::clone(&tq.name))
            }
            None => {
                let name: Arc<str> = Arc::from(tenant);
                let tq = TenantQueue {
                    name: Arc::clone(&name),
                    queue: VecDeque::from([item]),
                    deficit: 0,
                };
                s.tenants.insert(Arc::clone(&name), tq);
                Some(name)
            }
        };
        if let Some(name) = activated {
            s.order.push_back(name);
        }
        s.queued += 1;
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The next request under DRR order, if one is parked and fewer than
    /// `window` are in service; the caller must [`Admission::release`] it
    /// once its reply is in the outbox.
    pub(crate) fn claim(&self, window: usize) -> Option<WorkItem> {
        let mut s = relock(&self.state);
        if s.in_service >= window {
            return None;
        }
        let item = Self::pop(&mut s, self.quantum)?;
        s.in_service += 1;
        Some(item)
    }

    /// Frees the window slot of one claimed request whose reply is in its
    /// outbox, and counts it completed.
    pub(crate) fn release(&self) {
        let mut s = relock(&self.state);
        s.in_service = s.in_service.saturating_sub(1);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        if s.in_service == 0 {
            self.idle.notify_all();
        }
    }

    /// Blocks until no claimed request is in service.
    pub(crate) fn wait_idle(&self) {
        let mut s = relock(&self.state);
        while s.in_service > 0 {
            s = rewait(&self.idle, s);
        }
    }

    /// One DRR grant: serve the front tenant's queue until its deficit
    /// or queue runs out, then rotate the ring.
    fn pop(s: &mut Sched, quantum: u32) -> Option<WorkItem> {
        while let Some(tenant) = s.order.front().cloned() {
            let Some(tq) = s.tenants.get_mut(&*tenant) else {
                s.order.pop_front();
                continue;
            };
            let Some(item) = tq.queue.pop_front() else {
                // Queue drained outside a turn (stop swept it).
                tq.deficit = 0;
                s.order.pop_front();
                continue;
            };
            if tq.deficit == 0 {
                // Start of this tenant's turn.
                tq.deficit = quantum;
            }
            tq.deficit -= 1;
            s.queued -= 1;
            if tq.deficit == 0 || tq.queue.is_empty() {
                // Turn over: rotate to the back of the ring (still
                // active) or leave the ring (drained).
                tq.deficit = 0;
                s.order.pop_front();
                if !tq.queue.is_empty() {
                    s.order.push_back(tenant);
                }
            }
            return Some(item);
        }
        None
    }

    /// Stops admitting and hands back everything still parked so the
    /// caller can answer each with a typed shutting-down reply instead of
    /// dropping it; those count as completed. Requests already in service
    /// keep their window slots until released.
    pub(crate) fn stop(&self) -> Vec<WorkItem> {
        let mut s = relock(&self.state);
        s.stopped = true;
        let mut leftover = Vec::new();
        for tq in s.tenants.values_mut() {
            tq.deficit = 0;
            leftover.extend(tq.queue.drain(..));
        }
        s.order.clear();
        s.queued = 0;
        self.counters
            .completed
            .fetch_add(leftover.len() as u64, Ordering::Relaxed);
        leftover
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn item(id: u64) -> (WorkItem, std::sync::mpsc::Receiver<Frame>) {
        let (tx, rx) = mpsc::channel();
        (
            WorkItem {
                id,
                reply: tx,
                request: Request::Localize {
                    key: ShardKey::building(0),
                    fingerprint: vec![],
                },
            },
            rx,
        )
    }

    #[test]
    fn drr_alternates_between_backlogged_tenants() {
        let adm = Admission::new(1000, 1000, 2);
        let mut rxs = Vec::new();
        for i in 0..6 {
            let (it, rx) = item(i);
            adm.offer("hot", 0, it).ok().unwrap();
            rxs.push(rx);
        }
        for i in 6..8 {
            let (it, rx) = item(i);
            adm.offer("quiet", 0, it).ok().unwrap();
            rxs.push(rx);
        }
        // quantum=2: hot gets 2, quiet gets 2, hot gets the rest.
        let order: Vec<u64> = (0..8).map(|_| adm.claim(8).unwrap().id).collect();
        assert_eq!(order, vec![0, 1, 6, 7, 2, 3, 4, 5]);
    }

    #[test]
    fn tenant_quota_binds_before_the_global_watermark() {
        let adm = Admission::new(100, 2, 1);
        let mut rxs = Vec::new();
        for i in 0..2 {
            let (it, rx) = item(i);
            adm.offer("t", 0, it).ok().unwrap();
            rxs.push(rx);
        }
        let (it, _rx) = item(2);
        match adm.offer("t", 0, it) {
            Err(Refusal::Reject(r)) => assert_eq!(r.reason, RejectReason::TenantQuota),
            _ => panic!("expected quota rejection"),
        }
        // A different tenant still has room.
        let (it, _rx2) = item(3);
        assert!(adm.offer("other", 0, it).is_ok());
    }

    #[test]
    fn watermark_counts_serve_inflight() {
        let adm = Admission::new(10, 100, 1);
        let (it, _rx) = item(0);
        match adm.offer("t", 10, it) {
            Err(Refusal::Reject(r)) => assert_eq!(r.reason, RejectReason::Overloaded),
            _ => panic!("expected overload rejection"),
        }
    }

    #[test]
    fn stop_hands_back_parked_items_and_unblocks_next() {
        let adm = Admission::new(100, 100, 1);
        let (it, _rx) = item(7);
        adm.offer("t", 0, it).ok().unwrap();
        let leftover = adm.stop();
        assert_eq!(leftover.len(), 1);
        assert_eq!(leftover[0].id, 7);
        assert!(adm.claim(1).is_none());
        assert!(matches!(
            adm.offer("t", 0, item(8).0),
            Err(Refusal::ShuttingDown)
        ));
    }

    #[test]
    fn claim_holds_the_window_until_release() {
        let adm = Admission::new(100, 100, 8);
        let mut rxs = Vec::new();
        for i in 0..3 {
            let (it, rx) = item(i);
            adm.offer("t", 0, it).ok().unwrap();
            rxs.push(rx);
        }
        assert_eq!(adm.claim(2).unwrap().id, 0);
        assert_eq!(adm.claim(2).unwrap().id, 1);
        assert!(adm.claim(2).is_none(), "window of 2 is full");
        adm.release();
        assert_eq!(adm.claim(2).unwrap().id, 2);
        adm.release();
        adm.release();
        adm.wait_idle();
        assert_eq!(adm.counters.completed.load(Ordering::Relaxed), 3);
    }
}
