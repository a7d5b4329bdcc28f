//! The socket front end: listener, per-connection reader/writer
//! threads, and the service worker pool behind the admission gate.
//!
//! Threading model (std-only, no async runtime):
//!
//! ```text
//!  accept thread ──► per-connection reader thread
//!                        │ decode + admission                outbox
//!                        ├── Stats ────────────────────────► writer ──► socket
//!                        ├── shed ──► Rejected frame ──────►
//!                        └── admit ─► tenant queue
//!                                        │ DRR
//!                              service workers (N) ─ reply ─►
//!                                        │
//!                                   BatchServer / TrackingServer
//! ```
//!
//! Each connection gets one reader and one writer thread; replies flow
//! through an unbounded outbox channel, so a service worker never blocks
//! on a slow peer's socket. `Stats` requests are answered on the reader
//! thread, **outside** admission — observability keeps working while the
//! server sheds. After a malformed frame the reader answers one typed
//! [`RejectReason::BadFrame`] rejection and closes (length-prefixed
//! framing cannot resynchronize once a length field is untrusted).
//!
//! [`RejectReason::BadFrame`]: crate::RejectReason::BadFrame

use crate::admission::{Admission, Refusal, Request, WorkItem};
use crate::frame::{
    read_frame, write_frame, Body, FixResponse, Frame, RejectReason, Rejection,
    ServerErrorResponse, StatsResponse, TrackedResponse, WireZoneEvent,
};
use crate::NetError;
use noble_serve::{ServeClient, ServeError, TrackingClient, ZoneEventKind};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Admission and pool knobs for a [`NetServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Global overload watermark: requests admitted while
    /// `parked + serving-tier in-flight < max_queue`; everything past it
    /// is shed with [`RejectReason::Overloaded`]. Bounds accepted-request
    /// queueing delay at roughly `max_queue / service rate`.
    pub max_queue: usize,
    /// Per-tenant queue capacity; a tenant past it sheds with
    /// [`RejectReason::TenantQuota`] without consuming global headroom.
    /// Fairness note: keep `max_queue >= tenant_queue * expected
    /// tenants`, or a hot tenant can exhaust the global watermark before
    /// its own quota binds.
    pub tenant_queue: usize,
    /// Deficit-round-robin grant per tenant turn (unit request cost).
    pub quantum: u32,
    /// Service worker threads executing admitted requests against the
    /// serving tier (this is the edge's concurrency into the batch
    /// server, i.e. the in-flight window).
    pub service_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_queue: 1024,
            tenant_queue: 256,
            quantum: 8,
            service_threads: 4,
        }
    }
}

/// Where a [`NetServer`] listens (and what a [`crate::NetClient`]
/// connects to).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Loopback (or any) TCP address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Opens a blocking stream to this endpoint. TCP streams disable
    /// Nagle's algorithm: a request frame is small and its reply is
    /// awaited, so batching it behind the peer's delayed ACK would stall
    /// every fix for tens of milliseconds.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the connect fails.
    pub fn connect(&self) -> Result<Stream, NetError> {
        match self {
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(nodelay(TcpStream::connect(addr)?)?)),
            Endpoint::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// One connected socket, TCP or Unix (both blocking, both splittable
/// via [`Stream::try_clone`]).
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    Unix(UnixStream),
}

impl Stream {
    /// A second handle onto the same socket (reader/writer split).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the dup fails.
    pub fn try_clone(&self) -> Result<Stream, NetError> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Closes only the read direction. The reader half of a split
    /// connection must use this — a full shutdown would yank the write
    /// direction out from under the writer thread while it still has
    /// earned replies (e.g. the bad-frame rejection) to flush.
    fn shutdown_read(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Read),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Read),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection; TCP streams disable Nagle's algorithm, as
    /// on the connecting side ([`Endpoint::connect`]).
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| nodelay(s)).map(Stream::Tcp),
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        }
    }
}

/// Sets `TCP_NODELAY`: frames go out as soon as they are written.
fn nodelay(stream: TcpStream) -> std::io::Result<TcpStream> {
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// The serving tier a [`NetServer`] fronts. Cheap to clone (client
/// handles only); the underlying server's lifetime stays with its
/// owner.
#[derive(Clone)]
pub enum Backend {
    /// Stateless fix serving: `Localize` frames only; `TrackedSubmit`
    /// answers a typed serve error.
    Fix(ServeClient),
    /// Fix serving plus per-device tracking sessions: both request
    /// kinds. `Localize` frames route to the stateless tier underneath
    /// ([`TrackingClient::fix_client`]) without touching any session.
    Tracking(TrackingClient),
}

impl Backend {
    fn fix_client(&self) -> &ServeClient {
        match self {
            Backend::Fix(client) => client,
            Backend::Tracking(tracking) => tracking.fix_client(),
        }
    }

    /// The serving tier's live in-flight gauge (the admission
    /// watermark's downstream component).
    fn serve_in_flight(&self) -> u64 {
        self.fix_client().server_stats().in_flight
    }

    /// Executes one admitted request, blocking until the serving tier
    /// replies; every outcome is a typed response body.
    fn execute(&self, request: Request) -> Body {
        match request {
            Request::Localize { key, fingerprint } => {
                match self.fix_client().submit(key, fingerprint) {
                    Ok(pending) => {
                        let cold = pending.cold();
                        match pending.wait() {
                            Ok(point) => Body::Fix(FixResponse {
                                x: point.x,
                                y: point.y,
                                cold,
                            }),
                            Err(e) => serve_error(&e),
                        }
                    }
                    Err(e) => serve_error(&e),
                }
            }
            Request::Tracked {
                device,
                key,
                at,
                fingerprint,
            } => match self {
                Backend::Fix(_) => Body::ServerError(ServerErrorResponse {
                    detail: "tracking is not enabled on this endpoint".into(),
                }),
                Backend::Tracking(tracking) => {
                    match tracking.submit(device, key, at, fingerprint) {
                        Ok((fix, events)) => Body::Tracked(TrackedResponse {
                            raw: FixResponse {
                                x: fix.raw.x,
                                y: fix.raw.y,
                                cold: fix.cold,
                            },
                            smoothed_x: fix.smoothed.x,
                            smoothed_y: fix.smoothed.y,
                            zone: fix.zone.map(|z| z as u32),
                            events: events
                                .iter()
                                .map(|ev| WireZoneEvent {
                                    device: ev.device,
                                    zone: ev.zone as u32,
                                    entered: ev.kind == ZoneEventKind::Entered,
                                    at: ev.at,
                                })
                                .collect(),
                        }),
                        Err(e) => serve_error(&e),
                    }
                }
            },
        }
    }
}

fn serve_error(e: &ServeError) -> Body {
    Body::ServerError(ServerErrorResponse {
        detail: e.to_string(),
    })
}

/// The running network front end. Owns the accept loop, the service
/// worker pool, and the admission gate; the serving tier behind the
/// [`Backend`] stays owned by the caller.
pub struct NetServer {
    endpoint: Endpoint,
    backend: Backend,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds a TCP endpoint (use port 0 to let the OS pick; the bound
    /// address is [`NetServer::endpoint`]) and starts serving.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind or a spawn fails.
    pub fn bind_tcp(addr: SocketAddr, backend: Backend, cfg: NetConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        NetServer::start(Listener::Tcp(listener), endpoint, backend, cfg)
    }

    /// Binds a Unix-domain socket at `path` (must not already exist;
    /// removed again at shutdown) and starts serving.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind or a spawn fails.
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        backend: Backend,
        cfg: NetConfig,
    ) -> Result<Self, NetError> {
        let path = path.into();
        let listener = UnixListener::bind(&path)?;
        NetServer::start(Listener::Unix(listener), Endpoint::Unix(path), backend, cfg)
    }

    fn start(
        listener: Listener,
        endpoint: Endpoint,
        backend: Backend,
        cfg: NetConfig,
    ) -> Result<Self, NetError> {
        let admission = Arc::new(Admission::new(cfg.max_queue, cfg.tenant_queue, cfg.quantum));
        let stop = Arc::new(AtomicBool::new(false));

        let mut workers = Vec::new();
        for i in 0..cfg.service_threads.max(1) {
            let admission = Arc::clone(&admission);
            let backend = backend.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("noble-net-svc-{i}"))
                    .spawn(move || {
                        while let Some(item) = admission.next() {
                            let body = backend.execute(item.request);
                            // A dropped outbox just means the peer went
                            // away before its reply; not an error.
                            let _ = item.reply.send(Frame { id: item.id, body });
                            admission.counters.completed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .map_err(|e| {
                        NetError::Io(std::io::Error::other(format!(
                            "cannot spawn service worker: {e}"
                        )))
                    })?,
            );
        }

        let accept = {
            let admission = Arc::clone(&admission);
            let backend = backend.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("noble-net-accept".into())
                .spawn(move || loop {
                    let stream = match listener.accept() {
                        Ok(stream) => stream,
                        Err(_) => {
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            continue;
                        }
                    };
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let admission = Arc::clone(&admission);
                    let backend = backend.clone();
                    // Connection threads are detached: they exit when
                    // the peer closes (or on write failure after the
                    // server shuts the socket down).
                    let _ = std::thread::Builder::new()
                        .name("noble-net-conn".into())
                        .spawn(move || handle_connection(stream, &admission, &backend));
                })
                .map_err(|e| {
                    NetError::Io(std::io::Error::other(format!(
                        "cannot spawn accept loop: {e}"
                    )))
                })?
        };

        Ok(NetServer {
            endpoint,
            backend,
            admission,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// Where this server listens (with the OS-assigned port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Live edge counters plus the serving tier's gauges — the same
    /// snapshot a `Stats` frame answers with.
    pub fn stats(&self) -> StatsResponse {
        stats_snapshot(&self.admission, &self.backend)
    }

    /// Stops accepting and dispatching: everything parked in admission
    /// queues is answered with a typed shutting-down error (never a
    /// dropped reply channel), workers finish their in-service requests
    /// and exit. Returns the final edge counters. The serving tier
    /// behind the backend is untouched — shut it down separately.
    pub fn shutdown(mut self) -> StatsResponse {
        self.halt();
        self.stats()
    }

    fn halt(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        for item in self.admission.stop() {
            let _ = item.reply.send(Frame {
                id: item.id,
                body: Body::ServerError(ServerErrorResponse {
                    detail: ServeError::ShuttingDown.to_string(),
                }),
            });
        }
        // The blocking accept loop only observes `stop` after an
        // accept returns: poke it with one throwaway connection.
        if let Ok(stream) = self.endpoint.connect() {
            drop(stream);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn stats_snapshot(admission: &Admission, backend: &Backend) -> StatsResponse {
    let serve = backend.fix_client().server_stats();
    let c = &admission.counters;
    StatsResponse {
        queue_depth: admission.depth() as u64 + serve.queue_depth,
        in_flight: serve.in_flight,
        shards: serve.shards as u64,
        accepted: c.accepted.load(Ordering::Relaxed),
        completed: c.completed.load(Ordering::Relaxed),
        shed_overload: c.shed_overload.load(Ordering::Relaxed),
        shed_quota: c.shed_quota.load(Ordering::Relaxed),
        bad_frames: c.bad_frames.load(Ordering::Relaxed),
    }
}

/// One connection's reader loop (runs on the connection thread; the
/// writer half runs on a sibling thread draining the outbox).
fn handle_connection(stream: Stream, admission: &Arc<Admission>, backend: &Backend) {
    let Ok(write_half) = stream.try_clone() else {
        stream.shutdown();
        return;
    };
    let (outbox, replies) = mpsc::channel::<Frame>();
    let writer = std::thread::Builder::new()
        .name("noble-net-write".into())
        .spawn(move || {
            let mut write_half = write_half;
            // Exits when every outbox sender is gone: the reader plus
            // any WorkItems still queued or in service — so a reply
            // already earned is never dropped by a racing close.
            while let Ok(frame) = replies.recv() {
                if write_frame(&mut write_half, &frame).is_err() {
                    break;
                }
            }
            write_half.shutdown();
        });
    let Ok(_writer) = writer else {
        stream.shutdown();
        return;
    };

    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                if !dispatch(frame, &outbox, admission, backend) {
                    break;
                }
            }
            Err(e) if e.is_bad_frame() => {
                // One typed rejection, then close: framing cannot
                // resynchronize after a malformed frame. id 0 marks
                // "no trustworthy request id".
                admission
                    .counters
                    .bad_frames
                    .fetch_add(1, Ordering::Relaxed);
                let _ = outbox.send(Frame {
                    id: 0,
                    body: Body::Rejected(Rejection {
                        reason: RejectReason::BadFrame,
                        detail: e.to_string(),
                    }),
                });
                break;
            }
            // Transport error or clean EOF: just close.
            Err(_) => break,
        }
    }
    // Dropping the outbox lets the writer drain pending replies and
    // exit; closing only the read direction guards against a peer that
    // never closes while leaving the write direction to the writer,
    // which still owes the final flush (and closes fully when done).
    drop(outbox);
    reader.into_inner().shutdown_read();
}

/// Routes one decoded request; returns `false` when the connection must
/// close (protocol violation).
fn dispatch(
    frame: Frame,
    outbox: &Sender<Frame>,
    admission: &Arc<Admission>,
    backend: &Backend,
) -> bool {
    let (tenant, request) = match frame.body {
        Body::StatsRequest => {
            // Observability bypasses admission: stats must answer even
            // while the server sheds everything else.
            let _ = outbox.send(Frame {
                id: frame.id,
                body: Body::Stats(stats_snapshot(admission, backend)),
            });
            return true;
        }
        Body::Localize(req) => (
            req.tenant,
            Request::Localize {
                key: req.shard.key(),
                fingerprint: req.fingerprint,
            },
        ),
        Body::TrackedSubmit(req) => (
            req.tenant,
            Request::Tracked {
                device: req.device,
                key: req.shard.key(),
                at: req.at,
                fingerprint: req.fingerprint,
            },
        ),
        // A response kind arriving at the server is a protocol
        // violation: reject and close.
        _ => {
            admission
                .counters
                .bad_frames
                .fetch_add(1, Ordering::Relaxed);
            let _ = outbox.send(Frame {
                id: frame.id,
                body: Body::Rejected(Rejection {
                    reason: RejectReason::BadFrame,
                    detail: "response frame kind sent to server".into(),
                }),
            });
            return false;
        }
    };
    let item = WorkItem {
        id: frame.id,
        reply: outbox.clone(),
        request,
    };
    match admission.offer(&tenant, backend.serve_in_flight(), item) {
        Ok(()) => {}
        Err(Refusal::Reject(rejection)) => {
            let _ = outbox.send(Frame {
                id: frame.id,
                body: Body::Rejected(rejection),
            });
        }
        Err(Refusal::ShuttingDown) => {
            let _ = outbox.send(Frame {
                id: frame.id,
                body: Body::ServerError(ServerErrorResponse {
                    detail: ServeError::ShuttingDown.to_string(),
                }),
            });
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both ends of a TCP connection send each frame at once: the
    /// connecting stream and the accepted one have Nagle disabled.
    #[test]
    fn tcp_streams_set_nodelay_on_both_ends() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("bound address"));
        let listener = Listener::Tcp(listener);
        let client = endpoint.connect().expect("connect");
        let server = listener.accept().expect("accept");
        for (side, stream) in [("connect", client), ("accept", server)] {
            let Stream::Tcp(tcp) = stream else {
                panic!("{side}: TCP endpoint produced a non-TCP stream");
            };
            assert!(
                tcp.nodelay().expect("read TCP_NODELAY"),
                "{side}: Nagle still on"
            );
        }
    }
}
