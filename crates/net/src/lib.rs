//! # noble-net — the wire-protocol network edge
//!
//! Production localization traffic does not arrive over in-process
//! channels: it arrives over sockets, from many tenants at once, at
//! rates the server does not control. This crate is that edge for the
//! NObLe serving stack:
//!
//! - [`frame`]: a length-prefixed, versioned binary protocol (16-byte
//!   header, typed payloads for localize / tracked-submit / stats /
//!   rejection / error). The decoder is bounds-checked end to end —
//!   every truncation, corruption, bogus count or trailing byte is a
//!   typed [`NetError`], never a panic, and `f64` payloads round-trip
//!   **bit-stably** (pinned by the `frame_codec` fuzz suite).
//! - [`NetServer`]: loopback TCP or Unix-socket front end over a
//!   [`Backend`] ([`noble_serve::BatchServer`] client for stateless
//!   fixes, [`noble_serve::TrackingServer`] client for per-device
//!   tracking). Std-only threading: one reader + one writer thread per
//!   connection and no edge thread pool — admitted requests are
//!   submitted without blocking, and the serving tier's shard workers
//!   push each reply into its connection's outbox.
//! - Admission control: bounded per-tenant queues and a global
//!   watermark that folds in the serving tier's live in-flight gauge
//!   ([`noble_serve::ServeClient::server_stats`]). Load past the
//!   watermark is **shed** with typed [`RejectReason::Overloaded`] /
//!   [`RejectReason::TenantQuota`] rejections instead of queuing without
//!   bound — that is what keeps accepted-request tail latency flat past
//!   saturation. Dispatch is deficit round robin, so one hot tenant
//!   cannot starve the rest (pinned by `overload_behavior`).
//!
//! The `overload_behavior` suite drives the edge with an **open-loop**
//! Poisson load generator (arrivals on a schedule, never gated on
//! replies — no coordinated omission) that lives with the tests, through
//! an offered-load sweep that gates goodput and accepted p99 past
//! saturation.
//!
//! ```no_run
//! use noble_net::{Backend, Body, NetClient, NetConfig, NetServer, WireShard};
//! use noble_serve::{BatchConfig, BatchServer, RegistryConfig, ShardedRegistry};
//! use noble::wifi::WifiNobleConfig;
//! use noble_datasets::{uji_campaign, UjiConfig};
//!
//! let campaign = uji_campaign(&UjiConfig::small())?;
//! let registry = ShardedRegistry::train_wifi(
//!     &campaign,
//!     &WifiNobleConfig::small(),
//!     &RegistryConfig::default(),
//! )?;
//! let server = BatchServer::start(registry, BatchConfig::default())?;
//! let edge = NetServer::bind_tcp(
//!     "127.0.0.1:0".parse()?,
//!     Backend::Fix(server.client()),
//!     NetConfig::default(),
//! )?;
//!
//! let mut client = NetClient::connect(edge.endpoint())?;
//! let shard = WireShard { building: 0, floor: None };
//! match client.localize("tenant-a", shard, vec![0.0; campaign.num_waps()])? {
//!     Body::Fix(fix) => println!("device at ({}, {})", fix.x, fix.y),
//!     other => println!("refused: {other:?}"),
//! }
//! edge.shutdown();
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod admission;
mod client;
mod error;
pub mod frame;
mod server;
mod sync;

pub use client::{NetClient, NetReceiver, NetSender};
pub use error::NetError;
pub use frame::{
    Body, FixResponse, Frame, Header, LocalizeRequest, RejectReason, Rejection,
    ServerErrorResponse, StatsResponse, TrackedResponse, TrackedSubmitRequest, WireShard,
    WireZoneEvent, HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use server::{Backend, Endpoint, NetConfig, NetServer, Stream};
