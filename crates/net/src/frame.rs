//! The length-prefixed binary wire protocol.
//!
//! Every message on a noble-net connection is one **frame**:
//!
//! ```text
//!  offset  size  field
//!  ------  ----  -----------------------------------------------
//!       0     2  magic  "NB"
//!       2     1  version (currently 1)
//!       3     1  kind    (request 0x01..=0x03, response 0x81..=0x85)
//!       4     8  id      (u64 LE, echoed verbatim on the reply)
//!      12     4  payload length (u32 LE, capped at MAX_PAYLOAD)
//!      16     n  payload (kind-specific, little-endian fields)
//! ```
//!
//! The `id` is the pipelining handle: clients stamp each request with a
//! connection-unique id and may submit many before reading replies; the
//! server echoes the id on whichever response answers it (results may
//! arrive out of submission order under admission scheduling).
//!
//! Payload scalars are little-endian; `f64`s travel as their IEEE-754
//! bit pattern (`to_le_bytes`/`from_le_bytes`), so round-trips are
//! **bit-stable** — including NaNs — and a served fix crosses the wire
//! with the exact bits the model produced. Strings are `u16` length +
//! UTF-8 bytes; options are a one-byte tag; vectors are a counted
//! prefix whose count is validated against the bytes actually present
//! *before* any allocation.
//!
//! Decoding never panics: every truncation, bad tag, bogus count or
//! trailing byte is a typed [`NetError`] (pinned by the `frame_codec`
//! fuzz suite). After a malformed frame the stream cannot resynchronize
//! (lengths can no longer be trusted), so servers answer one typed
//! [`RejectReason::BadFrame`] rejection and close.

use crate::NetError;
use noble_serve::ShardKey;
use std::io::{Read, Write};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"NB";
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Hard cap on one frame's payload: a hostile length prefix can make the
/// decoder refuse, never allocate unbounded memory.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Frame kind bytes (requests have the high bit clear, responses set).
mod kind {
    pub const LOCALIZE: u8 = 0x01;
    pub const TRACKED_SUBMIT: u8 = 0x02;
    pub const STATS: u8 = 0x03;
    pub const FIX: u8 = 0x81;
    pub const TRACKED: u8 = 0x82;
    pub const STATS_REPLY: u8 = 0x83;
    pub const REJECTED: u8 = 0x84;
    pub const SERVER_ERROR: u8 = 0x85;
}

/// A shard address on the wire (fixed-width mirror of [`ShardKey`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireShard {
    /// Building index.
    pub building: u32,
    /// Floor index, when sharding per building-floor.
    pub floor: Option<u32>,
}

impl WireShard {
    /// The serving-layer key this addresses.
    pub fn key(self) -> ShardKey {
        ShardKey {
            building: self.building as usize,
            floor: self.floor.map(|f| f as usize),
        }
    }
}

impl From<ShardKey> for WireShard {
    fn from(key: ShardKey) -> Self {
        WireShard {
            building: key.building as u32,
            floor: key.floor.map(|f| f as u32),
        }
    }
}

/// Request: localize one fingerprint (stateless fix tier).
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizeRequest {
    /// Admission-control tenant this request bills against.
    pub tenant: String,
    /// Shard to route to.
    pub shard: WireShard,
    /// Feature row for the shard's model.
    pub fingerprint: Vec<f64>,
}

/// Request: localize + feed the device's tracking session.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedSubmitRequest {
    /// Admission-control tenant this request bills against.
    pub tenant: String,
    /// Device whose session consumes the fix.
    pub device: u64,
    /// Shard to route to.
    pub shard: WireShard,
    /// Logical observation time (per-device monotone, caller's clock).
    pub at: u64,
    /// Feature row for the shard's model.
    pub fingerprint: Vec<f64>,
}

/// Response: one served fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixResponse {
    /// Easting of the fix.
    pub x: f64,
    /// Northing of the fix.
    pub y: f64,
    /// Whether the shard was cold and the fix parked while its model
    /// faulted in.
    pub cold: bool,
}

/// One committed zone-membership change, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireZoneEvent {
    /// Device whose membership changed.
    pub device: u64,
    /// Zone index in the server's zone set.
    pub zone: u32,
    /// `true` = entered, `false` = left.
    pub entered: bool,
    /// Logical time that committed the change.
    pub at: u64,
}

/// Response: one tracked fix plus the zone events it committed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedResponse {
    /// Raw localizer output.
    pub raw: FixResponse,
    /// Smoothed-track easting after this observation.
    pub smoothed_x: f64,
    /// Smoothed-track northing after this observation.
    pub smoothed_y: f64,
    /// Committed (hysteresis-stable) zone index, if any.
    pub zone: Option<u32>,
    /// Zone events this observation committed.
    pub events: Vec<WireZoneEvent>,
}

/// Response: server load and admission counters (the observability
/// frame — served outside admission control so it answers even while
/// the server sheds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsResponse {
    /// Requests inside the serving tier, submitted but not yet batched.
    pub queue_depth: u64,
    /// Requests inside the serving tier, submitted but not yet replied.
    pub in_flight: u64,
    /// Shards being served.
    pub shards: u64,
    /// Requests admitted since start.
    pub accepted: u64,
    /// Admitted requests answered (success or typed serve error).
    pub completed: u64,
    /// Requests shed by the global overload watermark.
    pub shed_overload: u64,
    /// Requests shed by a per-tenant quota.
    pub shed_quota: u64,
    /// Connections dropped after a malformed frame.
    pub bad_frames: u64,
}

/// Why a request was refused without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The server's global queue watermark is exceeded — total load is
    /// past what the serving tier can absorb.
    Overloaded,
    /// This tenant's own queue is full — its arrival rate exceeds its
    /// fair share even though the server as a whole may have room.
    TenantQuota,
    /// The frame could not be decoded; the connection closes after this
    /// reply.
    BadFrame,
}

impl RejectReason {
    fn tag(self) -> u8 {
        match self {
            RejectReason::Overloaded => 0,
            RejectReason::TenantQuota => 1,
            RejectReason::BadFrame => 2,
        }
    }

    fn from_tag(value: u8) -> Result<Self, NetError> {
        match value {
            0 => Ok(RejectReason::Overloaded),
            1 => Ok(RejectReason::TenantQuota),
            2 => Ok(RejectReason::BadFrame),
            _ => Err(NetError::Tag {
                field: "reject_reason",
                value,
            }),
        }
    }
}

/// Response: typed load-shed / bad-frame rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Why the request was refused.
    pub reason: RejectReason,
    /// Human-readable context (queue depths, the decode error, ...).
    pub detail: String,
}

/// Response: the serving tier answered with a typed [`ServeError`]
/// (unknown shard, feature-width mismatch, shutdown, ...). Distinct
/// from [`Rejection`]: the request *was* admitted and reached a shard.
///
/// [`ServeError`]: noble_serve::ServeError
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerErrorResponse {
    /// Display of the serving error.
    pub detail: String,
}

/// The payload of one frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// 0x01: localize one fingerprint.
    Localize(LocalizeRequest),
    /// 0x02: localize + track.
    TrackedSubmit(TrackedSubmitRequest),
    /// 0x03: read server stats (no payload).
    StatsRequest,
    /// 0x81: a served fix.
    Fix(FixResponse),
    /// 0x82: a served-and-tracked fix.
    Tracked(TrackedResponse),
    /// 0x83: server stats.
    Stats(StatsResponse),
    /// 0x84: typed rejection (request never reached a shard).
    Rejected(Rejection),
    /// 0x85: typed serving-tier error.
    ServerError(ServerErrorResponse),
}

/// One message: a pipelining id plus a typed body.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Connection-unique request id, echoed on the reply.
    pub id: u64,
    /// The typed payload.
    pub body: Body,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), NetError> {
    let len = u16::try_from(s.len()).map_err(|_| NetError::Oversized {
        len: s.len() as u32,
        cap: u32::from(u16::MAX),
    })?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_shard(out: &mut Vec<u8>, shard: WireShard) {
    put_u32(out, shard.building);
    match shard.floor {
        Some(f) => {
            out.push(1);
            put_u32(out, f);
        }
        None => out.push(0),
    }
}

fn put_f64_vec(out: &mut Vec<u8>, values: &[f64]) -> Result<(), NetError> {
    let count = u32::try_from(values.len()).map_err(|_| NetError::Oversized {
        len: u32::MAX,
        cap: MAX_PAYLOAD,
    })?;
    put_u32(out, count);
    for &v in values {
        put_f64(out, v);
    }
    Ok(())
}

impl Body {
    /// An upper bound on the encoded payload size, so that
    /// [`Frame::encode`] allocates its buffer once.
    fn payload_capacity(&self) -> usize {
        // Strings carry a u16 length, shards up to 9 bytes, vectors a
        // u32 count.
        match self {
            Body::Localize(r) => 2 + r.tenant.len() + 9 + 4 + 8 * r.fingerprint.len(),
            Body::TrackedSubmit(r) => 2 + r.tenant.len() + 8 + 9 + 8 + 4 + 8 * r.fingerprint.len(),
            Body::StatsRequest => 0,
            Body::Fix(_) => 17,
            Body::Tracked(t) => 40 + 21 * t.events.len(),
            Body::Stats(_) => 64,
            Body::Rejected(r) => 1 + 2 + r.detail.len(),
            Body::ServerError(e) => 2 + e.detail.len(),
        }
    }

    /// Serializes the payload into `out` and returns the kind byte.
    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<u8, NetError> {
        match self {
            Body::Localize(req) => {
                put_str(out, &req.tenant)?;
                put_shard(out, req.shard);
                put_f64_vec(out, &req.fingerprint)?;
                Ok(kind::LOCALIZE)
            }
            Body::TrackedSubmit(req) => {
                put_str(out, &req.tenant)?;
                put_u64(out, req.device);
                put_shard(out, req.shard);
                put_u64(out, req.at);
                put_f64_vec(out, &req.fingerprint)?;
                Ok(kind::TRACKED_SUBMIT)
            }
            Body::StatsRequest => Ok(kind::STATS),
            Body::Fix(fix) => {
                put_f64(out, fix.x);
                put_f64(out, fix.y);
                out.push(u8::from(fix.cold));
                Ok(kind::FIX)
            }
            Body::Tracked(t) => {
                put_f64(out, t.raw.x);
                put_f64(out, t.raw.y);
                out.push(u8::from(t.raw.cold));
                put_f64(out, t.smoothed_x);
                put_f64(out, t.smoothed_y);
                match t.zone {
                    Some(z) => {
                        out.push(1);
                        put_u32(out, z);
                    }
                    None => out.push(0),
                }
                let count = u16::try_from(t.events.len()).map_err(|_| NetError::Oversized {
                    len: t.events.len() as u32,
                    cap: u32::from(u16::MAX),
                })?;
                put_u16(out, count);
                for ev in &t.events {
                    put_u64(out, ev.device);
                    put_u32(out, ev.zone);
                    out.push(u8::from(ev.entered));
                    put_u64(out, ev.at);
                }
                Ok(kind::TRACKED)
            }
            Body::Stats(s) => {
                put_u64(out, s.queue_depth);
                put_u64(out, s.in_flight);
                put_u64(out, s.shards);
                put_u64(out, s.accepted);
                put_u64(out, s.completed);
                put_u64(out, s.shed_overload);
                put_u64(out, s.shed_quota);
                put_u64(out, s.bad_frames);
                Ok(kind::STATS_REPLY)
            }
            Body::Rejected(r) => {
                out.push(r.reason.tag());
                put_str(out, &r.detail)?;
                Ok(kind::REJECTED)
            }
            Body::ServerError(e) => {
                put_str(out, &e.detail)?;
                Ok(kind::SERVER_ERROR)
            }
        }
    }
}

impl Frame {
    /// Serializes header + payload into one buffer.
    ///
    /// # Errors
    ///
    /// [`NetError::Oversized`] when a field exceeds its width or the
    /// payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.body.payload_capacity());
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        // Kind and payload length are patched in once the payload is
        // written.
        out.push(0);
        put_u64(&mut out, self.id);
        put_u32(&mut out, 0);
        let kind = self.body.encode_payload(&mut out)?;
        let len = out.len() - HEADER_LEN;
        if len > MAX_PAYLOAD as usize {
            return Err(NetError::Oversized {
                len: len as u32,
                cap: MAX_PAYLOAD,
            });
        }
        out[3] = kind;
        out[12..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        Ok(out)
    }

    /// Decodes one complete frame from the front of `bytes`, returning
    /// it plus the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// A typed [`NetError`] for every malformation; never panics.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), NetError> {
        if bytes.len() < HEADER_LEN {
            return Err(NetError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let header = Header::decode(&header)?;
        let total = HEADER_LEN + header.payload_len as usize;
        if bytes.len() < total {
            return Err(NetError::Truncated {
                need: total - HEADER_LEN,
                have: bytes.len() - HEADER_LEN,
            });
        }
        let body = decode_body(header.kind, &bytes[HEADER_LEN..total])?;
        Ok((
            Frame {
                id: header.id,
                body,
            },
            total,
        ))
    }
}

/// A validated frame header (magic/version/length checked; the kind byte
/// is validated against the payload when the body is decoded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame kind byte.
    pub kind: u8,
    /// Request id.
    pub id: u64,
    /// Declared payload length (already bounded by [`MAX_PAYLOAD`]).
    pub payload_len: u32,
}

impl Header {
    /// Validates and decodes the fixed 16-byte header.
    ///
    /// # Errors
    ///
    /// [`NetError::BadMagic`] / [`NetError::Version`] /
    /// [`NetError::Oversized`].
    pub fn decode(bytes: &[u8; HEADER_LEN]) -> Result<Self, NetError> {
        if bytes[0..2] != MAGIC {
            return Err(NetError::BadMagic([bytes[0], bytes[1]]));
        }
        if bytes[2] != VERSION {
            return Err(NetError::Version(bytes[2]));
        }
        let kind = bytes[3];
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[4..12]);
        let mut len = [0u8; 4];
        len.copy_from_slice(&bytes[12..16]);
        let payload_len = u32::from_le_bytes(len);
        if payload_len > MAX_PAYLOAD {
            return Err(NetError::Oversized {
                len: payload_len,
                cap: MAX_PAYLOAD,
            });
        }
        Ok(Header {
            kind,
            id: u64::from_le_bytes(id),
            payload_len,
        })
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Bounds-checked cursor over one payload: every read either yields the
/// bytes or a typed [`NetError::Truncated`] — no slicing past the end,
/// no panics.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.buf.len() < n {
            return Err(NetError::Truncated {
                need: n,
                have: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        let mut b = [0u8; 2];
        b.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, NetError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(f64::from_le_bytes(b))
    }

    fn bool(&mut self, field: &'static str) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(NetError::Tag { field, value }),
        }
    }

    fn string(&mut self, field: &'static str) -> Result<String, NetError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Utf8 { field })
    }

    fn shard(&mut self) -> Result<WireShard, NetError> {
        let building = self.u32()?;
        let floor = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            value => {
                return Err(NetError::Tag {
                    field: "shard_floor",
                    value,
                })
            }
        };
        Ok(WireShard { building, floor })
    }

    fn f64_vec(&mut self, field: &'static str) -> Result<Vec<f64>, NetError> {
        let count = self.u32()?;
        // Validate the count against the bytes actually present before
        // allocating: a corrupt 4-byte count must not reserve gigabytes.
        let need = (count as usize).checked_mul(8);
        if need.is_none_or(|n| n > self.buf.len()) {
            return Err(NetError::Count { field, count });
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), NetError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(NetError::TrailingBytes(self.buf.len()))
        }
    }
}

fn decode_body(kind: u8, payload: &[u8]) -> Result<Body, NetError> {
    let mut r = Reader { buf: payload };
    let body = match kind {
        kind::LOCALIZE => Body::Localize(LocalizeRequest {
            tenant: r.string("tenant")?,
            shard: r.shard()?,
            fingerprint: r.f64_vec("fingerprint")?,
        }),
        kind::TRACKED_SUBMIT => Body::TrackedSubmit(TrackedSubmitRequest {
            tenant: r.string("tenant")?,
            device: r.u64()?,
            shard: r.shard()?,
            at: r.u64()?,
            fingerprint: r.f64_vec("fingerprint")?,
        }),
        kind::STATS => Body::StatsRequest,
        kind::FIX => Body::Fix(FixResponse {
            x: r.f64()?,
            y: r.f64()?,
            cold: r.bool("cold")?,
        }),
        kind::TRACKED => {
            let raw = FixResponse {
                x: r.f64()?,
                y: r.f64()?,
                cold: r.bool("cold")?,
            };
            let smoothed_x = r.f64()?;
            let smoothed_y = r.f64()?;
            let zone = match r.u8()? {
                0 => None,
                1 => Some(r.u32()?),
                value => {
                    return Err(NetError::Tag {
                        field: "zone",
                        value,
                    })
                }
            };
            let count = r.u16()?;
            // 21 bytes per event; validate before allocating.
            let need = (count as usize).checked_mul(21);
            if need.is_none_or(|n| n > r.buf.len()) {
                return Err(NetError::Count {
                    field: "events",
                    count: u32::from(count),
                });
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                events.push(WireZoneEvent {
                    device: r.u64()?,
                    zone: r.u32()?,
                    entered: r.bool("event_entered")?,
                    at: r.u64()?,
                });
            }
            Body::Tracked(TrackedResponse {
                raw,
                smoothed_x,
                smoothed_y,
                zone,
                events,
            })
        }
        kind::STATS_REPLY => Body::Stats(StatsResponse {
            queue_depth: r.u64()?,
            in_flight: r.u64()?,
            shards: r.u64()?,
            accepted: r.u64()?,
            completed: r.u64()?,
            shed_overload: r.u64()?,
            shed_quota: r.u64()?,
            bad_frames: r.u64()?,
        }),
        kind::REJECTED => {
            let reason = RejectReason::from_tag(r.u8()?)?;
            Body::Rejected(Rejection {
                reason,
                detail: r.string("detail")?,
            })
        }
        kind::SERVER_ERROR => Body::ServerError(ServerErrorResponse {
            detail: r.string("detail")?,
        }),
        other => return Err(NetError::Kind(other)),
    };
    r.finish()?;
    Ok(body)
}

// ---------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------

/// Writes one frame to a blocking stream.
///
/// # Errors
///
/// [`NetError::Oversized`] from encoding, [`NetError::Io`] from the
/// transport.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), NetError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes)?;
    Ok(())
}

/// Reads one complete frame from a blocking stream (header, then
/// exactly the declared payload).
///
/// # Errors
///
/// A typed decode [`NetError`] for malformed bytes, [`NetError::Io`]
/// for transport failures (including EOF mid-frame).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let header = Header::decode(&header)?;
    let mut payload = vec![0u8; header.payload_len as usize];
    r.read_exact(&mut payload)?;
    let body = decode_body(header.kind, &payload)?;
    Ok(Frame {
        id: header.id,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The capacity hint covers the largest encoding of every kind, so
    /// `encode` never grows its buffer.
    #[test]
    fn payload_capacity_bounds_every_kind() {
        let shard = WireShard {
            building: u32::MAX,
            floor: Some(u32::MAX),
        };
        let event = WireZoneEvent {
            device: 1,
            zone: 2,
            entered: true,
            at: 3,
        };
        let bodies = [
            Body::Localize(LocalizeRequest {
                tenant: "tenant-é".into(),
                shard,
                fingerprint: vec![0.5; 520],
            }),
            Body::TrackedSubmit(TrackedSubmitRequest {
                tenant: "tenant".into(),
                device: 7,
                shard,
                at: 9,
                fingerprint: vec![0.5; 3],
            }),
            Body::StatsRequest,
            Body::Fix(FixResponse {
                x: 1.0,
                y: 2.0,
                cold: true,
            }),
            Body::Tracked(TrackedResponse {
                raw: FixResponse {
                    x: 1.0,
                    y: 2.0,
                    cold: false,
                },
                smoothed_x: 1.0,
                smoothed_y: 2.0,
                zone: Some(5),
                events: vec![event; 3],
            }),
            Body::Stats(StatsResponse::default()),
            Body::Rejected(Rejection {
                reason: RejectReason::Overloaded,
                detail: "busy".into(),
            }),
            Body::ServerError(ServerErrorResponse {
                detail: "shutting down".into(),
            }),
        ];
        for body in bodies {
            let capacity = body.payload_capacity();
            let frame = Frame { id: 1, body };
            let len = frame.encode().unwrap().len() - HEADER_LEN;
            assert!(len <= capacity, "{:?}: {len} > {capacity}", frame.body);
        }
    }
}
