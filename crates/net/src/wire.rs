//! The length-prefixed binary wire protocol.
//!
//! Every message travels as one **frame**: a little-endian `u32` payload
//! length followed by the payload. The payload's first byte is an opcode
//! (client→server opcodes are `< 0x80`, server→client `≥ 0x80`); the rest
//! is opcode-specific, all integers little-endian, all floats IEEE-754
//! `f32` little-endian.
//!
//! ## Safety against hostile bytes
//!
//! Decoding is **strict** so a malformed or hostile frame can never
//! allocate unboundedly or wedge a connection:
//!
//! * the frame length is checked against [`DecodeLimits::max_frame`]
//!   *before* any allocation — an oversized declaration fails the
//!   connection without reading the body;
//! * every item count is checked against [`DecodeLimits::max_items`]
//!   *and* against the bytes actually present (fixed item sizes make the
//!   expected payload length exact), so a forged count cannot reserve
//!   memory the peer never sent;
//! * payloads must be consumed exactly — trailing bytes are an error, not
//!   slack;
//! * every decode error is typed ([`WireError`]) and terminates only the
//!   offending connection, never the service behind it.
//!
//! ## Message vocabulary
//!
//! | opcode | direction | message |
//! |---|---|---|
//! | `0x01` | c→s | `Hello { magic, version, tenant }` — must be first |
//! | `0x02` | c→s | `Request { corr, consistency, request }` — any [`Request`] variant |
//! | `0x03` | c→s | `Stats { corr }` — snapshot request |
//! | `0x81` | s→c | `HelloAck { version, max_frame, max_items }` |
//! | `0x82` | s→c | `Reply { corr, shards_skipped, epoch, response }` |
//! | `0x83` | s→c | `Error { corr, error }` — typed per-request failure |
//! | `0x84` | s→c | `Retry { corr, after, depth, capacity }` — load shed |
//! | `0x85` | s→c | `StatsReply { corr, json }` |
//! | `0x86` | s→c | `Fatal { code, message }` — connection-level, then close |
//!
//! Correlation ids are chosen by the client; the server echoes them
//! verbatim, so a client may pipeline any number of in-flight requests
//! per connection and match responses in any arrival order.
//!
//! ## Consistency on the wire (version 2)
//!
//! Each `Request` frame carries one consistency byte after the
//! correlation id — `0` defers to the tenant's configured default,
//! `1` forces [`Consistency::Barrier`], `2` forces
//! [`Consistency::Snapshot`], and `3` (followed by a `u64` minimum
//! epoch) forces [`Consistency::ReadYourWrites`]. Every `Reply` carries
//! the `u64` epoch the service reported for that request (the published
//! epoch a snapshot read ran against, or the epoch whose publication
//! made an acknowledged write visible), letting clients thread
//! read-your-writes floors through subsequent requests.

use simspatial_geom::{Aabb, ElementId, Point3};
use simspatial_service::{Consistency, RecvError, Request, Response};
use std::io::{Read, Write};
use std::time::Duration;

/// Frame magic carried by `Hello` ("SSPN" big-endian in the u32).
pub const MAGIC: u32 = 0x5353_504E;

/// Protocol version this build speaks. A server rejects a `Hello` with a
/// different major version with [`FatalCode::BadHandshake`]. Version 2
/// added the per-request consistency byte and the per-reply epoch.
pub const VERSION: u16 = 2;

/// Payload opcodes (first byte of every frame payload).
pub mod op {
    /// Client handshake; must be the first frame on a connection.
    pub const HELLO: u8 = 0x01;
    /// One spatial request with a client-chosen correlation id.
    pub const REQUEST: u8 = 0x02;
    /// Service stats snapshot request.
    pub const STATS: u8 = 0x03;
    /// Server handshake acknowledgement.
    pub const HELLO_ACK: u8 = 0x81;
    /// Successful response to a `REQUEST`.
    pub const REPLY: u8 = 0x82;
    /// Typed per-request failure.
    pub const ERROR: u8 = 0x83;
    /// Per-request load shed with a congestion-scaled retry hint.
    pub const RETRY: u8 = 0x84;
    /// Stats snapshot payload (JSON).
    pub const STATS_REPLY: u8 = 0x85;
    /// Connection-level protocol failure; the server closes after sending.
    pub const FATAL: u8 = 0x86;
}

/// Consistency-byte values carried by a `REQUEST` frame.
mod consistency {
    /// Use the tenant's configured default consistency.
    pub const TENANT_DEFAULT: u8 = 0;
    /// Force `Consistency::Barrier` for this request.
    pub const BARRIER: u8 = 1;
    /// Force `Consistency::Snapshot` for this request.
    pub const SNAPSHOT: u8 = 2;
    /// Force `Consistency::ReadYourWrites`; followed by a `u64` epoch.
    pub const READ_YOUR_WRITES: u8 = 3;
}

/// Request-body tags (one per [`Request`] variant).
mod tag {
    pub const RANGE: u8 = 1;
    pub const RANGE_COUNT: u8 = 2;
    pub const KNN: u8 = 3;
    pub const UPDATE: u8 = 4;
    pub const STEP: u8 = 5;
    pub const STEP_DELTA: u8 = 6;
    pub const INSERT: u8 = 7;
    pub const REMOVE: u8 = 8;
}

/// Decode-side resource limits. Both bounds are enforced before any
/// allocation sized by peer-controlled numbers.
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Largest accepted frame payload, bytes.
    pub max_frame: usize,
    /// Largest accepted item count in one request (boxes, probes,
    /// updates, ids) — bounds both decode allocation and the work a
    /// single frame can demand.
    pub max_items: usize,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        Self {
            max_frame: 1 << 20,
            max_items: 4096,
        }
    }
}

/// Why a frame failed to decode. Every variant is a protocol violation
/// that fails the offending connection typed (via [`FatalCode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// The payload continued past the end of the message.
    Trailing {
        /// Unconsumed bytes left in the frame.
        extra: usize,
    },
    /// A frame declared a length above the negotiated maximum.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// `Hello` carried the wrong magic.
    BadMagic {
        /// The magic received.
        got: u32,
    },
    /// `Hello` carried an unsupported protocol version.
    BadVersion {
        /// The version received.
        got: u16,
    },
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// Unknown request/response body tag.
    UnknownTag(u8),
    /// An item count above [`DecodeLimits::max_items`].
    TooManyItems {
        /// The declared count.
        count: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadString,
    /// Any other framing violation (e.g. a message in the wrong
    /// direction or position).
    Protocol(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-message"),
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            WireError::BadMagic { got } => write!(f, "bad handshake magic {got:#010x}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::UnknownOpcode(o) => write!(f, "unknown opcode {o:#04x}"),
            WireError::UnknownTag(t) => write!(f, "unknown body tag {t}"),
            WireError::TooManyItems { count, max } => {
                write!(f, "item count {count} exceeds maximum {max}")
            }
            WireError::BadString => write!(f, "string field is not valid UTF-8"),
            WireError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Connection-level failure codes carried by a `FATAL` frame — the typed
/// reason a server gives before closing a misbehaving connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FatalCode {
    /// Handshake rejected: bad magic, bad version, or `Hello` missing /
    /// repeated.
    BadHandshake = 1,
    /// A frame failed to decode (truncated, trailing, bad string).
    Malformed = 2,
    /// A frame declared a length above the negotiated maximum.
    FrameTooLarge = 3,
    /// Unknown opcode or body tag.
    UnknownOpcode = 4,
    /// An item count above the negotiated maximum.
    LimitExceeded = 5,
    /// The declared tenant is unknown and the server admits no defaults.
    UnknownTenant = 6,
    /// The server is shutting down.
    ShuttingDown = 7,
}

impl FatalCode {
    /// Decodes the wire byte.
    pub fn from_u8(v: u8) -> Option<FatalCode> {
        Some(match v {
            1 => FatalCode::BadHandshake,
            2 => FatalCode::Malformed,
            3 => FatalCode::FrameTooLarge,
            4 => FatalCode::UnknownOpcode,
            5 => FatalCode::LimitExceeded,
            6 => FatalCode::UnknownTenant,
            7 => FatalCode::ShuttingDown,
            _ => return None,
        })
    }

    /// The fatal code a given decode error maps to.
    pub fn for_wire_error(e: &WireError) -> FatalCode {
        match e {
            WireError::BadMagic { .. } | WireError::BadVersion { .. } => FatalCode::BadHandshake,
            WireError::FrameTooLarge { .. } => FatalCode::FrameTooLarge,
            WireError::UnknownOpcode(_) | WireError::UnknownTag(_) => FatalCode::UnknownOpcode,
            WireError::TooManyItems { .. } => FatalCode::LimitExceeded,
            _ => FatalCode::Malformed,
        }
    }
}

/// A per-request failure as carried on the wire. Mirrors
/// [`RecvError`] plus the admission-time
/// [`ReadOnly`](RequestError::ReadOnly) rejection (which in-process
/// callers see as a [`SubmitError`](simspatial_service::SubmitError)
/// before a ticket ever exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The service shut down before completing the request.
    ShutDown,
    /// A backend worker failed serving the request (dead shard on a kNN
    /// probe, lost write, poisoned dispatcher).
    WorkerFailed {
        /// The shard the failure is attributed to.
        shard: u32,
    },
    /// The request's deadline expired before or after dispatch.
    DeadlineExceeded,
    /// A write request reached a read-only backend.
    ReadOnly,
}

impl From<RecvError> for RequestError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::ShutDown => RequestError::ShutDown,
            RecvError::WorkerFailed { shard } => RequestError::WorkerFailed {
                shard: shard as u32,
            },
            RecvError::DeadlineExceeded => RequestError::DeadlineExceeded,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ShutDown => write!(f, "service shut down"),
            RequestError::WorkerFailed { shard } => write!(f, "worker failed (shard {shard})"),
            RequestError::DeadlineExceeded => write!(f, "deadline exceeded"),
            RequestError::ReadOnly => write!(f, "backend is read-only"),
        }
    }
}

impl std::error::Error for RequestError {}

/// A decoded client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake: protocol version + tenant declaration.
    Hello {
        /// Client protocol version.
        version: u16,
        /// Tenant this connection's requests are accounted to.
        tenant: String,
    },
    /// One spatial request under a client-chosen correlation id.
    Request {
        /// Client-chosen correlation id, echoed on the response.
        corr: u64,
        /// Requested consistency mode; `None` defers to the tenant's
        /// configured default.
        consistency: Option<Consistency>,
        /// The decoded request.
        request: Request,
    },
    /// Stats snapshot request.
    Stats {
        /// Client-chosen correlation id.
        corr: u64,
    },
}

/// A decoded server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake acknowledgement with the server's enforced limits.
    HelloAck {
        /// Server protocol version.
        version: u16,
        /// Largest client→server frame the server accepts.
        max_frame: u32,
        /// Largest per-request item count the server accepts.
        max_items: u32,
    },
    /// Successful response.
    Reply {
        /// Echoed correlation id.
        corr: u64,
        /// Dead shards skipped serving this request (partial coverage).
        shards_skipped: u32,
        /// The epoch the service reported for this request: the
        /// published epoch a snapshot read was answered at, or the epoch
        /// whose publication made an acknowledged write visible.
        epoch: u64,
        /// The response payload.
        response: Response,
    },
    /// Typed per-request failure.
    Error {
        /// Echoed correlation id.
        corr: u64,
        /// The failure.
        error: RequestError,
    },
    /// Per-request load shed: the request was **not** admitted; retry
    /// after the hint.
    Retry {
        /// Echoed correlation id.
        corr: u64,
        /// Congestion-scaled backoff hint.
        after: Duration,
        /// Intake queue depth observed at shed time.
        depth: u32,
        /// Intake queue capacity.
        capacity: u32,
    },
    /// Stats snapshot (the `ServiceStats::to_json` payload, including
    /// per-tenant counters).
    StatsReply {
        /// Echoed correlation id.
        corr: u64,
        /// JSON-encoded stats.
        json: String,
    },
    /// Connection-level protocol failure; the server closes the
    /// connection after sending it.
    Fatal {
        /// The typed reason.
        code: FatalCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Primitive encode helpers (little-endian, appending to a Vec).
// ---------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_point(buf: &mut Vec<u8>, p: &Point3) {
    put_f32(buf, p.x);
    put_f32(buf, p.y);
    put_f32(buf, p.z);
}

fn put_aabb(buf: &mut Vec<u8>, bb: &Aabb) {
    put_point(buf, &bb.min);
    put_point(buf, &bb.max);
}

fn put_str16(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Primitive decode cursor.
// ---------------------------------------------------------------------

/// A bounds-checked little-endian reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn point(&mut self) -> Result<Point3, WireError> {
        Ok(Point3::new(self.f32()?, self.f32()?, self.f32()?))
    }

    fn aabb(&mut self) -> Result<Aabb, WireError> {
        Ok(Aabb::new(self.point()?, self.point()?))
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    /// A peer-declared item count, validated against the configured cap
    /// **and** the bytes actually present (`item_size` per item), so a
    /// forged count can neither over-allocate nor over-read.
    fn count(&mut self, max_items: usize, item_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > max_items {
            return Err(WireError::TooManyItems {
                count: n,
                max: max_items,
            });
        }
        if self.remaining() < n.saturating_mul(item_size) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

/// Writes one frame (`u32` length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame payload into `buf` (replacing its contents).
///
/// Returns `Ok(false)` on clean end-of-stream (the peer closed between
/// frames), `Ok(true)` when `buf` holds a complete payload. A length
/// declaration above `max_frame` fails **before** reading the body so a
/// hostile peer cannot force the allocation; mid-frame EOF surfaces as
/// `UnexpectedEof`.
pub fn read_frame(
    r: &mut impl Read,
    max_frame: usize,
    buf: &mut Vec<u8>,
) -> Result<bool, FrameReadError> {
    let mut len_bytes = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_bytes[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(FrameReadError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_frame {
        return Err(FrameReadError::Wire(WireError::FrameTooLarge {
            len,
            max: max_frame,
        }));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(FrameReadError::Io)?;
    Ok(true)
}

/// Why [`read_frame`] failed: transport error or protocol violation.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying transport failed (including mid-frame EOF).
    Io(std::io::Error),
    /// The frame violated the protocol (oversized declaration).
    Wire(WireError),
}

// ---------------------------------------------------------------------
// Client→server encode/decode.
// ---------------------------------------------------------------------

/// Encodes a `Hello` handshake payload.
pub fn encode_hello(buf: &mut Vec<u8>, tenant: &str) {
    buf.clear();
    buf.push(op::HELLO);
    put_u32(buf, MAGIC);
    put_u16(buf, VERSION);
    put_str16(buf, tenant);
}

/// Encodes one request under `corr` into `buf` (cleared first).
/// `consistency: None` emits the tenant-default byte, letting the
/// server resolve the mode from the connection's tenant profile.
pub fn encode_request(
    buf: &mut Vec<u8>,
    corr: u64,
    consistency: Option<Consistency>,
    request: &Request,
) {
    buf.clear();
    buf.push(op::REQUEST);
    put_u64(buf, corr);
    match consistency {
        None => buf.push(consistency::TENANT_DEFAULT),
        Some(Consistency::Barrier) => buf.push(consistency::BARRIER),
        Some(Consistency::Snapshot) => buf.push(consistency::SNAPSHOT),
        Some(Consistency::ReadYourWrites { min_epoch }) => {
            buf.push(consistency::READ_YOUR_WRITES);
            put_u64(buf, min_epoch);
        }
    }
    match request {
        Request::Range(boxes) | Request::RangeCount(boxes) => {
            buf.push(if matches!(request, Request::Range(_)) {
                tag::RANGE
            } else {
                tag::RANGE_COUNT
            });
            put_u32(buf, boxes.len() as u32);
            for bb in boxes {
                put_aabb(buf, bb);
            }
        }
        Request::Knn(probes) => {
            buf.push(tag::KNN);
            put_u32(buf, probes.len() as u32);
            for (p, k) in probes {
                put_point(buf, p);
                put_u32(buf, *k as u32);
            }
        }
        Request::Update(pairs) | Request::StepDelta(pairs) => {
            buf.push(if matches!(request, Request::Update(_)) {
                tag::UPDATE
            } else {
                tag::STEP_DELTA
            });
            put_u32(buf, pairs.len() as u32);
            for (id, bb) in pairs {
                put_u32(buf, *id);
                put_aabb(buf, bb);
            }
        }
        Request::Step(envs) | Request::Insert(envs) => {
            buf.push(if matches!(request, Request::Step(_)) {
                tag::STEP
            } else {
                tag::INSERT
            });
            put_u32(buf, envs.len() as u32);
            for bb in envs {
                put_aabb(buf, bb);
            }
        }
        Request::Remove(ids) => {
            buf.push(tag::REMOVE);
            put_u32(buf, ids.len() as u32);
            for id in ids {
                put_u32(buf, *id);
            }
        }
    }
}

/// Encodes a stats snapshot request.
pub fn encode_stats(buf: &mut Vec<u8>, corr: u64) {
    buf.clear();
    buf.push(op::STATS);
    put_u64(buf, corr);
}

/// Decodes one client→server frame payload under `limits`.
pub fn decode_client_msg(payload: &[u8], limits: &DecodeLimits) -> Result<ClientMsg, WireError> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8()? {
        op::HELLO => {
            let magic = c.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = c.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            ClientMsg::Hello {
                version,
                tenant: c.str16()?,
            }
        }
        op::REQUEST => {
            let corr = c.u64()?;
            let consistency = match c.u8()? {
                consistency::TENANT_DEFAULT => None,
                consistency::BARRIER => Some(Consistency::Barrier),
                consistency::SNAPSHOT => Some(Consistency::Snapshot),
                consistency::READ_YOUR_WRITES => Some(Consistency::ReadYourWrites {
                    min_epoch: c.u64()?,
                }),
                other => return Err(WireError::UnknownTag(other)),
            };
            let request = decode_request_body(&mut c, limits)?;
            ClientMsg::Request {
                corr,
                consistency,
                request,
            }
        }
        op::STATS => ClientMsg::Stats { corr: c.u64()? },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(msg)
}

const AABB_SIZE: usize = 24;
const POINT_K_SIZE: usize = 16;
const ID_AABB_SIZE: usize = 28;
const ID_SIZE: usize = 4;

fn decode_request_body(c: &mut Cursor<'_>, limits: &DecodeLimits) -> Result<Request, WireError> {
    let t = c.u8()?;
    Ok(match t {
        tag::RANGE | tag::RANGE_COUNT | tag::STEP | tag::INSERT => {
            let n = c.count(limits.max_items, AABB_SIZE)?;
            let mut boxes = Vec::with_capacity(n);
            for _ in 0..n {
                boxes.push(c.aabb()?);
            }
            match t {
                tag::RANGE => Request::Range(boxes),
                tag::RANGE_COUNT => Request::RangeCount(boxes),
                tag::STEP => Request::Step(boxes),
                _ => Request::Insert(boxes),
            }
        }
        tag::KNN => {
            let n = c.count(limits.max_items, POINT_K_SIZE)?;
            let mut probes = Vec::with_capacity(n);
            for _ in 0..n {
                let p = c.point()?;
                let k = c.u32()? as usize;
                if k > limits.max_items {
                    return Err(WireError::TooManyItems {
                        count: k,
                        max: limits.max_items,
                    });
                }
                probes.push((p, k));
            }
            Request::Knn(probes)
        }
        tag::UPDATE | tag::STEP_DELTA => {
            let n = c.count(limits.max_items, ID_AABB_SIZE)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let id: ElementId = c.u32()?;
                pairs.push((id, c.aabb()?));
            }
            if t == tag::UPDATE {
                Request::Update(pairs)
            } else {
                Request::StepDelta(pairs)
            }
        }
        tag::REMOVE => {
            let n = c.count(limits.max_items, ID_SIZE)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u32()?);
            }
            Request::Remove(ids)
        }
        other => return Err(WireError::UnknownTag(other)),
    })
}

// ---------------------------------------------------------------------
// Server→client encode/decode.
// ---------------------------------------------------------------------

/// Encodes the handshake acknowledgement.
pub fn encode_hello_ack(buf: &mut Vec<u8>, max_frame: u32, max_items: u32) {
    buf.clear();
    buf.push(op::HELLO_ACK);
    put_u16(buf, VERSION);
    put_u32(buf, max_frame);
    put_u32(buf, max_items);
}

/// Encodes a successful response. Deterministic: the bytes are a pure
/// function of `(corr, shards_skipped, epoch, response)` — the
/// differential tests rely on this to diff TCP replies against an
/// in-process oracle byte-for-byte.
pub fn encode_reply(
    buf: &mut Vec<u8>,
    corr: u64,
    shards_skipped: u32,
    epoch: u64,
    response: &Response,
) {
    buf.clear();
    buf.push(op::REPLY);
    put_u64(buf, corr);
    put_u32(buf, shards_skipped);
    put_u64(buf, epoch);
    match response {
        Response::Range(lists) => {
            buf.push(tag::RANGE);
            put_u32(buf, lists.len() as u32);
            for list in lists {
                put_u32(buf, list.len() as u32);
                for id in list {
                    put_u32(buf, *id);
                }
            }
        }
        Response::RangeCount(counts) => {
            buf.push(tag::RANGE_COUNT);
            put_u32(buf, counts.len() as u32);
            for n in counts {
                put_u64(buf, *n);
            }
        }
        Response::Knn(lists) => {
            buf.push(tag::KNN);
            put_u32(buf, lists.len() as u32);
            for list in lists {
                put_u32(buf, list.len() as u32);
                for (id, d) in list {
                    put_u32(buf, *id);
                    put_f32(buf, *d);
                }
            }
        }
        Response::Update(n) => {
            buf.push(tag::UPDATE);
            put_u64(buf, *n);
        }
        Response::Step(n) => {
            buf.push(tag::STEP);
            put_u64(buf, *n);
        }
        Response::StepDelta(n) => {
            buf.push(tag::STEP_DELTA);
            put_u64(buf, *n);
        }
        Response::Insert(ids) => {
            buf.push(tag::INSERT);
            put_u32(buf, ids.len() as u32);
            for id in ids {
                put_u32(buf, *id);
            }
        }
        Response::Remove(n) => {
            buf.push(tag::REMOVE);
            put_u64(buf, *n);
        }
    }
}

/// Encodes a typed per-request failure.
pub fn encode_error(buf: &mut Vec<u8>, corr: u64, error: RequestError) {
    buf.clear();
    buf.push(op::ERROR);
    put_u64(buf, corr);
    match error {
        RequestError::ShutDown => {
            buf.push(1);
            put_u32(buf, 0);
        }
        RequestError::WorkerFailed { shard } => {
            buf.push(2);
            put_u32(buf, shard);
        }
        RequestError::DeadlineExceeded => {
            buf.push(3);
            put_u32(buf, 0);
        }
        RequestError::ReadOnly => {
            buf.push(4);
            put_u32(buf, 0);
        }
    }
}

/// Encodes a load-shed retry hint.
pub fn encode_retry(buf: &mut Vec<u8>, corr: u64, after: Duration, depth: u32, capacity: u32) {
    buf.clear();
    buf.push(op::RETRY);
    put_u64(buf, corr);
    put_u64(buf, after.as_micros().min(u128::from(u64::MAX)) as u64);
    put_u32(buf, depth);
    put_u32(buf, capacity);
}

/// Encodes a stats snapshot payload.
pub fn encode_stats_reply(buf: &mut Vec<u8>, corr: u64, json: &str) {
    buf.clear();
    buf.push(op::STATS_REPLY);
    put_u64(buf, corr);
    buf.extend_from_slice(json.as_bytes());
}

/// Encodes a connection-level fatal frame.
pub fn encode_fatal(buf: &mut Vec<u8>, code: FatalCode, message: &str) {
    buf.clear();
    buf.push(op::FATAL);
    buf.push(code as u8);
    let msg = &message.as_bytes()[..message.len().min(512)];
    put_u16(buf, msg.len() as u16);
    buf.extend_from_slice(msg);
}

/// Decodes one server→client frame payload.
pub fn decode_server_msg(payload: &[u8]) -> Result<ServerMsg, WireError> {
    let mut c = Cursor::new(payload);
    let msg = match c.u8()? {
        op::HELLO_ACK => ServerMsg::HelloAck {
            version: c.u16()?,
            max_frame: c.u32()?,
            max_items: c.u32()?,
        },
        op::REPLY => {
            let corr = c.u64()?;
            let shards_skipped = c.u32()?;
            let epoch = c.u64()?;
            let response = decode_response_body(&mut c)?;
            ServerMsg::Reply {
                corr,
                shards_skipped,
                epoch,
                response,
            }
        }
        op::ERROR => {
            let corr = c.u64()?;
            let code = c.u8()?;
            let shard = c.u32()?;
            let error = match code {
                1 => RequestError::ShutDown,
                2 => RequestError::WorkerFailed { shard },
                3 => RequestError::DeadlineExceeded,
                4 => RequestError::ReadOnly,
                other => return Err(WireError::UnknownTag(other)),
            };
            ServerMsg::Error { corr, error }
        }
        op::RETRY => ServerMsg::Retry {
            corr: c.u64()?,
            after: Duration::from_micros(c.u64()?),
            depth: c.u32()?,
            capacity: c.u32()?,
        },
        op::STATS_REPLY => {
            let corr = c.u64()?;
            let bytes = c.take(c.remaining())?;
            ServerMsg::StatsReply {
                corr,
                json: String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)?,
            }
        }
        op::FATAL => {
            let code = FatalCode::from_u8(c.u8()?).ok_or(WireError::Protocol("bad fatal code"))?;
            let message = c.str16()?;
            ServerMsg::Fatal { code, message }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(msg)
}

/// Response list lengths are server-controlled, so decode trusts the frame
/// bound (the client's `max_reply_frame`) rather than `max_items` — a
/// range query can legitimately return far more ids than it sent boxes.
/// Every count is still validated against the bytes actually present.
fn decode_response_body(c: &mut Cursor<'_>) -> Result<Response, WireError> {
    let t = c.u8()?;
    Ok(match t {
        tag::RANGE => {
            let n = c.count(usize::MAX, 4)?;
            let mut lists = Vec::with_capacity(n);
            for _ in 0..n {
                let m = c.count(usize::MAX, ID_SIZE)?;
                let mut list = Vec::with_capacity(m);
                for _ in 0..m {
                    list.push(c.u32()?);
                }
                lists.push(list);
            }
            Response::Range(lists)
        }
        tag::RANGE_COUNT => {
            let n = c.count(usize::MAX, 8)?;
            let mut counts = Vec::with_capacity(n);
            for _ in 0..n {
                counts.push(c.u64()?);
            }
            Response::RangeCount(counts)
        }
        tag::KNN => {
            let n = c.count(usize::MAX, 4)?;
            let mut lists = Vec::with_capacity(n);
            for _ in 0..n {
                let m = c.count(usize::MAX, 8)?;
                let mut list = Vec::with_capacity(m);
                for _ in 0..m {
                    let id = c.u32()?;
                    let d = c.f32()?;
                    list.push((id, d));
                }
                lists.push(list);
            }
            Response::Knn(lists)
        }
        tag::UPDATE => Response::Update(c.u64()?),
        tag::STEP => Response::Step(c.u64()?),
        tag::STEP_DELTA => Response::StepDelta(c.u64()?),
        tag::INSERT => {
            let n = c.count(usize::MAX, ID_SIZE)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u32()?);
            }
            Response::Insert(ids)
        }
        tag::REMOVE => Response::Remove(c.u64()?),
        other => return Err(WireError::UnknownTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(x: f32) -> Aabb {
        Aabb::new(
            Point3::new(x, x + 1.0, x + 2.0),
            Point3::new(x + 3.0, x + 4.0, x + 5.0),
        )
    }

    fn roundtrip_request(request: Request) {
        let limits = DecodeLimits::default();
        let mut buf = Vec::new();
        for mode in [
            None,
            Some(Consistency::Barrier),
            Some(Consistency::Snapshot),
            Some(Consistency::ReadYourWrites { min_epoch: 917 }),
        ] {
            encode_request(&mut buf, 42, mode, &request);
            match decode_client_msg(&buf, &limits).expect("decodes") {
                ClientMsg::Request {
                    corr,
                    consistency,
                    request: got,
                } => {
                    assert_eq!(corr, 42);
                    assert_eq!(consistency, mode);
                    assert_eq!(format!("{got:?}"), format!("{request:?}"));
                }
                other => panic!("wrong message: {other:?}"),
            }
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Range(vec![bb(0.0), bb(9.0)]));
        roundtrip_request(Request::RangeCount(vec![bb(1.0)]));
        roundtrip_request(Request::Knn(vec![(Point3::new(1.0, 2.0, 3.0), 7)]));
        roundtrip_request(Request::Update(vec![(3, bb(2.0)), (9, bb(4.0))]));
        roundtrip_request(Request::Step(vec![bb(5.0); 3]));
        roundtrip_request(Request::StepDelta(vec![(1, bb(6.0))]));
        roundtrip_request(Request::Insert(vec![bb(7.0)]));
        roundtrip_request(Request::Remove(vec![1, 2, 3]));
        roundtrip_request(Request::Range(Vec::new()));
    }

    fn roundtrip_response(response: Response) {
        let mut buf = Vec::new();
        encode_reply(&mut buf, 7, 1, 33, &response);
        match decode_server_msg(&buf).expect("decodes") {
            ServerMsg::Reply {
                corr,
                shards_skipped,
                epoch,
                response: got,
            } => {
                assert_eq!(corr, 7);
                assert_eq!(shards_skipped, 1);
                assert_eq!(epoch, 33);
                assert_eq!(got, response);
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Range(vec![vec![1, 2, 3], vec![], vec![9]]));
        roundtrip_response(Response::RangeCount(vec![0, 5, u64::MAX]));
        roundtrip_response(Response::Knn(vec![vec![(4, 1.5), (2, 2.5)], vec![]]));
        roundtrip_response(Response::Update(11));
        roundtrip_response(Response::Step(12));
        roundtrip_response(Response::StepDelta(13));
        roundtrip_response(Response::Insert(vec![100, 101]));
        roundtrip_response(Response::Remove(2));
    }

    #[test]
    fn hello_and_control_roundtrip() {
        let mut buf = Vec::new();
        encode_hello(&mut buf, "tenant-a");
        assert_eq!(
            decode_client_msg(&buf, &DecodeLimits::default()).unwrap(),
            ClientMsg::Hello {
                version: VERSION,
                tenant: "tenant-a".into()
            }
        );
        encode_stats(&mut buf, 5);
        assert_eq!(
            decode_client_msg(&buf, &DecodeLimits::default()).unwrap(),
            ClientMsg::Stats { corr: 5 }
        );
        encode_hello_ack(&mut buf, 1 << 20, 4096);
        assert_eq!(
            decode_server_msg(&buf).unwrap(),
            ServerMsg::HelloAck {
                version: VERSION,
                max_frame: 1 << 20,
                max_items: 4096
            }
        );
        encode_retry(&mut buf, 3, Duration::from_micros(450), 8, 8);
        assert_eq!(
            decode_server_msg(&buf).unwrap(),
            ServerMsg::Retry {
                corr: 3,
                after: Duration::from_micros(450),
                depth: 8,
                capacity: 8
            }
        );
        encode_error(&mut buf, 4, RequestError::WorkerFailed { shard: 2 });
        assert_eq!(
            decode_server_msg(&buf).unwrap(),
            ServerMsg::Error {
                corr: 4,
                error: RequestError::WorkerFailed { shard: 2 }
            }
        );
        encode_stats_reply(&mut buf, 6, "{\"ok\":true}");
        assert_eq!(
            decode_server_msg(&buf).unwrap(),
            ServerMsg::StatsReply {
                corr: 6,
                json: "{\"ok\":true}".into()
            }
        );
        encode_fatal(&mut buf, FatalCode::Malformed, "bad");
        assert_eq!(
            decode_server_msg(&buf).unwrap(),
            ServerMsg::Fatal {
                code: FatalCode::Malformed,
                message: "bad".into()
            }
        );
    }

    #[test]
    fn hostile_frames_fail_typed_without_allocating() {
        let limits = DecodeLimits::default();
        // Truncated mid-item.
        let mut buf = Vec::new();
        encode_request(&mut buf, 1, None, &Request::Range(vec![bb(0.0)]));
        assert_eq!(
            decode_client_msg(&buf[..buf.len() - 3], &limits),
            Err(WireError::Truncated)
        );
        // Trailing garbage.
        let mut long = buf.clone();
        long.push(0xFF);
        assert_eq!(
            decode_client_msg(&long, &limits),
            Err(WireError::Trailing { extra: 1 })
        );
        // Forged count with no bytes behind it: rejected by the byte
        // cross-check, not by attempting the allocation.
        let mut forged = vec![op::REQUEST];
        forged.extend_from_slice(&1u64.to_le_bytes());
        forged.push(0); // tenant-default consistency
        forged.push(1); // RANGE
        forged.extend_from_slice(&1_000u32.to_le_bytes());
        assert_eq!(
            decode_client_msg(&forged, &limits),
            Err(WireError::Truncated)
        );
        // Count above the cap.
        let mut over = vec![op::REQUEST];
        over.extend_from_slice(&1u64.to_le_bytes());
        over.push(0); // tenant-default consistency
        over.push(8); // REMOVE (4-byte items keep the frame small)
        over.extend_from_slice(&(limits.max_items as u32 + 1).to_le_bytes());
        over.extend(std::iter::repeat_n(0u8, (limits.max_items + 1) * 4));
        assert_eq!(
            decode_client_msg(&over, &limits),
            Err(WireError::TooManyItems {
                count: limits.max_items + 1,
                max: limits.max_items
            })
        );
        // Unknown opcode / tag.
        assert_eq!(
            decode_client_msg(&[0x7F], &limits),
            Err(WireError::UnknownOpcode(0x7F))
        );
        let mut badtag = vec![op::REQUEST];
        badtag.extend_from_slice(&1u64.to_le_bytes());
        badtag.push(0); // tenant-default consistency
        badtag.push(99);
        assert_eq!(
            decode_client_msg(&badtag, &limits),
            Err(WireError::UnknownTag(99))
        );
        // Unknown consistency byte fails typed before the body decodes.
        let mut badmode = vec![op::REQUEST];
        badmode.extend_from_slice(&1u64.to_le_bytes());
        badmode.push(77); // not a consistency value
        assert_eq!(
            decode_client_msg(&badmode, &limits),
            Err(WireError::UnknownTag(77))
        );
        // Read-your-writes truncated before its min-epoch.
        let mut shortryw = vec![op::REQUEST];
        shortryw.extend_from_slice(&1u64.to_le_bytes());
        shortryw.push(3); // READ_YOUR_WRITES, but no u64 follows
        assert_eq!(
            decode_client_msg(&shortryw, &limits),
            Err(WireError::Truncated)
        );
        // Bad handshake magic.
        let mut hello = Vec::new();
        encode_hello(&mut hello, "t");
        hello[1] = 0; // clobber magic
        assert!(matches!(
            decode_client_msg(&hello, &limits),
            Err(WireError::BadMagic { .. })
        ));
    }

    /// SplitMix64: seeded inputs without a dev-dependency.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn encode_client_msg(msg: &ClientMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        match msg {
            ClientMsg::Hello { tenant, .. } => encode_hello(&mut buf, tenant),
            ClientMsg::Request {
                corr,
                consistency,
                request,
            } => encode_request(&mut buf, *corr, *consistency, request),
            ClientMsg::Stats { corr } => encode_stats(&mut buf, *corr),
        }
        buf
    }

    /// Feeds `bytes` to both decoders under `limits`. Neither may panic
    /// (every outcome is a message or a typed `WireError`); an accepted
    /// client frame re-encodes to the same length, and decode→encode is
    /// byte-stable from the second round (`Aabb::new` may reorder corners
    /// on the first). Returns the client-side outcome.
    fn decode_hostile(bytes: &[u8], limits: &DecodeLimits) -> Result<ClientMsg, WireError> {
        let client = std::panic::catch_unwind(|| decode_client_msg(bytes, limits));
        let server = std::panic::catch_unwind(|| decode_server_msg(bytes));
        let (Ok(client), Ok(_)) = (client, server) else {
            panic!("a decoder panicked on {bytes:02x?}");
        };
        if let Ok(msg) = &client {
            let once = encode_client_msg(msg);
            assert_eq!(once.len(), bytes.len(), "re-encoded length of {bytes:02x?}");
            let again = decode_client_msg(&once, limits).expect("a re-encoded frame decodes");
            assert_eq!(encode_client_msg(&again), once, "unstable round trip");
        }
        client
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders() {
        let mut valid = Vec::new();
        let mut buf = Vec::new();
        let requests = [
            Request::Range(vec![bb(0.0), bb(9.0), bb(-4.0)]),
            Request::RangeCount(vec![bb(1.0)]),
            Request::Knn(vec![
                (Point3::new(1.0, 2.0, 3.0), 7),
                (Point3::new(-1.0, 0.5, 8.0), 1),
            ]),
            Request::Update(vec![(3, bb(2.0)), (9, bb(4.0)), (11, bb(5.0))]),
            Request::Step(vec![bb(5.0); 3]),
            Request::StepDelta(vec![(1, bb(6.0))]),
            Request::Insert(vec![bb(7.0), bb(8.0)]),
            Request::Remove(vec![1, 2, 3]),
        ];
        for request in &requests {
            for mode in [
                None,
                Some(Consistency::Barrier),
                Some(Consistency::Snapshot),
                Some(Consistency::ReadYourWrites { min_epoch: 917 }),
            ] {
                encode_request(&mut buf, 42, mode, request);
                valid.push(buf.clone());
            }
        }
        encode_hello(&mut buf, "tenant-a");
        valid.push(buf.clone());
        encode_stats(&mut buf, 5);
        valid.push(buf.clone());
        for response in [
            Response::Range(vec![vec![1, 2, 3], vec![], vec![9]]),
            Response::RangeCount(vec![0, 5, u64::MAX]),
            Response::Knn(vec![vec![(4, 1.5), (2, 2.5)], vec![]]),
            Response::Update(11),
            Response::Step(12),
            Response::StepDelta(13),
            Response::Insert(vec![100, 101]),
            Response::Remove(2),
        ] {
            encode_reply(&mut buf, 7, 1, 33, &response);
            valid.push(buf.clone());
        }
        for error in [
            RequestError::ShutDown,
            RequestError::WorkerFailed { shard: 2 },
            RequestError::DeadlineExceeded,
            RequestError::ReadOnly,
        ] {
            encode_error(&mut buf, 4, error);
            valid.push(buf.clone());
        }
        encode_hello_ack(&mut buf, 1 << 20, 4096);
        valid.push(buf.clone());
        encode_retry(&mut buf, 3, Duration::from_micros(450), 8, 8);
        valid.push(buf.clone());
        encode_stats_reply(&mut buf, 6, "{\"ok\":true}");
        valid.push(buf.clone());
        encode_fatal(&mut buf, FatalCode::Malformed, "bad");
        valid.push(buf.clone());

        // Every valid encoding, each of its truncations and each of its
        // single-byte mutations, then random payloads.
        let mut state = 0x5EED_F0CC;
        let mut inputs = Vec::new();
        for frame in &valid {
            for len in 0..=frame.len() {
                inputs.push(frame[..len].to_vec());
            }
            for at in 0..frame.len() {
                let random = splitmix64(&mut state) as u8;
                for byte in [frame[at] ^ 0x01, frame[at] ^ 0x80, 0x00, 0xFF, random] {
                    let mut mutated = frame.clone();
                    mutated[at] = byte;
                    inputs.push(mutated);
                }
            }
        }
        let opcodes = [op::HELLO, op::REQUEST, op::STATS, op::REPLY, op::ERROR];
        for _ in 0..4096 {
            let len = (splitmix64(&mut state) % 80) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| splitmix64(&mut state) as u8).collect();
            if let Some(first) = bytes.first_mut() {
                *first = opcodes[(splitmix64(&mut state) % opcodes.len() as u64) as usize];
            }
            inputs.push(bytes);
        }

        let small = DecodeLimits {
            max_frame: 64,
            max_items: 2,
        };
        let (mut accepted, mut capped) = (0, 0);
        for bytes in &inputs {
            accepted += usize::from(decode_hostile(bytes, &DecodeLimits::default()).is_ok());
            let outcome = decode_hostile(bytes, &small);
            capped += usize::from(matches!(outcome, Err(WireError::TooManyItems { .. })));
        }
        // The round-trip and count-cap arms both actually ran.
        assert!(
            accepted > inputs.len() / 100,
            "{accepted} of {} accepted",
            inputs.len()
        );
        assert!(capped > 0, "small limits never reached a count cap");
    }

    #[test]
    fn oversized_frame_rejected_before_read() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 64]).unwrap();
        let mut buf = Vec::new();
        // Accepts at a generous cap…
        assert!(read_frame(&mut wire.as_slice(), 1 << 10, &mut buf).unwrap());
        assert_eq!(buf.len(), 64);
        // …rejects typed below it, without consuming the body.
        match read_frame(&mut wire.as_slice(), 32, &mut buf) {
            Err(FrameReadError::Wire(WireError::FrameTooLarge { len: 64, max: 32 })) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        // Clean EOF between frames.
        assert!(!read_frame(&mut [].as_slice(), 32, &mut buf).unwrap());
        // Mid-frame EOF is an error, not a hang.
        let partial = &wire[..wire.len() - 10];
        assert!(matches!(
            read_frame(&mut &partial[..], 1 << 10, &mut buf),
            Err(FrameReadError::Io(_))
        ));
    }
}
